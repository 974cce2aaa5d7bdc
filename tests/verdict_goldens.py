"""Golden verdict fingerprints: the one oracle every engine test shares.

``tests/golden/verdicts_<app>.json`` pins, for fixed served runs of the
four bundled apps x {grouped, singleton} x {honest, every applicable
``ALL_ATTACKS`` entry}, the audit's full observable outcome --
``(accepted, reason, detail, stage, site, graph_nodes, graph_edges,
groups, handlers_executed)`` -- plus the per-epoch ``(epoch, accepted,
reason, checkpoint_digest)`` of one honest and one tampered sealed
stream per app.  They were recorded by the staged pipeline engine at the
commit before it was deleted, so a run of the audit engine under any
scheduler backend, dedup state, ready-queue order or metrics setting either reproduces them bit for bit or has changed a
verdict.

A rejection witnessed by a graph cycle pins that a cycle was found, not
its rotation (cycle enumeration starts from a set and varies with
``PYTHONHASHSEED``), and a detail that prints a set pins its members
sorted.

An *intentional* verdict change regenerates with::

    KAROUSOS_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_verdict_golden.py
"""

import functools
import json
import os
import random
import re

from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.attacks.tamper import tamper_response
from repro.continuous import ContinuousAuditor, Epoch, EpochSealer
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SPEC = "repro.verdicts/1"

APPS = {
    "motd": motd_app,
    "stacks": stackdump_app,
    "wiki": wiki_app,
    "feed": feed_app,
}

# run name -> (app, workload thunk, isolation level of its store or None)
RUNS = {
    "motd-s21": ("motd", lambda: motd_workload(14, mix="mixed", seed=21), None),
    "motd-s31": ("motd", lambda: motd_workload(14, mix="write-heavy", seed=31), None),
    "stacks-ser": ("stacks", lambda: stacks_workload(14, mix="mixed", seed=22),
                   IsolationLevel.SERIALIZABLE),
    "stacks-rc": ("stacks", lambda: stacks_workload(14, mix="read-heavy", seed=32),
                  IsolationLevel.READ_COMMITTED),
    "wiki-ser": ("wiki", lambda: wiki_workload(14, seed=23),
                 IsolationLevel.SERIALIZABLE),
    "wiki-snap": ("wiki", lambda: wiki_workload(14, seed=33),
                  IsolationLevel.SNAPSHOT),
    "feed-ser": ("feed", lambda: feed_workload(14, mix="mixed", seed=24),
                 IsolationLevel.SERIALIZABLE),
}

# One sealed stream per app: (workload thunk, seal_every).
STREAMS = {
    "motd": (lambda: motd_workload(24, mix="mixed", seed=61), 5),
    "stacks": (lambda: stacks_workload(24, mix="mixed", seed=62), 5),
    "wiki": (lambda: wiki_workload(24, seed=63), 5),
    "feed": (lambda: feed_workload(24, mix="mixed", seed=64), 5),
}

GROUPINGS = {"grouped": False, "singleton": True}
STATS = ("graph_nodes", "graph_edges", "groups", "handlers_executed")


def app_of(run_name):
    return APPS[RUNS[run_name][0]]


def shuffled(seed):
    """A seeded ``order_key``: the ready queue pops in a random order, so
    nodes are absorbed out of canonical order -- what a worker pool does
    to the engine, without paying for the pool."""
    rng, rank = random.Random(seed), {}
    return lambda node: rank.setdefault(node.node_id, rng.random())


@functools.lru_cache(maxsize=None)
def served(run_name):
    app, workload, level = RUNS[run_name]
    return run_server(
        APPS[app](),
        workload(),
        KarousosPolicy(),
        store=KVStore(level) if level is not None else None,
        scheduler=RandomScheduler(1),
        concurrency=5,
    )


@functools.lru_cache(maxsize=None)
def cases(run_name):
    """``{case name: (trace, advice)}``: the honest pair plus every attack
    that finds a target in this run."""
    run = served(run_name)
    out = {"honest": (run.trace, run.advice)}
    for attack in ALL_ATTACKS:
        try:
            out[attack.name] = attack.apply(run.trace, run.advice)
        except LookupError:
            continue
    return out


@functools.lru_cache(maxsize=None)
def streams(app):
    """``{"honest": epochs, "tampered": epochs}``: a sealed stream, and
    the same stream with epoch 1's first response altered (so epoch 1
    rejects and every later epoch cascades)."""
    workload, seal_every = STREAMS[app]
    sealer = EpochSealer(seal_every)
    run_server(
        APPS[app](),
        workload(),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE) if app != "motd" else None,
        scheduler=RandomScheduler(2),
        concurrency=4,
        sealer=sealer,
    )
    honest = tuple(sealer.epochs)
    assert len(honest) >= 3, (app, len(honest))
    victim = honest[1]
    trace, advice = tamper_response(victim.trace, victim.advice)
    forged = Epoch(victim.index, trace, advice, victim.binlog_range)
    return {"honest": honest, "tampered": honest[:1] + (forged,) + honest[2:]}


def _sorted_braces(match):
    return "{" + ", ".join(sorted(match.group(1).split(", "))) + "}"


def fingerprint(result):
    site = result.site
    detail = re.sub(r"\{([^{}]*)\}", _sorted_braces, result.detail)
    if site is not None:
        site = json.loads(json.dumps(site, default=repr, sort_keys=True))
        if "cycle" in site:
            site["cycle"], detail = True, None
    out = {
        "accepted": result.accepted,
        "reason": result.reason,
        "detail": detail,
        "stage": result.stage,
        "site": site,
    }
    for key in STATS:
        out[key] = result.stats.get(key)
    return out


def stream_fingerprint(verdicts):
    return [
        [v.epoch, v.accepted, v.result.reason, v.checkpoint_digest]
        for v in verdicts
    ]


def audit_case(run_name, grouping, case, **engine):
    """Fingerprint of one engine run over a golden case."""
    trace, advice = cases(run_name)[case]
    return fingerprint(
        Auditor(
            app_of(run_name)(), trace, advice,
            singleton_groups=GROUPINGS[grouping], **engine,
        ).run()
    )


def audit_stream(app, which, **engine):
    return stream_fingerprint(
        ContinuousAuditor(APPS[app](), **engine).run(streams(app)[which])
    )


def compute(app):
    """The golden document for ``app``, from the default engine."""
    return {
        "spec": SPEC,
        "runs": {
            run_name: {
                grouping: {
                    case: audit_case(run_name, grouping, case)
                    for case in cases(run_name)
                }
                for grouping in GROUPINGS
            }
            for run_name, spec in RUNS.items() if spec[0] == app
        },
        "stream": {which: audit_stream(app, which) for which in streams(app)},
    }


def golden_path(app):
    return os.path.join(GOLDEN_DIR, f"verdicts_{app}.json")


@functools.lru_cache(maxsize=None)
def golden(app):
    with open(golden_path(app)) as fh:
        doc = json.load(fh)
    assert doc["spec"] == SPEC, "golden written for another spec; regenerate"
    return doc


def expected(run_name, grouping, case):
    return golden(RUNS[run_name][0])["runs"][run_name][grouping][case]


def assert_golden(run_name, grouping="grouped", case="honest", **engine):
    """The engine, configured by ``engine``, reproduces the golden
    fingerprint of one case; returns the fingerprint."""
    __tracebackhide__ = True
    got = audit_case(run_name, grouping, case, **engine)
    assert got == expected(run_name, grouping, case), (
        run_name, grouping, case, sorted(engine),
    )
    return got


def assert_stream_golden(app, which="honest", **engine):
    __tracebackhide__ = True
    got = audit_stream(app, which, **engine)
    assert got == golden(app)["stream"][which], (app, which, sorted(engine))
    return got
