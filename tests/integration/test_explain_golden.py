"""Golden-file tests for ``audit --explain`` divergence reports.

Every curated attack that applies to an app's fixed workload must
produce a divergence report whose pinned coordinates (reason, stage,
request, handler, key, variable) match the committed golden file --
time-travel diagnosis is only useful if it names the *right* operation,
and these goldens freeze that contract against regressions.

Regenerate after an intentional change with::

    KAROUSOS_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_explain_golden.py
"""

import json
import os

import pytest

from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.attacks import applicable_attacks
from repro.continuous import Epoch
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import audit, explain_rejection
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

pytestmark = pytest.mark.tier1

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

# The coordinates a report must reproduce exactly.  Values like
# expected/claimed repr whole payloads and may legitimately evolve with
# app internals; the *location* of the divergence must not.
PINNED = (
    "reason", "stage", "localized", "rid", "handler", "key", "var", "tx", "cycle",
)

RUNS = {
    "motd": (motd_app, lambda: motd_workload(25, mix="mixed", seed=11), None),
    "stacks": (
        stackdump_app,
        lambda: stacks_workload(25, mix="mixed", seed=12),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "wiki": (
        wiki_app,
        lambda: wiki_workload(25, seed=13),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "feed": (
        feed_app,
        lambda: feed_workload(25, mix="mixed", seed=14),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
}


def golden_path(app_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"explain_{app_name}.json")


def compute_reports(app_name: str):
    """attack name -> pinned report coordinates, for every attack the
    fixed workload admits."""
    app_fn, workload_fn, store_fn = RUNS[app_name]
    run = run_server(
        app_fn(),
        workload_fn(),
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(5),
        concurrency=4,
    )
    out = {}
    for attack in applicable_attacks(run.advice, run.trace):
        trace, advice = attack.apply(run.trace, run.advice)
        result = audit(app_fn(), trace, advice)
        if result.accepted and not attack.guaranteed:
            # Workload-dependent tampers may be semantically neutral here;
            # the crafted soundness suite pins them on bespoke workloads.
            continue
        assert not result.accepted, f"{attack.name} must reject"
        report = explain_rejection(app_fn(), Epoch(0, trace, advice), None, result)
        assert report is not None, (
            f"{attack.name}: rejected audit must yield a divergence report"
        )
        doc = report.as_json()
        out[attack.name] = {
            k: doc.get(k) for k in PINNED if doc.get(k) is not None
        }
        # Cycle membership is graph-traversal-order (hash seed) dependent
        # across processes; pin that a cycle was found, not its rotation.
        if "cycle" in out[attack.name]:
            out[attack.name]["cycle"] = True
        out[attack.name]["localized"] = report.localized
    return out


@pytest.fixture(scope="module", params=sorted(RUNS), ids=str)
def app_reports(request):
    return request.param, compute_reports(request.param)


def test_reports_match_golden(app_reports):
    app_name, reports = app_reports
    path = golden_path(app_name)
    if os.environ.get("KAROUSOS_REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert reports == golden, (
        f"divergence reports for {app_name} drifted from {path}; regenerate "
        "with KAROUSOS_REGEN_GOLDEN=1 if the change is intentional"
    )


def test_every_applicable_attack_is_covered(app_reports):
    """The golden sweep must not silently shrink: each app's fixed
    workload admits a healthy slice of the curated attack library."""
    _app_name, reports = app_reports
    assert len(reports) >= 8, sorted(reports)


def test_reports_pin_an_operation(app_reports):
    """Divergence reports must name where the lie lives: every curated
    attack's report carries at least a request/handler/key/variable
    coordinate (none are merely structural)."""
    app_name, reports = app_reports
    located = {
        name: sorted(set(doc) & {"rid", "handler", "key", "var", "tx", "cycle"})
        for name, doc in reports.items()
    }
    missing = [name for name, coords in located.items() if not coords]
    assert not missing, (app_name, missing)
