"""Static conflict analysis: analyzer cost and scheduling payoff
(DESIGN.md §12).

Two measurements back the static-hints design:

1. The effect analyzer itself is cheap -- a one-time whole-app pass,
   measured here per bundled app.  It runs once per Auditor (or once per
   ContinuousAuditor across all epochs), so milliseconds suffice.

2. The payoff on the scheduler: on a Zipf-shaped wiki workload every
   render group updates the shared accounting variables, so the
   *footprint* partition (which only sees the advice's read/write sets)
   serialises the whole audit into one wave per group.  The *static*
   partition knows ``ctx.update`` RMWs commute and collapses the same
   workload into a single wave.  The wave-count gap is asserted
   unconditionally; the wall-clock speedup at ``--jobs 2`` is gated on
   having real parallel hardware, and the verdict is asserted
   byte-identical either way (hints steer scheduling, never outcomes).

Results land in ``BENCH_static_conflicts.json`` at the repo root as a
tracked baseline.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import List

from repro.analysis.effects import StaticHints, analyze_effects
from repro.apps import wiki_app
from repro.core.ids import make_rid
from repro.harness import print_series
from repro.harness.experiment import make_app
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import Auditor
from repro.verifier.parallel import compute_waves
from repro.verifier.preprocess import preprocess

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_static_conflicts.json"
)

ANALYZER_COLUMNS = ["app", "analyze_seconds", "routes", "conflict_pairs"]
AUDIT_COLUMNS = ["arm", "waves", "audit_seconds", "speedup"]

APPS = ["motd", "stacks", "wiki", "feed"]

WORK_SCALE = 8.0
SEED = 2024
JOBS = 2


def skewed_workload(n: int, pages: int = 6, seed: int = SEED) -> List[Request]:
    """The Zipf-like wiki mix from the dedup benchmark: a small write
    prefix creates the page pool, then 1/rank-popularity render traffic."""
    rng = random.Random(seed)
    out = []
    titles = []
    for i in range(pages):
        title = f"Hot_{i}"
        titles.append(title)
        out.append(
            Request.make(
                make_rid(i), "create_page",
                title=title, content=f"Contents of {title}.",
            )
        )
    weights = [1.0 / rank for rank in range(1, pages + 1)]
    for i in range(pages, n):
        title = rng.choices(titles, weights=weights)[0]
        out.append(Request.make(make_rid(i), "render", title=title))
    return out


def _time_analyzer(app_name: str, repeats: int = 5):
    app = make_app(app_name)
    best = float("inf")
    effects = None
    for _ in range(repeats):
        start = time.perf_counter()
        effects = analyze_effects(app)
        best = min(best, time.perf_counter() - start)
    return best, effects


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _timed_audit(run, partition, hints):
    auditor = Auditor(
        wiki_app(), run.trace, run.advice,
        parallelism=JOBS, scheduler="process",
        partition=partition, hints=hints,
    )
    start = time.perf_counter()
    result = auditor.run()
    elapsed = time.perf_counter() - start
    assert result.accepted, result.reason
    return result, elapsed


def _measure(scale, work_scale):
    n = max(60, scale.n_requests // 4)
    with work_scale(WORK_SCALE):
        run = run_server(
            wiki_app(),
            skewed_workload(n),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(SEED),
            concurrency=8,
        )
        hints = StaticHints.from_app(wiki_app())
        state = preprocess(wiki_app(), run.trace, run.advice)
        groups = run.advice.groups()
        fp_waves = compute_waves(state, groups, partition="footprint")
        st_waves = compute_waves(
            state, groups, partition="static", hints=hints
        )
        fp_result, fp_seconds = _timed_audit(run, "footprint", None)
        st_result, st_seconds = _timed_audit(run, "static", hints)
    return {
        "n": n,
        "groups": len(groups),
        "fp_waves": len(fp_waves),
        "st_waves": len(st_waves),
        "fp_result": fp_result,
        "st_result": st_result,
        "fp_seconds": fp_seconds,
        "st_seconds": st_seconds,
    }


def test_static_conflict_analysis(benchmark, scale, work_scale):
    analyzer_rows = []
    analyzer_doc = {}
    for app_name in APPS:
        seconds, effects = _time_analyzer(app_name)
        pairs = sum(1 for c in effects.conflicts.values() if c.conflicts)
        analyzer_rows.append(
            {
                "app": app_name,
                "analyze_seconds": seconds,
                "routes": len(effects.routes),
                "conflict_pairs": pairs,
            }
        )
        analyzer_doc[app_name] = {
            "analyze_seconds": seconds,
            "routes": len(effects.routes),
            "conflict_pairs": pairs,
        }
    print_series(
        "Effect analyzer runtime (best of 5)", analyzer_rows, ANALYZER_COLUMNS
    )
    # One-time cost: well under a second per app, even on slow CI.
    for row in analyzer_rows:
        assert row["analyze_seconds"] < 1.0, row

    m = benchmark.pedantic(
        lambda: _measure(scale, work_scale), rounds=1, iterations=1
    )

    # Hints never change the verdict: byte-identical outcome and stats.
    fp, st = m["fp_result"], m["st_result"]
    assert (st.accepted, st.reason, st.detail) == (
        fp.accepted, fp.reason, fp.detail,
    )
    assert _strip(st.stats) == _strip(fp.stats)

    # The structural claim, deterministic on any host: the footprint
    # policy serialises the shared-counter updates, the static matrix
    # knows they commute and collapses the plan to a single wave.
    assert m["st_waves"] == 1, m
    assert m["fp_waves"] == m["groups"], m
    assert m["fp_waves"] > m["st_waves"]

    speedup = (
        m["fp_seconds"] / m["st_seconds"]
        if m["st_seconds"] > 0 else float("inf")
    )
    rows = [
        {"arm": "footprint", "waves": m["fp_waves"],
         "audit_seconds": m["fp_seconds"], "speedup": 1.0},
        {"arm": "static", "waves": m["st_waves"],
         "audit_seconds": m["st_seconds"], "speedup": speedup},
    ]
    print_series(
        f"Parallel audit partitioning, skewed wiki workload "
        f"(n={m['n']}, jobs={JOBS}, work x{WORK_SCALE:g})",
        rows, AUDIT_COLUMNS,
    )

    cores = os.cpu_count() or 1
    if cores >= 2:
        assert speedup >= 1.1, (m["fp_seconds"], m["st_seconds"])
    else:
        print(
            f"single-core host: recorded {speedup:.2f}x without asserting "
            "a ratio (no parallel hardware)"
        )

    doc = {
        "analyzer": analyzer_doc,
        "partitioning": {
            "app": "wiki",
            "workload": "zipf-render",
            "n_requests": m["n"],
            "jobs": JOBS,
            "work_scale": WORK_SCALE,
            "seed": SEED,
            "groups": m["groups"],
            "footprint_waves": m["fp_waves"],
            "static_waves": m["st_waves"],
            "footprint_seconds": m["fp_seconds"],
            "static_seconds": m["st_seconds"],
            "speedup": speedup,
        },
    }
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
