"""Continuous (epoch-sealed) audit vs the monolithic audit on the
Figure 7 wiki workload, swept over epoch size.

Continuous auditing trades nothing on verdicts -- every point must match
the monolithic audit and re-execute exactly the same handler count --
and buys *latency* and *footprint*: the first verdict lands after one
epoch's audit instead of the whole trace's, and the bounded pending
queue keeps resident epochs O(max_pending) instead of O(trace).  Both
are asserted: time-to-first-verdict must shrink as epochs shrink, and
peak resident epochs must respect the queue bound at every sweep point.
"""

from __future__ import annotations

from benchmarks.panels import median_seconds
from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig, continuous_audit_arms

COLUMNS = [
    "seal_every",
    "epochs",
    "ttfv_s",
    "continuous_s",
    "monolithic_s",
    "peak_pending",
    "backpressure",
    "verdicts_ok",
    "handlers_ok",
]

MAX_PENDING = 4


def _row(clock, cfg, seal_every, repeats):
    arms = continuous_audit_arms(cfg, seal_every, max_pending=MAX_PENDING)
    (ttfv, cont_s, mono_s), (_, auditor, mono) = median_seconds(
        clock, lambda: [arms.first_verdict, arms.continuous, arms.monolithic], repeats
    )
    stats = auditor.stats()
    return {
        "seal_every": seal_every,
        "epochs": arms.epochs,
        "ttfv_s": ttfv,
        "continuous_s": cont_s,
        "monolithic_s": mono_s,
        "peak_pending": int(stats["peak_pending"]),
        "backpressure": int(stats["backpressure_events"]),
        "verdicts_ok": mono.accepted and auditor.accepted,
        "handlers_ok": stats["handlers_executed"]
        == mono.stats.get("handlers_executed", -1),
    }


def test_continuous_audit_epoch_sweep_wiki(clock, scale):
    cfg = ExperimentConfig(
        "wiki", mix="mixed", n_requests=scale.n_requests, concurrency=15, seed=0
    )
    seal_everys = [5, 15, 60] if not scale.full else [5, 15, 60, 150]
    rows = [_row(clock, cfg, seal_every, scale.repeats) for seal_every in seal_everys]
    print_series("Continuous audit epoch sweep (Wiki.js, Fig. 7 workload)", rows, COLUMNS)

    for r in rows:
        assert r["verdicts_ok"], (
            f"seal_every={r['seal_every']} diverged from monolithic verdict"
        )
        assert r["handlers_ok"], (
            f"seal_every={r['seal_every']} re-executed a different handler count"
        )
        # Backpressure bound: resident epochs never exceed the queue cap.
        assert r["peak_pending"] <= MAX_PENDING

    # Finer epochs -> earlier first verdict.  Compare the finest sweep
    # point against the coarsest (which audits nearly the whole trace in
    # its first epoch); a 3x epoch-count gap must show up in latency.
    finest, coarsest = rows[0], rows[-1]
    assert finest["epochs"] > coarsest["epochs"]
    assert finest["ttfv_s"] < coarsest["ttfv_s"], (
        f"time-to-first-verdict did not improve: "
        f"{finest['ttfv_s']:.3f}s at seal_every={finest['seal_every']} vs "
        f"{coarsest['ttfv_s']:.3f}s at seal_every={coarsest['seal_every']}"
    )
