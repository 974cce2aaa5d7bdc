"""Rows shared by the figure benchmarks, and the three-panel driver for
the appendix figures (Figures 9-12).

Each appendix figure shows, for one application/workload pair, the same
three panels as Figures 6-8: (a) server processing time, (b) verification
time, (c) advice size.  The harness drives each phase; the rows here time
it on the session clock and report median calibrated seconds.
"""

from __future__ import annotations

import statistics

from repro.harness import print_series
from repro.harness.experiment import (
    ExperimentConfig,
    advice_sizes,
    serve_after_warmup,
    verification_arms,
)
from repro.server import KarousosPolicy, UnmodifiedPolicy

PANEL_A = ["concurrency", "unmodified_s", "karousos_s", "overhead_x"]
PANEL_B = ["concurrency", "karousos_s", "orochi_s", "sequential_s", "karousos_groups", "orochi_groups"]
PANEL_C = ["concurrency", "karousos_KiB", "orochi_KiB", "k_over_o"]


def configs(scale, app: str, mix: str):
    """One config per concurrency level of the sweep."""
    return [
        ExperimentConfig(app, mix=mix, n_requests=scale.n_requests, concurrency=conc, seed=0)
        for conc in scale.concurrency_sweep
    ]


def median_seconds(clock, make_steps, repeats: int):
    """Time the steps ``make_steps()`` returns, in order, ``repeats``
    rounds over; each step's median calibrated seconds, and the last
    round's results."""
    rounds = [clock.run(make_steps()) for _ in range(repeats)]
    seconds = [statistics.median(r[i].seconds for r in rounds) for i in range(len(rounds[0]))]
    return seconds, [timed.result for timed in rounds[-1]]


def groups(result) -> int:
    return int(result.stats.get("groups", 0))


def server_row(clock, cfg: ExperimentConfig, repeats: int) -> dict:
    """Figure 6: the post-warm-up suffix on the unmodified and the
    Karousos server, each round from a fresh warm-up."""
    (unmodified, karousos), _ = median_seconds(
        clock,
        lambda: [serve_after_warmup(cfg, UnmodifiedPolicy()),
                 serve_after_warmup(cfg, KarousosPolicy())],
        repeats,
    )
    return {
        "concurrency": cfg.concurrency,
        "unmodified_s": unmodified,
        "karousos_s": karousos,
        "overhead_x": karousos / unmodified,
    }


def verification_row(clock, cfg: ExperimentConfig, repeats: int) -> dict:
    """Figure 7: the three verifiers over one served workload."""
    arms = verification_arms(cfg)
    (k_s, o_s, seq_s), (k, o, _) = median_seconds(
        clock, lambda: [arms.karousos, arms.orochi, arms.sequential], repeats
    )
    assert k.accepted and o.accepted, "honest runs must verify"
    return {
        "concurrency": cfg.concurrency,
        "karousos_s": k_s,
        "orochi_s": o_s,
        "sequential_s": seq_s,
        "karousos_groups": groups(k),
        "orochi_groups": groups(o),
    }


def advice_row(cfg: ExperimentConfig) -> dict:
    """Figure 8: advice bytes under both policies."""
    s = advice_sizes(cfg)
    return {
        "concurrency": cfg.concurrency,
        "karousos_KiB": s.karousos_bytes / 1024,
        "orochi_KiB": s.orochi_bytes / 1024,
        "k_over_o": s.karousos_bytes / s.orochi_bytes,
        "var_log_share": s.variable_log_share,
    }


def run_panels(clock, scale, app: str, mix: str):
    """Compute the three panels across the concurrency sweep."""
    cfgs = configs(scale, app, mix)
    return (
        [server_row(clock, cfg, scale.repeats) for cfg in cfgs],
        [verification_row(clock, cfg, scale.repeats) for cfg in cfgs],
        [advice_row(cfg) for cfg in cfgs],
    )


def print_panels(figure: str, label: str, panels) -> None:
    a_rows, b_rows, c_rows = panels
    print_series(f"{figure}a ({label}): server processing time", a_rows, PANEL_A)
    print_series(f"{figure}b ({label}): verification time", b_rows, PANEL_B)
    print_series(f"{figure}c ({label}): advice size", c_rows, PANEL_C)


def median_overhead(rows) -> float:
    """Noise-robust shape check: the sweep's median overhead factor."""
    xs = sorted(r["overhead_x"] for r in rows)
    return xs[len(xs) // 2]


def assert_common_shape(panels) -> None:
    """Shape invariants shared by every appendix figure: advice collection
    costs something, honest runs verify, Karousos never groups more
    batches than Orochi-JS, and never ships more advice."""
    a_rows, b_rows, c_rows = panels
    assert median_overhead(a_rows) > 1.0, "median overhead factor"
    assert all(r["karousos_groups"] <= r["orochi_groups"] for r in b_rows)
    assert all(r["k_over_o"] <= 1.02 for r in c_rows)
