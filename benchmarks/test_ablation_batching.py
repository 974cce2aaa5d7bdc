"""Ablation: batching benefit vs trace length.

Section 6.2 (last paragraph): 'the speedup of Karousos ... improves as we
increase the number of requests being verified ... the more requests, the
more opportunities for batching.'  Group count grows sublinearly in the
number of requests, so the per-request share of group-constant work
(dispatch, deduplicated instructions) keeps shrinking.
"""

from __future__ import annotations

from benchmarks.panels import groups, median_seconds
from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig, verification_arms

COLUMNS = ["n_requests", "groups", "requests_per_group", "karousos_s", "ms_per_request"]


def test_batching_scales_with_trace_length(clock, scale):
    sizes = [60, 120, 240] if not scale.full else [150, 300, 600]
    rows = []
    for n in sizes:
        arms = verification_arms(
            ExperimentConfig("wiki", n_requests=n, concurrency=10, seed=0)
        )
        (seconds,), (result,) = median_seconds(
            clock, lambda: [arms.karousos], scale.repeats
        )
        rows.append(
            {
                "n_requests": n,
                "groups": groups(result),
                "requests_per_group": n / groups(result),
                "karousos_s": seconds,
                "ms_per_request": 1000 * seconds / n,
            }
        )
    print_series("Ablation: batching vs trace length (wiki)", rows, COLUMNS)
    # Groups grow sublinearly: the average group gets denser.
    assert rows[-1]["requests_per_group"] > rows[0]["requests_per_group"]
