"""Ablation: tree-based vs sequence-based re-execution grouping.

Karousos batches requests that induce the same *tree* of handlers
(section 4.1); Orochi-JS batches only identical handler *sequences*.
The more concurrently activated sibling handlers get reordered, the more
groups sequence-based batching splinters into -- this is the design
decision section 6.2 credits for Karousos's stacks speedup.

The stack-dump ``list`` request fans out one GET per known digest, so its
siblings permute freely under concurrency: the group-count gap widens as
concurrency rises.  Group counts are deterministic: nothing here is timed.
"""

from __future__ import annotations

from benchmarks.panels import configs, groups
from repro.harness import print_series
from repro.harness.experiment import ExperimentConfig, verification_arms

COLUMNS = ["concurrency", "karousos_groups", "orochi_groups", "split_factor"]


def _groups(cfg):
    arms = verification_arms(cfg)
    return groups(arms.karousos()), groups(arms.orochi())


def test_grouping_granularity(scale):
    rows = []
    for cfg in configs(scale, "stacks", "read-heavy"):
        karousos, orochi = _groups(cfg)
        rows.append(
            {
                "concurrency": cfg.concurrency,
                "karousos_groups": karousos,
                "orochi_groups": orochi,
                "split_factor": orochi / karousos,
            }
        )
    print_series("Ablation: grouping granularity (stacks, 90% reads)", rows, COLUMNS)
    assert all(r["karousos_groups"] <= r["orochi_groups"] for r in rows)
    assert any(r["split_factor"] > 1.0 for r in rows), (
        "sibling reordering must split sequence-based groups somewhere"
    )


def test_grouping_equal_without_reordering(scale):
    """Control: with a single handler per request (MOTD) there is nothing
    to reorder and the two grouping schemes coincide exactly."""
    karousos, orochi = _groups(ExperimentConfig(
        "motd",
        mix="mixed",
        n_requests=scale.n_requests,
        concurrency=scale.concurrency_sweep[-1],
    ))
    print(f"\nMOTD groups: karousos={karousos} orochi={orochi}")
    assert karousos == orochi
