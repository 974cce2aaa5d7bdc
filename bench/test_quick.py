"""Smoke tests of the benchmark itself, on ``--quick`` sizes.

Run with ``python -m pytest bench/test_quick.py`` from the repository root
(the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import ROOT, declaration

sys.path.insert(0, os.path.join(ROOT, "src"))  # bench.workloads imports repro

DECLARED = declaration()
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
KINDS = {0: "end_to_end", 1: "per_layer"}
EXACT_UNITS = {"B", "count"}  # byte and count metrics repeat exactly ...
# ... but for the node journal, which embeds each verdict's elapsed_seconds:
# the length of that float's repr varies by a byte or two.
TIMING_TAINTED = {"verifier.dag.journal_bytes_per_req"}


def quick(workload: str, trace: int, seed: int = 13):
    """One quick run; returns (full report, the driver's last line)."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--quick",
         "--trace", str(trace), "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def reports():
    return {(w, t): quick(w, t) for w in WORKLOADS for t in KINDS}


def test_workloads_match_the_declaration():
    from bench.workloads import WORKLOADS as defined

    assert list(defined) == WORKLOADS
    for spec in DECLARED["workloads"]:
        assert defined[spec["name"]].why == spec["why"]


@pytest.mark.parametrize("trace", KINDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(reports, workload, trace):
    report, last = reports[(workload, trace)]
    declared = {m["name"]: m["unit"] for m in DECLARED[KINDS[trace]]}
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert last["metrics"] == report["metrics"]
    assert set(last["metrics"]) == set(declared)
    for name, metric in last["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    assert report["ops_attempted"] == last["attempted"]


def test_end_to_end_metrics_are_never_zero(reports):
    for workload in WORKLOADS:
        for name, metric in reports[(workload, 0)][1]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_env_block(reports):
    env = reports[(WORKLOADS[0], 0)][0]["env"]
    assert env["nproc"] >= 1
    assert env["python"].count(".") == 2
    assert isinstance(env["tmpfs"], bool)
    assert env["hash_seed"] == "0"
    assert env["commit"]
    assert env["calib_median_s"] > 0


@pytest.mark.parametrize("trace", KINDS)
def test_bytes_and_counts_repeat_under_a_seed_and_move_with_it(reports, trace):
    workload = WORKLOADS[0]

    def exact(report):
        return {name: m["value"] for name, m in report["metrics"].items()
                if m["unit"] in EXACT_UNITS and name not in TIMING_TAINTED}

    first = exact(reports[(workload, trace)][0])
    assert first
    assert exact(quick(workload, trace)[0]) == first
    assert exact(quick(workload, trace, seed=14)[0]) != first


def test_compare_reads_two_sets(reports, tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for (workload, trace), (report, _) in reports.items():
            path = tmp_path / side / f"{workload}-{trace}.json"
            path.write_text(json.dumps(report))
    done = subprocess.run(
        [sys.executable, "-m", "bench.compare", str(tmp_path / "a"),
         str(tmp_path / "b")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for workload in WORKLOADS:
        assert workload in done.stdout
    assert "regressed" not in done.stdout
