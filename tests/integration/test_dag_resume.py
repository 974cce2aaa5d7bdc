"""End-to-end crash/resume of an audit killed with SIGKILL.

A wiki audit (compute scaled up via :data:`~repro.core.work.WORK_SCALE_ENV`
so re-execution takes long enough to interrupt) runs as a real ``repro
audit --node-journal`` subprocess and is SIGKILLed once the
node journal holds some completions but before the verdict lands.  The
resumed run must accept with the same statistics as an uninterrupted
audit, replaying the journaled re-execution nodes (``reexec.nodes_resumed``)
and executing only the remaining frontier (``reexec.nodes_executed``).

The exhaustive kill-at-every-journal-record sweep (in-process, simulated
kill) lives in tests/unit/test_dag_scheduler.py; this test is the real
``kill -9`` on a real process tree.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.advice.codec import read_advice
from repro.core.work import WORK_SCALE_ENV, scaled_work
from repro.storage import backend_for

SCALE = 60.0


@pytest.fixture(scope="module")
def served_files(served_store, tmp_path_factory):
    # The compute scale changes the hash chains, so serve and audit must
    # run under the identical scale.
    with scaled_work(SCALE):
        store = served_store(
            "wiki", "--requests", "14", "--seed", "23", "--concurrency", "5"
        )
    advice = read_advice(backend_for("file", str(store)), "advice")
    tmp = tmp_path_factory.mktemp("dagresume")
    return tmp, str(store), len(advice.groups())


def _audit_cmd(store, journal_dir, *extra):
    return [
        sys.executable, "-m", "repro", "audit", "--app", "wiki",
        "--store-path", store,
        "--node-journal", journal_dir,
        "--format", "json", *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), *
                                     [os.pardir] * 2, "src")
    env[WORK_SCALE_ENV] = repr(SCALE)
    return env


def _journal_bytes(journal_dir):
    return sum(
        os.path.getsize(p)
        for p in glob.glob(os.path.join(journal_dir, "nodes*"))
    )


def test_sigkill_mid_audit_resumes_from_the_node_journal(served_files):
    tmp, store, groups = served_files
    journal_dir = str(tmp / "nodejournal")
    metrics_out = str(tmp / "metrics.json")

    proc = subprocess.Popen(
        _audit_cmd(store, journal_dir),
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Kill as soon as the journal holds a useful prefix: past the header
    # and the three cheap stage records, i.e. mid-reexec.
    deadline = time.monotonic() + 120
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if _journal_bytes(journal_dir) > 2048:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.002)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == 0:
        pytest.skip("audit finished before the kill landed; scale too low")
    assert proc.returncode == -signal.SIGKILL

    resumed = subprocess.run(
        _audit_cmd(store, journal_dir, "--resume",
                   "--metrics-out", metrics_out),
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert resumed.returncode == 0, resumed.stderr
    doc = json.loads(resumed.stdout)
    assert doc["accepted"], doc
    assert doc["stats"]["groups"] == groups

    counters = json.load(open(metrics_out))["counters"]
    resumed_nodes = counters.get("reexec.nodes_resumed", 0)
    executed = counters.get("reexec.nodes_executed", 0)
    # The journaled prefix replays; only the frontier re-executes.
    assert resumed_nodes > 0, counters
    assert resumed_nodes + executed == groups, counters
    assert executed < groups, counters

    # The resumed journal now carries the verdict: a third run replays
    # the whole epoch without re-executing anything.
    replay = subprocess.run(
        _audit_cmd(store, journal_dir, "--resume",
                   "--metrics-out", metrics_out),
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert replay.returncode == 0, replay.stderr
    counters = json.load(open(metrics_out))["counters"]
    assert counters.get("reexec.nodes_executed", 0) == 0
    assert json.loads(replay.stdout)["accepted"]


def test_unkilled_run_matches_resumed_stats(served_files):
    tmp, store, groups = served_files
    journal_dir = str(tmp / "nodejournal-clean")
    clean = subprocess.run(
        _audit_cmd(store, journal_dir),
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert clean.returncode == 0, clean.stderr
    doc = json.loads(clean.stdout)
    assert doc["accepted"]
    assert doc["stats"]["groups"] == groups
