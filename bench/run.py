"""Run one workload, check every output, report every metric by name.

``--trace 0`` is the timed run: set-up (repeated, median reported), then
rounds of the end-to-end phases, each timed on the paced clock.
``--trace 1`` is the separate traced run that yields the per-layer
numbers.  Metric names, units, directions and bounds are declared once, in
``BENCHMARK.json``; a metric emitted but not declared, or declared but not
emitted, is an error.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro import advice_size_bytes
from repro.core.work import set_work_scale

from bench import ROOT, declaration
from bench.clock import CALIB_REF_S, Clock
from bench.layers import per_layer
from bench.phases import (
    Bench,
    Ops,
    differing,
    rejected,
    service_fingerprints,
    tree_bytes,
)
from bench.spans import write_trace
from bench.workloads import WORKLOADS, quick as quick_size

SCHEMA = "repro.bench/1"

SETUP_REPS = 3
# A closed-loop phase repetition takes under 2 s, so it runs 5 times; an
# open-loop pass takes over 2 s (it offers half the capacity), so 3.
CLOSED_REPS = 5
OPEN_REPS = 3
TRACED_REPS = 3  # one traced repetition runs every layer step: over 2 s


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _fs_type(path: str) -> str:
    best, fs = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _, mount, kind = line.split()[:3]
            if path.startswith(mount) and len(mount) > len(best):
                best, fs = mount, kind
    return fs


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(workdir: str, clock: Clock) -> Dict[str, object]:
    fs = _fs_type(workdir)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workdir_fs": fs,
        "tmpfs": fs == "tmpfs",
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "commit": _commit(),
        "calib_median_s": clock.median,
        "calib_ref_s": CALIB_REF_S,
    }


# -- the timed run -----------------------------------------------------------


def end_to_end(bench: Bench, clock: Clock, seconds: float, quick: bool):
    ops = bench.ops
    started = time.perf_counter()
    setups = []
    for _ in range(1 if quick else SETUP_REPS):
        setups.append(clock.run([bench.setup])[0].seconds)
    n, epochs = bench.workload.n, bench.epoch_count
    stored = tree_bytes(os.path.join(bench.workdir, "staging"))
    closed_reps, open_reps = (1, 1) if quick else (CLOSED_REPS, OPEN_REPS)

    samples: Dict[str, List[float]] = defaultdict(list)
    latencies_ms: List[float] = []
    late_ms: List[float] = []
    state = 0
    rounds = 0
    while True:
        round_started = time.perf_counter()
        # Past the minimum, a round runs every phase while the budget lasts.
        with_open = rounds < open_reps or rounds >= closed_reps
        steps = [bench.serve_unmodified, bench.serve_karousos, bench.sequential,
                 bench.solo_audit, bench.fleet_closed]
        if with_open:
            steps.append(lambda: bench.open_loop(clock.scale))
        timed = clock.run(steps)
        unmod, served, sequential, solo, fleet = timed[:5]

        samples["unmodified_s"].append(unmod.seconds)
        samples["serve_s"].append(served.seconds)
        samples["sequential_s"].append(sequential.seconds)
        samples["server_overhead_x"].append(served.seconds / unmod.seconds)
        samples["audit_s"].append(solo.seconds)
        samples["audit_speedup_x"].append(sequential.seconds / solo.seconds)
        samples["fleet_s"].append(fleet.seconds)

        runs, serve_root = served.result
        mismatched = 0
        for honest, plain in zip(runs, unmod.result):
            expected = plain.trace.responses()
            got = honest.trace.responses()
            mismatched += sum(got.get(rid) != out for rid, out in expected.items())
            mismatched += len(set(got) - set(expected))
        ops.check("Karousos response differs from unmodified", n, mismatched)
        ops.check("sequential replay saw a different trace", n, sum(
            len(set(result.outputs) ^ set(s.trace.request_ids()))
            for result, s in zip(sequential.result, bench.served)
        ))
        ops.check("honest epoch rejected by the solo auditor", epochs,
                  rejected(solo.result))
        service, state_dir = fleet.result
        fleet_prints = service_fingerprints(service)
        ops.check("honest epoch rejected on the fleet path", epochs,
                  rejected(fleet_prints))
        ops.check("fleet fingerprint differs from solo", epochs,
                  differing(fleet_prints, solo.result))
        ops.check("served store differs in size from the staged store", 1,
                  tree_bytes(serve_root) != stored)
        # The node journal holds only the epoch in flight; what it writes in
        # total is the per-layer verifier.dag.journal_bytes_per_req.
        state = tree_bytes(state_dir, skip="nodejournal")

        if with_open:
            open_pass = timed[5]
            walls, late, missing, open_service = open_pass.result
            scale = open_pass.scale
            samples["open_loop_s"].append(open_pass.wall * scale)
            latencies_ms += [w * scale * 1e3 for w in walls]
            late_ms += [w * scale * 1e3 for w in late]
            ops.check("open-loop epoch without a verdict by the deadline",
                      epochs, missing)
            ops.check("honest epoch rejected in the open loop", epochs,
                      rejected(service_fingerprints(open_service)))
        bench.sweep()
        rounds += 1
        round_cost = time.perf_counter() - round_started
        if rounds >= closed_reps and (
            time.perf_counter() - started + round_cost > seconds
        ):
            break

    metrics = {
        "setup_s": statistics.median(setups),
        "serve_rps": n / statistics.median(samples["serve_s"]),
        "server_overhead_x": statistics.median(samples["server_overhead_x"]),
        "audit_rps": n / statistics.median(samples["audit_s"]),
        "audit_speedup_x": statistics.median(samples["audit_speedup_x"]),
        "fleet_audit_rps": n / statistics.median(samples["fleet_s"]),
        "verdict_latency_p50_ms": statistics.median(latencies_ms),
        "verdict_latency_p90_ms": p90(latencies_ms),
        "advice_bytes_per_req": sum(
            advice_size_bytes(s.advice) for s in bench.served
        ) / n,
        "stored_bytes_per_req": stored / n,
        "state_bytes_per_req": state / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "requests": n,
        "epochs": epochs,
        "rounds": rounds,
        "wall_s": time.perf_counter() - started,
        "timed_s": clock.timed_wall,
        "latency_samples": len(latencies_ms),
        "loadgen_late_p90_ms": p90(late_ms),
        "rep_seconds": {
            name: statistics.median(values)
            for name, values in samples.items() if name.endswith("_s")
        },
    }
    return metrics, info


# -- the traced run ----------------------------------------------------------


def traced(bench: Bench, clock: Clock, quick: bool, trace_out: Optional[str]):
    bench.setup()
    metrics, (tracer, scale) = per_layer(
        bench, clock, 1 if quick else TRACED_REPS, quick
    )
    (open_pass,) = clock.run([lambda: bench.open_loop(clock.scale)])
    _, late, missing, _ = open_pass.result
    bench.ops.check("open-loop epoch without a verdict by the deadline",
                    bench.epoch_count, missing)
    metrics["loadgen.late_p90_ms"] = p90(late) * open_pass.scale * 1e3
    if trace_out:
        write_trace(trace_out, tracer, scale)
    info = {"requests": bench.workload.n, "epochs": bench.epoch_count,
            "spans": len(tracer.spans)}
    return metrics, info


# -- one workload ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, trace_out: Optional[str] = None):
    workload = WORKLOADS[name]
    if quick:
        workload = quick_size(workload)
    set_work_scale(workload.work_scale)
    declared = declaration()
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace else "end_to_end"]
    }
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    ops = Ops()
    bench = Bench(workload, seed, workdir, ops)
    try:
        with Clock() as clock:
            if trace:
                metrics, info = traced(bench, clock, quick, trace_out)
                metrics["machine.calib_ms"] = clock.median * 1e3
                metrics["machine.calib_spread"] = clock.spread
            else:
                metrics, info = end_to_end(
                    bench, clock, 0.0 if quick else seconds, quick
                )
            env = environment(workdir, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # unless another run uses it
        except OSError:
            pass
    if set(metrics) != set(units):
        raise RuntimeError(
            "metrics emitted and declared in BENCHMARK.json differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "env": env,
        "info": info,
        "correct": ops.failed == 0,
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        "failures": ops.failures,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }


def print_report(report: Dict[str, object]) -> None:
    """Human-readable lines, then the full report as one JSON line, then
    the line the driver reads."""
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  {json.dumps(report['info'])}")
    for key, metric in report["metrics"].items():
        print(f"  {key:44s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  ops attempted {report['ops_attempted']}  failed "
          f"{report['ops_failed']}  {'; '.join(report['failures'])}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": report["metrics"],
    }))
    sys.stdout.flush()
