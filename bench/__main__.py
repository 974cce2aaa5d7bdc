"""``python -m bench``: every workload, every output checked, every metric
printed by name with its unit.

With ``--workload`` it runs that one workload in this process and ends its
output with the one JSON line the driver reads; without, it runs each
workload in a subprocess of its own (so ``peak_rss_mb`` is per workload).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from bench import ROOT

HASH_SEED = "0"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=13,
                        help="feeds the request generators and the schedulers")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget; the minimum repetitions always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write Chrome trace-event JSON and "
                        "the self-time table here")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report JSON here (bench.compare input)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition, timed and traced runs")
    return parser


def _one(args) -> int:
    import json

    from bench.run import print_report, run_workload
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick, args.trace_out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
            fh.write("\n")
    print_report(report)
    return 0 if report["correct"] else 1


def _all(args) -> int:
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in ((0, 1) if args.quick else (args.trace,)):
            command = [sys.executable, "-m", "bench", "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def main() -> int:
    args = _parser().parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro beside bench/; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Byte and count metrics must repeat exactly: fix the hash seed and
        # start over.  exec replaces this process, so nothing is left behind.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], env)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return _one(args) if args.workload else _all(args)


if __name__ == "__main__":
    sys.exit(main())
