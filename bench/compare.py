"""Compare two sets of benchmark reports: ``python -m bench.compare A B``.

``A`` is the parent (or the first A/A set), ``B`` the change (or the
second).  Each is a directory of report files written with ``--out``.  Per
workload and metric it prints both sets' quartiles, the pair wins, and a
status by the rules of the choosing-metrics guide:

* ``regressed``: B's median is worse than A's by more than the metric's
  bound (section 6.5);
* ``unresolved``: A's own runs spread (distance between quartiles over
  median) wider than the bound, so "unchanged" cannot be claimed -- unless
  every run of B reads better than every run of A;
* ``improved``: B wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than A's quartile distance
  (section 8);
* ``within bound`` otherwise.

Per-layer metrics have no bound: they get ``improved``, ``moved`` (the
medians differ by more than A's quartile distance) or ``same``.  Runs are
paired by seed when both sets hold the same seeds, else in file order.
The exit status is 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from bench import declaration

Runs = Dict[Tuple[str, int], List[dict]]  # (workload, trace) -> reports


def load(directory: str) -> Runs:
    runs: Runs = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            report = json.load(fh)
        runs[(report["workload"], report["trace"])].append(report)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(a: List[dict], b: List[dict]) -> List[Tuple[dict, dict]]:
    seeds_a = {r["seed"]: r for r in a}
    seeds_b = {r["seed"]: r for r in b}
    if len(seeds_a) == len(a) and set(seeds_a) == set(seeds_b):
        return [(seeds_a[s], seeds_b[s]) for s in sorted(seeds_a)]
    return list(zip(a, b))


def status(a: List[float], b: List[float], paired: List[Tuple[float, float]],
           higher: bool, bound: Optional[float]) -> Tuple[str, int, int]:
    """The row's status, B's pair wins, and the pairs that were not ties."""
    sign = 1.0 if higher else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    wins = sum(sign * (y - x) > 0 for x, y in paired)
    decided = sum(x != y for x, y in paired)
    moved = abs(med_b - med_a) > (q3 - q1)
    gain = sign * (med_b - med_a)
    if paired and gain > 0 and moved and wins >= 0.9 * len(paired):
        return "improved", wins, decided
    if bound is None:
        return ("moved" if moved else "same"), wins, decided
    if med_a and -gain / abs(med_a) > bound:
        return "regressed", wins, decided
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if med_a and (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved", wins, decided
    return "within bound", wins, decided


def compare(a_runs: Runs, b_runs: Runs) -> int:
    declared = declaration()
    specs = {
        0: {m["name"]: m for m in declared["end_to_end"]},
        1: {m["name"]: m for m in declared["per_layer"]},
    }
    regressed = 0
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        a, b = a_runs[key], b_runs[key]
        paired = pairs(a, b)
        print(f"\n{workload}  trace {trace}  A: {len(a)} runs  B: {len(b)} runs  "
              f"{len(paired)} pairs")
        print(f"  {'metric':42s} {'unit':6s} {'A q1 / median / q3':>36s} "
              f"{'B q1 / median / q3':>36s} {'B vs A':>8s} {'wins':>7s} "
              f"{'bound':>6s}  status")
        for name, spec in specs[trace].items():
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            vp = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                  for x, y in paired]
            higher = spec["better"] == "higher"
            bound = spec.get("bound")
            state, wins, decided = status(va, vb, vp, higher, bound)
            regressed += state == "regressed"
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(
                f"  {name:42s} {spec['unit']:6s} "
                f"{' / '.join(f'{q:.5g}' for q in qa):>36s} "
                f"{' / '.join(f'{q:.5g}' for q in qb):>36s} "
                f"{delta:>+8.2%} {wins:>3d}/{decided:<3d} "
                f"{'' if bound is None else format(bound, '.1%'):>6s}  {state}"
            )
        failed = sum(r["ops_failed"] for r in a + b)
        print(f"  operations failed across both sets: {failed}")
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="directory of the parent's reports")
    parser.add_argument("b", metavar="B", help="directory of the change's reports")
    args = parser.parse_args()
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())
