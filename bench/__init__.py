"""The repository's one benchmark: serve -> seal -> verdict, in calibrated
time, on three workloads, with a per-layer trace.  See ``bench/README.md``.
"""

import json
import os
from typing import Dict

from bench.clock import CALIB_REF_S, calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declaration() -> Dict[str, object]:
    """``BENCHMARK.json``: the one place that names every workload and
    metric with its unit, direction and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


__all__ = ["CALIB_REF_S", "ROOT", "calib", "declaration"]
