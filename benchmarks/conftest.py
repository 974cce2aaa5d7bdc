"""Shared configuration for the figure-reproduction benchmarks.

By default the benchmarks run a scaled-down sweep so the whole suite
completes in a couple of minutes.  Set ``KAROUSOS_BENCH_FULL=1`` for the
paper's scale: 600 requests, concurrency swept over {1, 15, 30, 45, 60}
(the paper sweeps 1-60), warmup 120/600 for server-overhead runs.

Every timed quantity is calibrated seconds on one session-wide
:class:`bench.clock.Clock` (the ``clock`` fixture); a timed row reports
the median over ``scale.repeats`` repetitions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import pytest

from bench.clock import Clock


@dataclass(frozen=True)
class BenchScale:
    n_requests: int
    concurrency_sweep: List[int]
    repeats: int
    full: bool


def _scale() -> BenchScale:
    if os.environ.get("KAROUSOS_BENCH_FULL") == "1":
        return BenchScale(600, [1, 15, 30, 45, 60], 5, True)
    return BenchScale(240, [1, 15, 30], 3, False)


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return _scale()


@pytest.fixture(scope="session")
def clock():
    with Clock() as paced:
        yield paced


@pytest.fixture
def work_scale():
    """Scale every app's ``cpu_work`` compute for one benchmark without
    editing app code.  Returns a context manager factory:

    ``with work_scale(4.0): serve_and_audit(...)``

    The scale rides on an environment variable so audit worker processes
    inherit it; serve and audit must happen inside the same ``with`` block
    (re-execution with a different scale changes every digest).
    """
    from repro.core.work import scaled_work

    return scaled_work
