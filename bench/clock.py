"""Calibrated time: CPU seconds on the reference machine, not on this one.

On a small shared box the same pure-Python kernel swings by a third from
one minute to the next, and by a tenth within a second, so raw timings
cannot repeat within a tenth.  While a timed step runs, a pacer thread
keeps running a fixed kernel, :func:`calib`, in slices of about a
millisecond with a pause after each; the two threads take turns under the
interpreter lock every few milliseconds, so the kernel sees the machine at
the speed the step sees it.  A step is reported as

    thread CPU seconds of the step * CALIB_REF_S / mean CPU seconds per slice

which is what it would have cost had every slice taken the reference time.
Bracketing each step with the kernel before and after, which the issue
specified, left a per-repetition spread of 5 to 9 % on this box (the kernel
readings 0.15 s apart are themselves that noisy); pacing leaves 1 to 2 %.

Steps are charged their thread's CPU seconds, not wall seconds: the stores
and state directories must live inside the checkout, on whatever disk that
is, and time blocked in ``fsync`` on a shared disk is neither the program's
cost nor repeatable (a quarter of the fleet pass's wall time here, and its
noisiest part).  The factor also calibrates wall seconds measured inside a
step, which the open-loop pass needs: its latencies only exist on the wall
clock.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

# Median CPU seconds of one :func:`calib` slice on the box the benchmark
# was sized on (2 cores, CPython 3.11), quiet.  Only fixes the unit of
# calibrated seconds; changing it rescales every timed metric alike, so it
# is frozen.
CALIB_REF_S = 0.00070

# The pacer sleeps this long after each slice, so it takes about a sixth of
# the interpreter while a step computes.  Without the pause the two threads
# fight over the interpreter lock and the spread triples.
PACE_PAUSE_S = 0.004


def calib() -> None:
    """One slice of the fixed kernel: a dict/int loop (the audit's
    bookkeeping profile) plus a short SHA-256 chain (the apps'
    ``cpu_work`` profile), about a millisecond."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc ^= table[key]
    state = b"calib"
    for _ in range(250):
        state = hashlib.sha256(state).digest()


class _Pacer(threading.Thread):
    """Runs kernel slices while ``active`` is set; appends each slice's
    thread CPU seconds to ``slices``."""

    def __init__(self) -> None:
        super().__init__(name="bench-pacer", daemon=True)
        self.active = threading.Event()
        self.stopping = False
        self.slices: List[float] = []

    def run(self) -> None:
        while True:
            self.active.wait()
            if self.stopping:
                return
            started = time.thread_time()
            calib()
            self.slices.append(time.thread_time() - started)
            time.sleep(PACE_PAUSE_S)


@dataclass
class Timed:
    """One timed step: raw wall seconds, raw and calibrated CPU seconds of
    the calling thread, the factor between the two (it also calibrates
    wall seconds measured inside the step), and the step's result."""

    wall: float
    cpu: float
    seconds: float
    scale: float
    result: object


class Clock:
    """The paced stopwatch.  Use as a context manager: leaving it stops
    the pacer thread."""

    def __init__(self) -> None:
        self._pacer = _Pacer()
        self.slice_means: List[float] = []  # one per timed step
        self.timed_wall = 0.0
        self.scale = 1.0  # of the latest step: the best guess for the next

    def __enter__(self) -> "Clock":
        self._pacer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._pacer.stopping = True
        self._pacer.active.set()
        self._pacer.join(timeout=5.0)

    def run(self, steps: Sequence[Callable[[], object]]) -> List[Timed]:
        """Time ``steps`` one after another.  ``gc.collect()`` runs before
        each; GC stays enabled inside it."""
        out: List[Timed] = []
        slices = self._pacer.slices
        for step in steps:
            gc.collect()
            first = len(slices)
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            self._pacer.active.set()
            try:
                result = step()
            finally:
                self._pacer.active.clear()
            wall, cpu = time.perf_counter() - wall0, time.thread_time() - cpu0
            self.timed_wall += wall
            paced = slices[first:]
            if paced:  # a step shorter than one slice keeps the last factor
                self.slice_means.append(statistics.fmean(paced))
                self.scale = CALIB_REF_S / self.slice_means[-1]
            out.append(Timed(wall, cpu, cpu * self.scale, self.scale, result))
        return out

    @property
    def median(self) -> float:
        """Median over the timed steps of the mean CPU seconds per slice."""
        return statistics.median(self.slice_means)

    @property
    def spread(self) -> float:
        """Distance between the quartiles of the per-step slice means as a
        share of their median: how much the machine's speed wandered."""
        if len(self.slice_means) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.slice_means, n=4)
        return (q3 - q1) / self.median
