"""Convenience driver: serve a workload and collect (trace, advice, time).

The benchmark harness and integration tests all funnel through
:func:`run_server`, which wires an application, a policy, a store, and a
scheduler into a KEM runtime and times the serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.advice.records import Advice
from repro.kem.program import AppSpec
from repro.kem.runtime import Runtime, ServerPolicy
from repro.kem.scheduler import RandomScheduler, Scheduler
from repro.obs import MetricsRegistry
from repro.store.kv import KVStore
from repro.trace.trace import Request, Trace


@dataclass
class ServerRun:
    trace: Trace
    advice: Optional[Advice]
    elapsed_seconds: float
    store: Optional[KVStore]
    runtime: Runtime


def run_server(
    app: AppSpec,
    requests: List[Request],
    policy: ServerPolicy,
    store: Optional[KVStore] = None,
    scheduler: Optional[Scheduler] = None,
    concurrency: int = 1,
    sealer: Optional[object] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServerRun:
    """Serve ``requests`` and return the trace, advice, and wall-clock time.

    ``sealer`` (an :class:`repro.continuous.sealer.EpochSealer`) attaches
    to the runtime before serving and flushes the tail epoch after, so the
    returned run's stream has been fully sealed.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) is handed to the runtime's
    dispatch loop (observe-only)."""
    runtime = Runtime(
        app,
        policy,
        store=store,
        scheduler=scheduler or RandomScheduler(seed=0),
        concurrency=concurrency,
        metrics=metrics,
    )
    # Give advice-collecting policies access to the store's binlog.
    policy.runtime = runtime
    if sealer is not None:
        sealer.attach(runtime)
    start = time.perf_counter()
    trace = runtime.serve(requests)
    if sealer is not None:
        sealer.flush()
    elapsed = time.perf_counter() - start
    return ServerRun(
        trace=trace,
        advice=policy.advice(),
        elapsed_seconds=elapsed,
        store=store,
        runtime=runtime,
    )
