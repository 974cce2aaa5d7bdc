"""Experiment drivers for the paper's evaluation (section 6).

A driver serves, audits or sizes a workload and returns what it served,
audited or sized; it never reads a clock.  Where a figure plots time, the
driver hands back zero-argument callables and the figure benchmarks
(``benchmarks/``) time them on ``bench.clock``:

* :func:`serve_after_warmup` (Figure 6): serves the warm-up prefix (the
  paper warms with 120 of 600 requests) and returns the rest of the
  workload as the callable Figure 6 times.
* :func:`verification_arms` (Figure 7): the Karousos verifier, the
  Orochi-JS verifier (same audit algorithm consuming Orochi-JS advice),
  and the sequential re-executor, over one served workload.
* :func:`continuous_audit_arms` (DESIGN.md §6): the epoch-sealed
  streaming audit and the monolithic audit of one run.
* :func:`advice_sizes` (Figure 8): serialized advice bytes under both
  policies, with the variable-log share.
* :func:`streaming_memory` (DESIGN.md §8): the tracemalloc peak of the
  audit of a workload stored as many epochs and as one.

All runs are seeded and deterministic; Karousos and Orochi-JS servers see
identical schedules (the dispatch schedule depends only on the seed and
the activation structure, which policies do not affect).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advice.records import Advice
from repro.advice.sizing import advice_breakdown, advice_size_bytes
from repro.apps import app_needs_store, make_app
from repro.baselines import sequential_reexecute
from repro.baselines.sequential import SequentialResult
from repro.continuous import ContinuousAuditor, EpochSealer, EpochVerdict
from repro.kem.runtime import Runtime, ServerPolicy
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, OrochiPolicy, run_server
from repro.store.kv import IsolationLevel, KVStore
from repro.trace.trace import Request, Trace
from repro.verifier import AuditResult, audit
from repro.workload import workload_for


@dataclass(frozen=True)
class ExperimentConfig:
    app_name: str
    mix: str = "mixed"
    n_requests: int = 150
    concurrency: int = 10
    seed: int = 0
    isolation: IsolationLevel = IsolationLevel.SERIALIZABLE
    warmup_fraction: float = 0.2


def make_store(cfg: ExperimentConfig) -> Optional[KVStore]:
    if not app_needs_store(cfg.app_name):
        return None
    return KVStore(cfg.isolation)


def _workload(cfg: ExperimentConfig) -> List[Request]:
    return workload_for(cfg.app_name, cfg.n_requests, mix=cfg.mix, seed=cfg.seed)


def _runtime(cfg: ExperimentConfig, policy: ServerPolicy) -> Runtime:
    runtime = Runtime(
        make_app(cfg.app_name),
        policy,
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
    )
    policy.runtime = runtime
    return runtime


def serve(cfg: ExperimentConfig, policy: ServerPolicy) -> Tuple[Trace, Optional[Advice]]:
    """Serve the whole workload (no warm-up split); the trace and the
    policy's advice."""
    runtime = _runtime(cfg, policy)
    runtime.serve(_workload(cfg))
    return runtime.collector.trace(), policy.advice()


# -- Figure 6 ----------------------------------------------------------------


def serve_after_warmup(cfg: ExperimentConfig, policy: ServerPolicy) -> Callable[[], Trace]:
    """Serve the warm-up prefix (``cfg.warmup_fraction`` of the workload)
    and return the post-warm-up suffix as a one-shot callable."""
    requests = _workload(cfg)
    split = int(len(requests) * cfg.warmup_fraction)
    runtime = _runtime(cfg, policy)
    runtime.serve(requests[:split])
    return lambda: runtime.serve(requests[split:])


# -- Figure 7 ------------------------------------------------------------------


@dataclass
class VerificationArms:
    """One workload served under both advice policies, verified three
    ways.  Each arm re-runs its verifier from scratch when called."""

    karousos: Callable[[], AuditResult]
    orochi: Callable[[], AuditResult]
    sequential: Callable[[], SequentialResult]


def verification_arms(cfg: ExperimentConfig) -> VerificationArms:
    """Serve the full workload (the paper verifies the whole 600-request
    trace) on the Karousos and the Orochi-JS server; the sequential
    re-executor replays the Karousos trace."""
    app = cfg.app_name
    k_trace, k_advice = serve(cfg, KarousosPolicy())
    o_trace, o_advice = serve(cfg, OrochiPolicy())
    store_factory = (lambda: KVStore(cfg.isolation)) if app_needs_store(app) else None
    return VerificationArms(
        karousos=lambda: audit(make_app(app), k_trace, k_advice),
        orochi=lambda: audit(make_app(app), o_trace, o_advice),
        sequential=lambda: sequential_reexecute(make_app(app), k_trace, store_factory),
    )


# -- continuous auditing (DESIGN.md §6) ---------------------------------------


@dataclass
class ContinuousAuditArms:
    """One run sealed into epochs, audited as a stream and as a whole.

    ``first_verdict`` audits epoch 0 alone: the work a stream does before
    its first verdict lands.  ``continuous`` returns the drained auditor
    (verdict, handler count, peak pending, backpressure)."""

    epochs: int
    monolithic: Callable[[], AuditResult]
    first_verdict: Callable[[], List[EpochVerdict]]
    continuous: Callable[[], ContinuousAuditor]


def continuous_audit_arms(
    cfg: ExperimentConfig, seal_every: int, max_pending: int = 4
) -> ContinuousAuditArms:
    """Serve once with an epoch sealer every ``seal_every`` responses."""
    app = cfg.app_name
    sealer = EpochSealer(seal_every)
    run = run_server(
        make_app(app),
        _workload(cfg),
        KarousosPolicy(),
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
        sealer=sealer,
    )
    epochs = sealer.epochs

    def continuous():
        auditor = ContinuousAuditor(make_app(app), max_pending=max_pending)
        auditor.run(epochs)
        return auditor

    return ContinuousAuditArms(
        epochs=len(epochs),
        monolithic=lambda: audit(make_app(app), run.trace, run.advice),
        first_verdict=lambda: ContinuousAuditor(make_app(app)).run(epochs[:1]),
        continuous=continuous,
    )


# -- Figure 8 ---------------------------------------------------------------------


@dataclass
class AdviceSizes:
    karousos_bytes: int
    orochi_bytes: int
    karousos_breakdown: Dict[str, int] = field(default_factory=dict)
    orochi_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def variable_log_share(self) -> float:
        total = self.karousos_bytes or 1
        return self.karousos_breakdown.get("variable_logs", 0) / total


def advice_sizes(cfg: ExperimentConfig) -> AdviceSizes:
    _, k_advice = serve(cfg, KarousosPolicy())
    _, o_advice = serve(cfg, OrochiPolicy())
    return AdviceSizes(
        karousos_bytes=advice_size_bytes(k_advice),
        orochi_bytes=advice_size_bytes(o_advice),
        karousos_breakdown=advice_breakdown(k_advice),
        orochi_breakdown=advice_breakdown(o_advice),
    )


# -- streaming memory (DESIGN.md §8) ---------------------------------------------


@dataclass
class StreamingMemoryComparison:
    """Continuous audit of a run stored as many epochs vs the same
    workload stored as one epoch.  ``*_peak_bytes`` are tracemalloc peaks
    of the audit phase (deterministic, interpreter baseline excluded)."""

    seal_every: int
    epochs: int
    trace_events: int
    streamed_peak_bytes: int
    monolithic_peak_bytes: int
    streamed_accepted: bool
    monolithic_accepted: bool

    @property
    def verdicts_match(self) -> bool:
        return self.streamed_accepted == self.monolithic_accepted


def serve_to_store(cfg: ExperimentConfig, seal_every: int, root: str) -> int:
    """Serve once, persisting the sealed epoch streams to a file backend
    at ``root`` (``seal_every=0``: the whole run as one epoch); returns
    the epoch count."""
    from repro.continuous.codec import write_epoch_stored
    from repro.storage import FileBackend

    backend = FileBackend(root)
    sealer = EpochSealer(seal_every, sink=lambda e: write_epoch_stored(backend, e))
    run_server(
        make_app(cfg.app_name),
        _workload(cfg),
        KarousosPolicy(),
        store=make_store(cfg),
        scheduler=RandomScheduler(cfg.seed),
        concurrency=cfg.concurrency,
        sealer=sealer,
    )
    return len(sealer.epochs)


def _audit_stored(app_name: str, root: str) -> bool:
    from repro.continuous import iter_epochs_stored
    from repro.storage import FileBackend

    auditor = ContinuousAuditor(make_app(app_name))
    auditor.run(iter_epochs_stored(FileBackend(root)))
    return auditor.accepted


def _traced_peak(fn) -> Tuple[int, bool]:
    import tracemalloc

    tracemalloc.start()
    try:
        accepted = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, accepted


def streaming_memory(
    cfg: ExperimentConfig, seal_every: int, root: str
) -> StreamingMemoryComparison:
    """Serve the workload to two file stores under ``root``: sealed
    every ``seal_every`` responses, and whole as one epoch (the
    monolithic arm).  Audit each through the same
    :class:`ContinuousAuditor`, which reads ``iter_epochs_stored``
    lazily, and record the audit phase's peak memory: the streamed peak
    tracks the epoch size, the monolithic one the whole decoded run."""
    streamed = os.path.join(root, "streamed")
    monolithic = os.path.join(root, "monolithic")
    epochs = serve_to_store(cfg, seal_every, streamed)
    serve_to_store(cfg, 0, monolithic)
    streamed_peak, streamed_ok = _traced_peak(
        lambda: _audit_stored(cfg.app_name, streamed)
    )
    mono_peak, mono_ok = _traced_peak(
        lambda: _audit_stored(cfg.app_name, monolithic)
    )
    return StreamingMemoryComparison(
        seal_every=seal_every,
        epochs=epochs,
        trace_events=2 * cfg.n_requests,
        streamed_peak_bytes=streamed_peak,
        monolithic_peak_bytes=mono_peak,
        streamed_accepted=streamed_ok,
        monolithic_accepted=mono_ok,
    )
