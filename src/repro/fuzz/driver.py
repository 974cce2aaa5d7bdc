"""The fuzz campaign driver: properties, corpus, and minimisation.

Two end-to-end properties over the bundled apps:

* **soundness** -- serve an honest workload, apply one schema-derived
  mutation (:mod:`repro.fuzz.surface`), audit the tampered pair.  A
  *guaranteed* mutation that ACCEPTs is an **escape**: concrete evidence
  that an audit check is missing or too weak.  Opportunistic mutations
  may accept (they can be semantically neutral); their verdicts are
  tallied but never escalate.
* **completeness** -- serve an honest workload and audit it unmutated
  through every engine configuration (``driver``: grouped,
  singleton-group, shuffled schedule, continuous) and storage backend (direct
  objects, memory, file, gzip record streams).  Any REJECT of an honest run is a **failure** of the
  audit's completeness guarantee.

Hypothesis drives both: a failing case shrinks to the smallest workload
and mutation that still violates the property (fewest requests, lowest
concurrency, first operator in schema order), and the minimal reproducer
is written to the corpus directory as JSON.  Campaign runs replay the
corpus *first*, so past escapes act as regression tests before new
random exploration starts.

Honest runs are memoised per :class:`WorkloadCase` -- the fuzzer redraws
many mutations per workload, and serving dominates wall-clock.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from repro.advice.codec import read_advice, write_advice
from repro.advice.records import Advice
from repro.core.digest import value_digest
from repro.fuzz.strategies import (
    APPS,
    OP_NAMES,
    CompletenessCase,
    MutationCase,
    WorkloadCase,
    case_from_json,
    completeness_cases,
    mutation_cases,
)
from repro.fuzz.surface import MutationNotApplicable, mutation_surface
from repro.harness.experiment import make_app
from repro.kem.scheduler import RandomScheduler
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.codec import read_trace, write_trace
from repro.trace.trace import Trace
from repro.verifier import Auditor
from repro.workload import workload_for

_OPS = {op.name: op for op in mutation_surface()}


class EscapeFound(AssertionError):
    """A property violation; hypothesis shrinks these, so the instance
    that finally propagates carries the *minimal* failing case."""

    def __init__(self, case, detail: str):
        self.case = case
        self.detail = detail
        super().__init__(f"{detail}: {case}")


@lru_cache(maxsize=48)
def serve_case(case: WorkloadCase) -> Tuple[Trace, Advice]:
    """Serve one workload case honestly (memoised; fully deterministic)."""
    store = (
        None
        if case.app == "motd"
        else KVStore(IsolationLevel(case.isolation))
    )
    run = run_server(
        make_app(case.app),
        workload_for(case.app, case.n, mix=case.mix, seed=case.workload_seed),
        KarousosPolicy(),
        store=store,
        scheduler=RandomScheduler(case.schedule_seed),
        concurrency=case.concurrency,
    )
    return run.trace.freeze(), run.advice


@lru_cache(maxsize=48)
def serve_sealed_case(case: WorkloadCase, seal_every: int):
    """Serve one workload with an :class:`EpochSealer` attached.

    Offline slicing of an *unsealed* trace can cut where a responded
    request still had live activations, legitimately rejecting an honest
    server (see :mod:`repro.continuous.epoch`).  The continuous
    completeness driver therefore audits epochs sealed at quiescent
    points during serving -- the same contract the CLI enforces by
    pairing ``audit --epochs`` with ``serve --seal-every``.
    """
    from repro.continuous import EpochSealer

    sealer = EpochSealer(seal_every)
    store = (
        None
        if case.app == "motd"
        else KVStore(IsolationLevel(case.isolation))
    )
    run_server(
        make_app(case.app),
        workload_for(case.app, case.n, mix=case.mix, seed=case.workload_seed),
        KarousosPolicy(),
        store=store,
        scheduler=RandomScheduler(case.schedule_seed),
        concurrency=case.concurrency,
        sealer=sealer,
    )
    return tuple(sealer.epochs)


@dataclass
class FuzzStats:
    """Campaign tallies (shrink re-runs included; they are real audits)."""

    examples: int = 0
    applied: int = 0
    skipped: int = 0
    opportunistic_accepts: int = 0
    rejects: Dict[str, int] = field(default_factory=dict)

    def record_reject(self, reason: str) -> None:
        self.rejects[reason] = self.rejects.get(reason, 0) + 1


def run_soundness_case(
    case: MutationCase,
    stats: Optional[FuzzStats] = None,
    metrics: MetricsRegistry = NULL_METRICS,
    dedup: Optional[object] = None,
) -> Optional[str]:
    """One soundness example; returns an escape detail string or None.

    ``dedup`` (a :class:`~repro.verifier.dedup.executor.Deduplicator`)
    audits through the deduplicated reexec stage instead -- used by the
    corpus replay so shrunk reproducers also exercise the cache path.
    """
    stats = stats if stats is not None else FuzzStats()
    stats.examples += 1
    trace, advice = serve_case(case.workload)
    op = _OPS[case.op]
    rng = random.Random(case.mutation_seed)
    try:
        tampered_trace, tampered_advice = op.apply(rng, trace, advice)
    except MutationNotApplicable:
        stats.skipped += 1
        return None
    stats.applied += 1
    metrics.counter("fuzz.mutations").inc()
    started = time.perf_counter()
    if dedup is not None:
        # Prime the cache on the honest pair first: the tampered audit
        # then runs against a warm cache, the adversarial configuration.
        Auditor(make_app(case.workload.app), trace, advice, dedup=dedup).run()
    result = Auditor(
        make_app(case.workload.app), tampered_trace, tampered_advice,
        dedup=dedup,
    ).run()
    elapsed = time.perf_counter() - started
    metrics.histogram("fuzz.audit_seconds").observe(elapsed)
    if not result.accepted:
        stats.record_reject(result.reason)
        metrics.histogram("fuzz.reject_seconds").observe(elapsed)
        metrics.counter("fuzz.rejects").inc()
        return None
    if op.is_guaranteed(advice):
        metrics.counter("fuzz.escapes").inc()
        return f"guaranteed mutation {case.op} ACCEPTed"
    stats.opportunistic_accepts += 1
    return None


def _roundtrip(backend_kind: str, trace: Trace, advice: Advice, tmp: str):
    """Push the pair through a storage backend and decode it back."""
    from repro.storage import backend_for

    path = None if backend_kind == "memory" else os.path.join(tmp, backend_kind)
    backend = backend_for(backend_kind, path)
    write_trace(backend, "trace", trace)
    write_advice(backend, "advice", advice)
    return read_trace(backend, "trace"), read_advice(backend, "advice")


def run_completeness_case(
    case: CompletenessCase,
    stats: Optional[FuzzStats] = None,
    metrics: MetricsRegistry = NULL_METRICS,
    dedup: Optional[object] = None,
) -> Optional[str]:
    """One completeness example; returns a failure detail string or None."""
    import tempfile

    stats = stats if stats is not None else FuzzStats()
    stats.examples += 1
    app = make_app(case.workload.app)
    if case.driver == "continuous":
        from repro.continuous import ContinuousAuditor, Epoch

        epochs = serve_sealed_case(
            case.workload, max(2, case.workload.n // 3)
        )
        if case.backend != "direct":
            with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
                epochs = [
                    Epoch(
                        e.index,
                        *_roundtrip(
                            case.backend,
                            e.trace,
                            e.advice,
                            os.path.join(tmp, f"epoch{e.index}"),
                        ),
                        e.binlog_range,
                    )
                    for e in epochs
                ]
        auditor = ContinuousAuditor(app, dedup=dedup)
        verdicts = auditor.run(epochs)
        rejection = auditor.first_rejection
        if rejection is not None or not all(v.accepted for v in verdicts):
            reason = rejection.result.reason if rejection else "unknown"
            stats.record_reject(reason)
            return (
                f"honest run REJECTed by continuous driver via "
                f"{case.backend} backend: {reason}"
            )
        stats.applied += 1
        return None
    trace, advice = serve_case(case.workload)
    if case.backend != "direct":
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            trace, advice = _roundtrip(case.backend, trace, advice, tmp)
    kwargs = {}
    if case.driver == "singleton":
        kwargs["singleton_groups"] = True
    elif case.driver == "parallel":
        # What a worker pool does to the engine, without the pool: nodes
        # are absorbed out of canonical order (seeded, so a failure
        # replays).
        rng = random.Random(case.workload.schedule_seed)
        rank: Dict[str, float] = {}
        kwargs["order_key"] = lambda node: rank.setdefault(
            node.node_id, rng.random()
        )
    result = Auditor(app, trace, advice, dedup=dedup, **kwargs).run()
    if not result.accepted:
        stats.record_reject(result.reason)
        return (
            f"honest run REJECTed by {case.driver} driver via "
            f"{case.backend} backend: {result.reason}: {result.detail}"
        )
    stats.applied += 1
    return None


# -- corpus ------------------------------------------------------------------


def corpus_path(corpus_dir: str, prop: str, case) -> str:
    digest = value_digest(case.as_json())[:16]
    return os.path.join(corpus_dir, f"{prop}-{digest}.json")


def write_corpus_case(corpus_dir: str, prop: str, case, detail: str) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    path = corpus_path(corpus_dir, prop, case)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"property": prop, "detail": detail, "case": case.as_json()},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return path


def read_corpus(corpus_dir: str, prop: str) -> List[Tuple[str, object]]:
    """(path, case) pairs for every stored reproducer of ``prop``."""
    if not corpus_dir or not os.path.isdir(corpus_dir):
        return []
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        if doc.get("property") != prop:
            continue
        out.append((path, case_from_json(doc["case"])))
    return out


# -- campaign ----------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one campaign learned."""

    prop: str
    apps: Tuple[str, ...]
    seed: int
    max_examples: int
    stats: FuzzStats
    escapes: List[Dict[str, object]] = field(default_factory=list)
    corpus_replayed: int = 0
    corpus_failures: List[Dict[str, object]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.escapes and not self.corpus_failures

    def as_json(self) -> Dict[str, object]:
        return {
            "property": self.prop,
            "apps": list(self.apps),
            "seed": self.seed,
            "max_examples": self.max_examples,
            "examples": self.stats.examples,
            "applied": self.stats.applied,
            "skipped": self.stats.skipped,
            "opportunistic_accepts": self.stats.opportunistic_accepts,
            "rejects": dict(sorted(self.stats.rejects.items())),
            "escapes": self.escapes,
            "corpus_replayed": self.corpus_replayed,
            "corpus_failures": self.corpus_failures,
            "elapsed_seconds": self.elapsed_seconds,
            "clean": self.clean,
        }


def run_fuzz(
    prop: str = "soundness",
    apps: Sequence[str] = APPS,
    seed: int = 0,
    max_examples: int = 100,
    corpus_dir: Optional[str] = None,
    metrics: MetricsRegistry = NULL_METRICS,
    max_requests: int = 14,
    ops: Optional[Sequence[str]] = None,
) -> FuzzReport:
    """One fuzz campaign: corpus replay, then seeded random exploration.

    Returns a report rather than raising -- escapes are findings, and a
    campaign that found one still has a summary worth printing.  The
    first escape stops exploration (hypothesis has already shrunk it to
    a minimal case by then) and, when ``corpus_dir`` is given, persists
    it for replay in every later campaign.
    """
    if prop not in ("soundness", "completeness"):
        raise ValueError(f"unknown fuzz property {prop!r}")
    stats = FuzzStats()
    report = FuzzReport(
        prop=prop,
        apps=tuple(apps),
        seed=seed,
        max_examples=max_examples,
        stats=stats,
    )
    started = time.perf_counter()
    run_case = (
        run_soundness_case if prop == "soundness" else run_completeness_case
    )

    # 1. Corpus replay: past reproducers must stay fixed.  Each case
    # replays twice -- plain, then through the deduplicated reexec stage
    # with a fresh verdict cache -- so shrunk reproducers exercise the
    # cache path by default.
    for path, case in read_corpus(corpus_dir, prop):
        from repro.verifier.dedup import Deduplicator, VerdictCache

        report.corpus_replayed += 1
        detail = run_case(case, stats, metrics)
        if detail is None:
            detail = run_case(
                case, stats, metrics, dedup=Deduplicator(VerdictCache())
            )
            if detail is not None:
                detail = f"[dedup replay] {detail}"
        if detail is not None:
            report.corpus_failures.append(
                {"path": path, "detail": detail, "case": case.as_json()}
            )

    # 2. Seeded exploration with shrinking.  max_examples=0 is a pure
    # corpus-replay run (regression gate without new exploration).
    if max_examples <= 0:
        report.elapsed_seconds = time.perf_counter() - started
        return report
    if prop == "soundness":
        strategy = mutation_cases(apps=apps, ops=ops, max_requests=max_requests)
    else:
        strategy = completeness_cases(apps=apps, max_requests=max_requests)

    def property_test(case):
        detail = run_case(case, stats, metrics)
        if detail is not None:
            raise EscapeFound(case, detail)

    wrapped = hypothesis_seed(seed)(
        hypothesis_settings(
            max_examples=max_examples,
            deadline=None,
            database=None,
            derandomize=False,
            print_blob=False,
            suppress_health_check=list(HealthCheck),
        )(given(strategy)(property_test))
    )
    try:
        wrapped()
    except EscapeFound as escape:
        finding: Dict[str, object] = {
            "detail": escape.detail,
            "case": escape.case.as_json(),
        }
        if corpus_dir:
            finding["corpus"] = write_corpus_case(
                corpus_dir, prop, escape.case, escape.detail
            )
        report.escapes.append(finding)
    report.elapsed_seconds = time.perf_counter() - started
    return report
