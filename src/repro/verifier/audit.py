"""The audit engine (paper Figure 14: Audit = Preprocess, ReExec,
Postprocess; DESIGN.md §5).

``audit(app, trace, advice)`` returns an :class:`AuditResult`: ACCEPT with
statistics, or REJECT with the machine-readable reason raised by whichever
check failed.  Any structural error in the untrusted advice is likewise a
rejection, never a crash.

:class:`Auditor` is the one engine every audit runs on.  It compiles the
epoch to an explicit :class:`~repro.verifier.dag.plan.AuditPlan`,
pre-flight-validates it, and executes it through the ready-queue loop of
:mod:`repro.verifier.dag.scheduler` -- by itself (:meth:`Auditor.run`),
or as one of many plans in the fleet service's shared pool
(:meth:`Auditor.prepare` / the runner protocol / :meth:`Auditor.collect`).
Per-node work:

* ``decode`` freezes the trace; ``preprocess`` / ``isolation`` /
  ``postprocess`` call the Figure 14 procedures;
* ``reexec`` nodes run :func:`~repro.verifier.parallel.execute_group`
  -- one value-isolated group each, in any order, on any worker;
* the optional ``dedup`` barrier digests every group in canonical order
  and rehydrates verdict-cache hits, which then skip re-execution;
* ``merge`` replays the group deltas in canonical sorted-tag order via
  :func:`~repro.verifier.parallel.merge_delta` and runs the final
  checks, so the verdict is independent of the schedule;
* ``checkpoint`` extracts the digest-chained epoch checkpoint when armed
  (continuous audits).

The exception-to-verdict mapping lives in exactly one place --
:func:`rejection_result`, shared with the straight-line reference
:func:`~repro.verifier.oooaudit.ooo_audit`:

* :class:`~repro.errors.AuditRejected` becomes ``REJECT(reason)``;
* any other exception becomes ``REJECT(audit-crash)`` (malformed advice
  can crash any phase; a crash is evidence against the advice, never an
  auditor fault).

``dedup`` / ``merge`` nodes report stage ``reexec``, so
``AuditResult.stage`` names one of :data:`STAGES`.

With a :class:`~repro.verifier.dag.journal.NodeJournal` attached, every
completed node is journaled (flushed per record, digest-chained, never
barriered: re-derivable) before its completion is acted on, and
``resume`` replays the journal: a recorded verdict returns wholesale,
journaled ``reexec`` deltas are replayed instead of re-executed, and the
cheap deterministic stages simply re-run -- only the frontier
re-executes.  Nothing is serialized for a journal that is not there.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.advice.records import Advice
from repro.errors import AuditRejected
from repro.kem.program import AppSpec
from repro.obs import MetricsRegistry, ensure_metrics
from repro.trace.trace import Trace, TraceLike
from repro.verifier.carry import CarryIn
from repro.verifier.dag.journal import (
    PAYLOAD_CHECKPOINT,
    PAYLOAD_DELTA,
    PAYLOAD_NONE,
    NodeJournal,
    NodeJournalError,
    decode_delta,
    encode_delta,
)
from repro.verifier.dag.plan import (
    NODE_CHECKPOINT,
    NODE_DECODE,
    NODE_DEDUP,
    NODE_ISOLATION,
    NODE_MERGE,
    NODE_POSTPROCESS,
    NODE_PREPROCESS,
    NODE_REEXEC,
    STAGE_ORDER,
    AuditPlan,
    PlanError,
    PlanNode,
    compile_plan,
    single_epoch,
    validate_plan,
)
from repro.verifier.dag.scheduler import (
    SCHEDULER_PROCESS,
    SCHEDULER_SERIAL,
    SCHEDULERS,
    PlanAborted,
    Scheduler,
)
from repro.verifier.isolation import verify_isolation_level
from repro.verifier.parallel import (
    GroupDelta,
    execute_group,
    merge_delta,
    run_group_in_worker,
)
from repro.verifier.postprocess import postprocess
from repro.verifier.preprocess import AuditState, preprocess
from repro.verifier.reexec import ReExecutor

# The values AuditResult.stage takes, in execution order.
STAGES = (
    NODE_DECODE,
    NODE_PREPROCESS,
    NODE_ISOLATION,
    NODE_REEXEC,
    NODE_POSTPROCESS,
    NODE_CHECKPOINT,
)

# A hook called after every node: (node stage, seconds).  The CLI's
# ``--progress`` flag is one of these.
StageHook = Callable[[str, float], None]

_NODE_SECONDS = {stage: f"dag.node.{stage}.seconds" for stage in STAGE_ORDER}
_STAGE_SECONDS = {stage: f"pipeline.stage.{stage}.seconds" for stage in STAGES}


@dataclass
class AuditResult:
    accepted: bool
    reason: str = "accepted"
    detail: str = ""
    stats: Dict[str, Union[int, float]] = field(default_factory=dict)
    # On REJECT: which stage raised, and (when the check pinned one) the
    # structured rejection site carried by the AuditRejected exception.
    stage: str = ""
    site: Optional[Dict[str, object]] = None

    def __bool__(self) -> bool:
        return self.accepted

    def __repr__(self) -> str:
        verdict = "ACCEPT" if self.accepted else f"REJECT({self.reason})"
        return f"<AuditResult {verdict}>"


def collect_stats(
    started: float, state: Optional[AuditState], re_exec: Optional[ReExecutor]
) -> Dict[str, Union[int, float]]:
    """AuditResult statistics (only elapsed_seconds, being wall-clock,
    varies between runs).  Count-valued entries are honest ints."""
    stats: Dict[str, Union[int, float]] = {
        "elapsed_seconds": time.perf_counter() - started,
    }
    if state is not None:
        stats["graph_nodes"] = state.graph.node_count
        stats["graph_edges"] = state.graph.edge_count
    if re_exec is not None:
        stats["groups"] = re_exec.groups_executed
        stats["handlers_executed"] = re_exec.handlers_executed
    return stats


def rejection_result(
    exc: Exception,
    stage: str,
    started: float,
    state: Optional[AuditState],
    re_exec: Optional[ReExecutor],
) -> AuditResult:
    """The exception-to-verdict mapping: what raised in ``stage`` becomes
    a REJECT carrying the partial statistics."""
    if isinstance(exc, AuditRejected):
        reason, detail, site = exc.reason, exc.detail, exc.site
    else:  # malformed advice can crash any phase
        reason, detail, site = "audit-crash", f"{type(exc).__name__}: {exc}", None
    return AuditResult(
        accepted=False,
        reason=reason,
        detail=detail,
        stats=collect_stats(started, state, re_exec),
        stage=stage,
        site=site,
    )


class SimulatedKill(Exception):
    """Test hook: raised after the N-th journal write to model a hard
    kill at that exact persistence boundary (the record survives, the
    process does not)."""


def jsonable(value: object) -> object:
    """Best-effort JSON sanitisation: containers recurse, scalars pass,
    everything else (HandlerId, TxId, ...) collapses to its repr."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


def _result_to_doc(result: AuditResult) -> Dict[str, object]:
    return {
        "accepted": result.accepted,
        "reason": result.reason,
        "detail": result.detail,
        "stats": dict(result.stats),
        "stage": result.stage,
        "site": jsonable(result.site),
    }


def _result_from_doc(doc: Dict[str, object]) -> AuditResult:
    return AuditResult(
        accepted=bool(doc.get("accepted")),
        reason=str(doc.get("reason", "accepted")),
        detail=str(doc.get("detail", "")),
        stats=dict(doc.get("stats", {})),
        stage=str(doc.get("stage", "")),
        site=doc.get("site"),
    )


class Auditor:
    """Audits one epoch through its compiled execution DAG; exposes
    intermediate state (``state``, ``re_exec``, ``checkpoint``, ``plan``,
    ``stage_seconds``, ``node_seconds``) for tests and tooling.

    ``scheduler`` names the ready-queue backend (``serial`` or
    ``process``).  Left unset it follows ``parallelism``: one worker is
    serial; more fan re-execution groups out over processes when
    ``(app, trace, advice, carry)`` pickles.  When it does not
    (closure-based apps cannot cross a process boundary) every node runs
    in this process and a ``parallel-disabled`` diagnostic says so.
    Either way groups reduce in canonical order, so verdict and
    deterministic statistics do not depend on the choice.

    ``checkpoint_index`` / ``checkpoint_parent`` arm the checkpoint node
    (continuous auditing): an accepted run leaves the extracted
    :class:`~repro.continuous.checkpoint.Checkpoint` in
    ``self.checkpoint``; :meth:`for_epoch` builds the engine from a
    sealed epoch directly.  ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) turns on the observability
    spine; ``progress`` is a per-node hook ``(stage, seconds)``.

    ``dedup`` (a :class:`~repro.verifier.dedup.executor.Deduplicator`)
    arms the dedup barrier: digest-identical groups execute once per
    Deduplicator lifetime and verdict-cache hits skip re-execution
    entirely, with verdicts provably unchanged (DESIGN.md §11).  The same
    object may be shared across many Auditors (epochs, runs).

    ``node_journal`` / ``resume`` give node-granular crash resume
    (``resume="auto"``: a journal left by another plan is discarded, not
    trusted).  ``kill_after`` and ``order_key`` are test hooks: a
    simulated kill after the N-th journal write, and a ready-queue
    shuffle.
    """

    def __init__(
        self,
        app: AppSpec,
        trace: TraceLike,
        advice: Advice,
        *,
        singleton_groups: bool = False,
        parallelism: int = 1,
        scheduler: Optional[str] = None,
        dedup: Optional[object] = None,
        carry: Optional[CarryIn] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[StageHook] = None,
        checkpoint_index: Optional[int] = None,
        checkpoint_parent: Optional[object] = None,
        node_journal: Optional[NodeJournal] = None,
        resume: object = False,
        kill_after: Optional[int] = None,
        order_key: Optional[Callable[[object], object]] = None,
    ):
        if scheduler is not None and scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.app = app
        # ``trace`` may be a lazy event iterator (a storage-layer record
        # stream): drain it exactly once into a frozen snapshot here, while
        # the caller's reader is still open.  The decode node is
        # idempotent on the frozen form.
        self.trace = Trace.from_events(trace)
        self.advice = advice
        self.singleton_groups = singleton_groups
        self.parallelism = max(1, int(parallelism))
        self.scheduler = scheduler
        self.dedup = dedup
        self.carry = carry
        self.metrics = ensure_metrics(metrics)
        self.progress = progress
        self.checkpoint_index = checkpoint_index
        self.checkpoint_parent = checkpoint_parent
        self.journal = node_journal
        self.resume = resume
        self.kill_after = kill_after
        self.order_key = order_key
        self.epoch = checkpoint_index if checkpoint_index is not None else 0
        # What the plan is compiled over; for_epoch substitutes the
        # sealed epoch itself.
        self._epoch_like: object = single_epoch(self.epoch, self.trace, advice)

        self.state: Optional[AuditState] = None
        self.re_exec: Optional[ReExecutor] = None
        self.checkpoint = None  # set by the checkpoint node when armed
        self.plan: Optional[AuditPlan] = None
        self.stage_seconds: Dict[str, float] = {}
        # Per-node wall-clock: (epoch, stage, group, seconds).
        self.node_seconds: List[Tuple[int, str, Optional[str], float]] = []
        self.executed_nodes = 0
        self.resumed_nodes = 0
        self.skipped_resumed = 0  # 1 when the verdict replayed from the journal
        self.fallback_tags: List[str] = []

        self._result: Optional[AuditResult] = None
        self._started: Optional[float] = None
        self._groups: Dict[str, List[str]] = {}
        self._deltas: Dict[str, GroupDelta] = {}
        self._digests: Dict[str, object] = {}
        self._hits: Dict[str, GroupDelta] = {}
        self._fresh: Set[str] = set()
        self._jstate = None
        self._journal_writes = 0

    @classmethod
    def for_epoch(cls, app: AppSpec, epoch: object, **options) -> "Auditor":
        """The engine for one sealed epoch (``.index``, ``.trace``,
        ``.advice``), its checkpoint node armed with the epoch's index.
        The plan is compiled over ``epoch`` itself, so a content digest
        it brought from storage is not recomputed by re-encoding it."""
        auditor = cls(
            app, epoch.trace, epoch.advice, checkpoint_index=epoch.index, **options
        )
        auditor._epoch_like = epoch
        return auditor

    # -- entry points ------------------------------------------------------

    def run(self) -> AuditResult:
        nodes, edges = self.prepare()
        loop = Scheduler(
            self.scheduler, jobs=self.parallelism, order_key=self.order_key
        )
        try:
            loop.execute(nodes, edges, self)
        finally:
            self.abandon()
        return self.collect()

    def prepare(self) -> Tuple[List[PlanNode], List[Tuple[str, str]]]:
        """Compile and validate the plan, resolve the scheduler, set up
        the node journal.  Returns ``(ordered_nodes, edges)`` for the
        ready-queue loop; an audit whose verdict is already known (replayed
        from the journal, or advice too malformed to plan) has no nodes
        left to run."""
        self._started = time.perf_counter()
        if self.scheduler is None:
            self.scheduler = self._default_scheduler()
        try:
            plan = compile_plan(
                self.app.name,
                [self._epoch_like],
                singleton_groups=self.singleton_groups,
                dedup=self.dedup is not None,
            )
        except PlanError:
            raise  # a caller error (an epoch without advice), not evidence
        except Exception as exc:
            self._finish(self._unplannable(exc))
            return [], []
        validate_plan(plan)
        self.plan = plan
        self.metrics.gauge("dag.plan_nodes").set(len(plan.nodes))
        self.metrics.gauge("dag.plan_edges").set(len(plan.edges))
        nodes = plan.ordered_nodes()
        self._groups = {
            n.group: list(n.rids) for n in nodes if n.stage == NODE_REEXEC
        }
        self._setup_journal(plan)
        if self._result is not None:
            return [], []
        return nodes, plan.edges

    def _unplannable(self, exc: Exception) -> AuditResult:
        """Groups and footprints are read straight from the advice, so a
        malformed bundle can fail planning.  That is evidence, not a
        crash: the checks that precede re-execution still get to name
        the defect, and failing that the planning error is the verdict,
        at the stage that forms groups."""
        stage = NODE_PREPROCESS
        try:
            self.state = preprocess(self.app, self.trace, self.advice, self.carry)
            stage = NODE_ISOLATION
            verify_isolation_level(self.state)
            stage = NODE_REEXEC
            raise exc
        except Exception as err:
            return rejection_result(err, stage, self._started, self.state, None)

    def collect(self) -> AuditResult:
        """The verdict, once the schedule ended (normally or via
        :class:`PlanAborted`); releases the node journal."""
        self.abandon()
        if self._result is None:
            raise RuntimeError(
                f"epoch {self.epoch} finished the schedule without a "
                "verdict (scheduler bug)"
            )
        return self._result

    def abandon(self) -> None:
        """Release the node journal.  Alone, this is the drain path of
        an external driver (SIGTERM mid-epoch): a later run over the
        same inputs resumes from the journaled nodes instead of
        re-executing them."""
        if self.journal is not None:
            self.journal.close()

    # -- plan + journal setup ----------------------------------------------

    def _default_scheduler(self) -> str:
        if self.parallelism > 1 and self._worker_payload is not None:
            return SCHEDULER_PROCESS
        return SCHEDULER_SERIAL

    def _setup_journal(self, plan: AuditPlan) -> None:
        if self.journal is None:
            return
        jstate = None
        if self.resume == "auto":
            # Every epoch finds its predecessor's journal: the header alone
            # dismisses it.  A damaged one of this plan is discarded too.
            if self.journal.header_plan() == plan.digest:
                try:
                    jstate = self.journal.load()
                except NodeJournalError:
                    pass
        elif self.resume:
            jstate = self.journal.load()
            if jstate.plan_digest != plan.digest:
                raise NodeJournalError(
                    f"node journal belongs to plan "
                    f"{jstate.plan_digest[:16]}, not {plan.digest[:16]}: "
                    "refusing to resume against different inputs"
                )
        self._jstate = jstate
        if jstate is None:
            self.journal.start(plan.digest)
        elif self.epoch in jstate.verdicts:
            self.skipped_resumed = 1
            self._result = _result_from_doc(jstate.verdicts[self.epoch])
            if self._result.accepted and self.checkpoint_index is not None:
                self._replay_checkpoint(plan)

    def _replay_checkpoint(self, plan: AuditPlan) -> None:
        """Rehydrate the completed epoch's checkpoint from its journaled
        payload."""
        node = plan.node(self.epoch, NODE_CHECKPOINT)
        payload = self._jstate.checkpoint_payload(node.node_id)
        if payload is None:
            raise NodeJournalError(
                f"journal records epoch {self.epoch}'s verdict but not its "
                "checkpoint; cannot chain the next epoch"
            )
        from repro.continuous.checkpoint import decode_checkpoint

        self.checkpoint = decode_checkpoint(payload.decode("utf-8"))

    # -- runner protocol (consumed by the Scheduler) -----------------------

    def parallel_safe(self, node: PlanNode) -> bool:
        if node.stage != NODE_REEXEC or node.group in self._hits:
            return False
        if self._jstate is not None and (
            self._jstate.delta_payload(node.node_id) is not None
        ):
            return False
        return True

    def execute(self, node: PlanNode):
        t0 = time.perf_counter()
        try:
            kind, value = self._dispatch(node)
        except Exception as exc:
            return ("rejected", exc, time.perf_counter() - t0)
        return (kind, value, time.perf_counter() - t0)

    def remote_spec(self, node: PlanNode):
        if self._worker_payload is None:
            return None
        key, blob = self._worker_payload
        args = (key, blob, node.group, list(node.rids), self.metrics.enabled)
        return run_group_in_worker, args

    def on_worker_failure(self, node: PlanNode):
        # Infrastructure, not advice: re-execute deterministically
        # in-process so the verdict never depends on worker health.
        self.fallback_tags.append(node.group)
        self.metrics.counter("parallel.fallback_groups").inc()
        return self.execute(node)

    def absorb(self, node: PlanNode, outcome) -> None:
        kind, value, seconds = outcome
        stage = node.pipeline_stage
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.node_seconds.append((node.epoch, node.stage, node.group, seconds))
        self.metrics.histogram(_NODE_SECONDS[node.stage]).observe(seconds)
        if self.progress is not None:
            self.progress(node.stage, seconds)
        if kind == "rejected":
            self._finish(
                rejection_result(
                    value, stage, self._started, self.state, self.re_exec
                )
            )
            raise PlanAborted()
        self.metrics.counter("dag.nodes_completed").inc()
        if node.stage == NODE_REEXEC:
            self._absorb_reexec(node, kind, value)
        elif node.stage == NODE_CHECKPOINT:
            self._absorb_checkpoint(node, value)
        else:
            self._journal_node(node)

    # -- node dispatch ------------------------------------------------------

    def _dispatch(self, node: PlanNode):
        stage = node.stage
        if stage == NODE_REEXEC:
            return self._dispatch_reexec(node)
        if stage == NODE_DECODE:
            self.trace = Trace.from_events(self.trace)
        elif stage == NODE_PREPROCESS:
            self.state = preprocess(self.app, self.trace, self.advice, self.carry)
            self.metrics.gauge("pipeline.graph_nodes").set(
                self.state.graph.node_count
            )
            self.metrics.gauge("pipeline.graph_edges").set(
                self.state.graph.edge_count
            )
        elif stage == NODE_ISOLATION:
            verify_isolation_level(self.state)
        elif stage == NODE_DEDUP:
            # The merge target exists before any dedup work so a crash
            # here still reports its (zero) group statistics.
            self.re_exec = ReExecutor(self.state)
            self.dedup.begin_stage()
            for tag in sorted(self._groups):
                digest, delta = self.dedup.fetch(
                    self.state, tag, self._groups[tag]
                )
                self._digests[tag] = digest
                if delta is not None:
                    self._hits[tag] = delta
        elif stage == NODE_MERGE:
            self._dispatch_merge()
        elif stage == NODE_POSTPROCESS:
            postprocess(self.state, self.re_exec)
        elif stage == NODE_CHECKPOINT:
            return ("done", self._extract_checkpoint())
        else:
            raise RuntimeError(f"unknown node stage {stage!r}")
        return ("done", None)

    def _dispatch_reexec(self, node: PlanNode):
        if self._jstate is not None:
            payload = self._jstate.delta_payload(node.node_id)
            if payload is not None:
                try:
                    return ("replayed", decode_delta(payload))
                except NodeJournalError:
                    pass  # undecodable journal payload: just re-execute
        if node.group in self._hits:
            return ("cached", self._hits[node.group])
        return (
            "executed",
            execute_group(
                self.state, node.group, list(node.rids), self.metrics.enabled
            ),
        )

    def _dispatch_merge(self) -> None:
        """Canonical sorted-tag reduction, including dedup store offers:
        the one place cross-group state is touched, which is what makes
        every schedule verdict-identical."""
        if self.re_exec is None:
            self.re_exec = ReExecutor(self.state)
        try:
            for tag in sorted(self._groups):
                delta = self._deltas[tag]
                merge_delta(self.re_exec, delta, self.metrics)
                if (
                    self.dedup is not None
                    and tag in self._fresh
                    and self._digests.get(tag) is not None
                ):
                    self.dedup.store(
                        self.state, self._groups[tag], self._digests[tag], delta
                    )
            self.re_exec._final_checks()
        finally:
            if self.dedup is not None:
                self.dedup.finish_stage(self.metrics)
        self.metrics.counter("reexec.groups").inc(self.re_exec.groups_executed)
        self.metrics.counter("reexec.handlers").inc(self.re_exec.handlers_executed)

    def _extract_checkpoint(self):
        if self.checkpoint_index is None:
            return None
        from repro.continuous.checkpoint import (
            CheckpointError,
            checkpoint_from_audit,
        )

        try:
            return checkpoint_from_audit(
                self.checkpoint_index, self.checkpoint_parent,
                self.state, self.re_exec,
            )
        except CheckpointError as exc:
            raise AuditRejected("checkpoint-unextractable", str(exc)) from exc

    # -- absorption ---------------------------------------------------------

    def _absorb_reexec(self, node: PlanNode, kind: str, delta: GroupDelta) -> None:
        self._deltas[node.group] = delta
        if kind == "executed":
            self.executed_nodes += 1
            self.metrics.counter("reexec.nodes_executed").inc()
            self._fresh.add(node.group)
        elif kind == "replayed":
            self.resumed_nodes += 1
            self.metrics.counter("reexec.nodes_resumed").inc()
            self._fresh.add(node.group)
        else:  # a dedup cache hit rehydrated in the parent
            self.metrics.counter("reexec.nodes_cached").inc()
        if kind != "replayed" and self.journal is not None:
            payload = encode_delta(delta)
            if payload is not None:
                self._journal_node(node, PAYLOAD_DELTA, payload)
            # An unpicklable delta is simply not journaled: resume
            # re-executes that node, which is sound, just not saved.

    def _absorb_checkpoint(self, node: PlanNode, cp) -> None:
        self.checkpoint = cp
        if cp is None or self.journal is None:
            self._journal_node(node)
        else:
            from repro.continuous.checkpoint import encode_checkpoint

            self._journal_node(
                node, PAYLOAD_CHECKPOINT, encode_checkpoint(cp).encode("utf-8")
            )
        self._finish(
            AuditResult(
                accepted=True,
                stats=collect_stats(self._started, self.state, self.re_exec),
            )
        )

    def _finish(self, result: AuditResult) -> None:
        """Record the verdict: its counter (and diagnostic), the
        per-stage fold of the node spans, the journal's verdict record."""
        self._result = result
        if result.accepted:
            self.metrics.counter("pipeline.accepts").inc()
        else:
            self.metrics.counter("pipeline.rejects").inc()
            self.metrics.diagnostic(
                stage=result.stage, reason=result.reason, detail=result.detail
            )
        for stage, seconds in self.stage_seconds.items():
            self.metrics.histogram(_STAGE_SECONDS[stage]).observe(seconds)
        if self.journal is not None and self.plan is not None:
            self.journal.record_verdict(self.epoch, _result_to_doc(result))
            self._kill_tick()

    # -- journal plumbing ---------------------------------------------------

    def _journal_node(
        self,
        node: PlanNode,
        payload_kind: str = PAYLOAD_NONE,
        payload: Optional[bytes] = None,
    ) -> None:
        if self.journal is None:
            return
        if self._jstate is not None and node.node_id in self._jstate.completed:
            return  # already journaled by the interrupted run
        self.journal.record_node(
            node.node_id, node.stage, node.epoch, node.group,
            payload_kind, payload,
        )
        self._kill_tick()

    def _kill_tick(self) -> None:
        self._journal_writes += 1
        if self.kill_after is not None and self._journal_writes >= self.kill_after:
            raise SimulatedKill(
                f"simulated kill after {self._journal_writes} journal records"
            )

    # -- worker hand-off ----------------------------------------------------

    @functools.cached_property
    def _worker_payload(self) -> Optional[Tuple[str, bytes]]:
        """``(key, pickled (app, trace, advice, carry))`` for process
        workers, or None -- with one ``parallel-disabled`` diagnostic --
        when the inputs cannot cross a process boundary (closure-based
        apps).  The key names the payload in the workers' rebuilt-state
        cache."""
        try:
            blob = pickle.dumps((self.app, self.trace, self.advice, self.carry))
        except Exception as exc:
            self.metrics.diagnostic(
                stage="prepare",
                reason="parallel-disabled",
                detail=f"inputs do not pickle: {type(exc).__name__}",
            )
            return None
        return hashlib.sha256(blob).hexdigest()[:16], blob


def audit(
    app: AppSpec,
    trace: TraceLike,
    advice: Advice,
    parallelism: int = 1,
    carry: Optional[CarryIn] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> AuditResult:
    """Audit a served trace against the server's advice."""
    return Auditor(
        app, trace, advice, parallelism=parallelism, carry=carry, metrics=metrics
    ).run()


__all__ = [
    "STAGES",
    "AuditResult",
    "Auditor",
    "PlanAborted",
    "SimulatedKill",
    "StageHook",
    "audit",
    "collect_stats",
    "jsonable",
    "rejection_result",
]
