"""The continuous auditor: a bounded queue of sealed epochs (DESIGN.md §6).

:class:`ContinuousAuditor` consumes :class:`~repro.continuous.epoch.Epoch`
objects -- typically as the :class:`~repro.continuous.sealer.EpochSealer`'s
sink, so verification overlaps serving -- and audits each on its own
:class:`~repro.verifier.audit.Auditor` (one compiled plan per epoch):

* epoch 0 audits from genesis; epoch k > 0 audits with the *carry-in*
  state of checkpoint k-1 (:class:`~repro.verifier.carry.CarryIn`);
* an accepted epoch yields a checkpoint (extracted from re-execution,
  chained by digest) and a ``verified`` journal entry;
* a rejected epoch stops the stream: later epochs are not audited (their
  initial state is unverifiable) and report ``predecessor-rejected``.

Every sealed epoch takes one path from queue to verdict: :meth:`offer`
enqueues it, :meth:`start_job` runs the checks that precede re-execution
and prepares its plan, something executes the plan, and
:meth:`finish_job` commits the verdict.  The solo driver
(:meth:`submit` / :meth:`step`) executes the plan on the epoch's own
ready-queue loop; the fleet service (:mod:`repro.service`) executes it
in its shared pool.

The pending queue is bounded (``max_pending``): :meth:`offer` refuses an
epoch past the bound, and :meth:`submit` then audits the oldest pending
epochs first, which is the backpressure that keeps a continuous audit's
memory footprint O(epoch) instead of O(trace).  Progress survives
crashes via the journal + checkpoint store: a new auditor over the same
stores resumes after the last verified epoch, after re-verifying the
stored checkpoint chain (a tampered store is refused as
``checkpoint-chain-forged``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.continuous.checkpoint import (
    Checkpoint,
    CheckpointChainError,
    CheckpointStore,
)
from repro.continuous.epoch import Epoch
from repro.continuous.journal import AuditJournal
from repro.kem.program import AppSpec
from repro.obs import MetricsRegistry, ensure_metrics
from repro.verifier.audit import Auditor, AuditResult, StageHook, check_scheduler


@dataclass
class EpochVerdict:
    """One epoch's audit outcome within the stream."""

    epoch: int
    result: AuditResult
    checkpoint_digest: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.result.accepted

    def as_doc(self) -> Dict[str, object]:
        """The per-epoch entry of ``audit --format json`` and of the
        fleet summary."""
        return {
            "epoch": self.epoch,
            "accepted": self.accepted,
            "reason": self.result.reason,
            "detail": self.result.detail,
            "checkpoint_digest": self.checkpoint_digest,
        }

    def __repr__(self) -> str:
        verdict = (
            "ACCEPT" if self.accepted else f"REJECT({self.result.reason})"
        )
        return f"<EpochVerdict epoch={self.epoch} {verdict}>"


class ContinuousAuditor:
    """Streams sealed epochs through per-epoch audits with checkpoints."""

    def __init__(
        self,
        app: AppSpec,
        parallelism: int = 1,
        max_pending: int = 4,
        checkpoints: Optional[CheckpointStore] = None,
        journal: Optional[AuditJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[StageHook] = None,
        dedup: Optional[object] = None,
        scheduler: Optional[str] = None,
        node_journal: Optional[object] = None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        # Each epoch's Auditor would refuse these: refuse them before any
        # epoch is audited.
        check_scheduler(scheduler, parallelism)
        self.app = app
        self.parallelism = parallelism
        # One Deduplicator shared across every epoch's Auditor: digests
        # cover the carry-in state (checkpoint-anchored), so a group that
        # recurs in a later epoch under the same carried values is a hit.
        self.dedup = dedup
        # With a node journal, a mid-epoch kill resumes at node
        # granularity inside the epoch the journal-level resume re-audits
        # (a journal left by a different epoch's plan is discarded, not
        # trusted).
        self.scheduler = scheduler
        self.node_journal = node_journal
        self.max_pending = max_pending
        self.metrics = ensure_metrics(metrics)
        self.progress = progress
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()
        self.journal = journal if journal is not None else AuditJournal()
        self.verdicts: Dict[int, EpochVerdict] = {}
        self._queue: Deque[Epoch] = deque()
        self._failed: Optional[EpochVerdict] = None
        self._chain_error: Optional[str] = None
        self.peak_pending = 0
        self.backpressure_events = 0
        self.skipped_resumed = 0
        self.first_verdict_seconds: Optional[float] = None
        self._t0: Optional[float] = None
        # Resume: trust the journal's verified prefix only as far as the
        # stored checkpoint chain actually verifies.
        self._next_index = 0
        last = self.journal.last_verified()
        if last >= 0:
            try:
                self.checkpoints.verify_chain(last)
                # The chain being internally consistent is not enough: a
                # forger can recompute digests.  Anchor each stored
                # checkpoint to the digest journalled when it verified.
                recorded = self.journal.verified_digests()
                for index in range(last + 1):
                    stored = self.checkpoints.get(index)
                    if stored is None or stored.digest != recorded.get(index):
                        raise CheckpointChainError(
                            f"checkpoint {index} does not match the digest "
                            "journalled at verification time"
                        )
            except CheckpointChainError as exc:
                self._chain_error = str(exc)
            else:
                self._next_index = last + 1

    # -- stream interface ----------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def accepted(self) -> bool:
        return (
            self._failed is None
            and self._chain_error is None
            and all(v.accepted for v in self.verdicts.values())
        )

    @property
    def first_rejection(self) -> Optional[EpochVerdict]:
        return self._failed

    def offer(self, epoch: Epoch) -> bool:
        """Enqueue a sealed epoch; False (a backpressure event) when the
        pending queue is full.  An epoch a previous run verified (journal
        and chain agree) is accepted and skipped."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
        if epoch.index < self._next_index and epoch.index not in self.verdicts:
            self.skipped_resumed += 1
            return True
        if len(self._queue) >= self.max_pending:
            self.backpressure_events += 1
            return False
        self._queue.append(epoch)
        self.peak_pending = max(self.peak_pending, len(self._queue))
        return True

    @property
    def queue_room(self) -> int:
        return max(0, self.max_pending - len(self._queue))

    def submit(self, epoch: Epoch) -> None:
        """Enqueue a sealed epoch, auditing the oldest pending epochs
        first while the queue is full (backpressure)."""
        while not self.offer(epoch):
            self.step()

    def step(self) -> Optional[EpochVerdict]:
        """Audit pending epochs up to and including the next one that
        re-executes, on this auditor's own loop; returns the last verdict
        recorded, None if the queue was empty."""
        if not self._queue:
            return None
        last = self._queue[-1].index
        job = self.start_job()
        if job is None:  # every pending epoch was decided without a plan
            return self.verdicts[last]
        epoch, auditor, nodes, edges = job
        auditor.run_prepared(nodes, edges)
        return self.finish_job(epoch, auditor)

    def start_job(self) -> Optional[Tuple[Epoch, Auditor, list, list]]:
        """Pop queued epochs until one needs re-execution; short-circuit
        verdicts (chain forged, predecessor rejected, no advice, missing
        checkpoint) are recorded inline.  Returns ``(epoch, auditor,
        nodes, edges)`` -- the epoch's engine with its plan prepared, for
        :meth:`step` or the fleet's shared pool to execute -- or None
        when the queue is drained."""
        while self._queue:
            epoch = self._queue.popleft()
            verdict, parent = self._preflight(epoch)
            if verdict is not None:
                self._account_verdict(epoch, verdict)
                continue
            auditor = self._build_auditor(epoch, parent)
            nodes, edges = auditor.prepare()
            return epoch, auditor, nodes, edges
        return None

    def finish_job(self, epoch: Epoch, auditor: Auditor) -> EpochVerdict:
        """Commit an executed epoch: journal the verdict, extend the
        checkpoint chain, account the stream metrics."""
        verdict = self._commit(epoch, auditor.collect(), auditor.checkpoint)
        self._account_verdict(epoch, verdict)
        return verdict

    def _account_verdict(self, epoch: Epoch, verdict: EpochVerdict) -> None:
        """Account a finished epoch: verdict table plus stream metrics."""
        self.verdicts[epoch.index] = verdict
        if self.first_verdict_seconds is None and self._t0 is not None:
            self.first_verdict_seconds = time.perf_counter() - self._t0
        self.metrics.counter("continuous.epochs").inc()
        if verdict.accepted:
            self.metrics.counter("continuous.epochs_accepted").inc()
        stats = verdict.result.stats
        self.metrics.series("continuous.epoch_seconds").point(
            epoch.index, stats.get("elapsed_seconds", 0.0)
        )
        self.metrics.series("continuous.epoch_handlers").point(
            epoch.index, stats.get("handlers_executed", 0)
        )
        self.metrics.gauge("continuous.peak_pending").set_max(self.peak_pending)

    def drain(self) -> List[EpochVerdict]:
        """Audit everything pending; verdicts in epoch order."""
        while self._queue:
            self.step()
        return [self.verdicts[i] for i in sorted(self.verdicts)]

    def run(self, epochs: Iterable[Epoch]) -> List[EpochVerdict]:
        """Submit a sealed epoch sequence and drain (what ``audit`` does
        with a store that ``serve --seal-every`` wrote).

        ``epochs`` may be a lazy iterator (e.g.
        :func:`repro.continuous.codec.iter_epochs_stored`): combined with
        the bounded pending queue, at most ``max_pending + 1`` epochs are
        ever resident, so auditing a stored stream is O(epoch) in memory,
        not O(trace)."""
        for epoch in epochs:
            self.submit(epoch)
        return self.drain()

    # -- one epoch ----------------------------------------------------------

    def _preflight(
        self, epoch: Epoch
    ) -> tuple[Optional[EpochVerdict], Optional[Checkpoint]]:
        """Checks that precede any re-execution.  Returns
        ``(verdict, parent)``: a non-None verdict short-circuits the
        audit (chain forged, predecessor rejected, no advice, missing
        checkpoint); otherwise ``parent`` is the carry-in checkpoint (None
        at epoch 0)."""
        if self._chain_error is not None:
            return (
                self._reject(epoch, "checkpoint-chain-forged", self._chain_error),
                None,
            )
        if self._failed is not None:
            return (
                self._reject(
                    epoch,
                    "predecessor-rejected",
                    f"epoch {self._failed.epoch} rejected "
                    f"({self._failed.result.reason}); initial state unverifiable",
                ),
                None,
            )
        if epoch.advice is None:
            # ``has_advice`` is server-written: an epoch without advice
            # is malformed input, like any other unreadable stream.
            return (
                self._reject(
                    epoch, "input-format", f"epoch {epoch.index} carries no advice"
                ),
                None,
            )
        parent: Optional[Checkpoint] = None
        if epoch.index > 0:
            parent = self.checkpoints.get(epoch.index - 1)
            if parent is None:
                return (
                    self._reject(
                        epoch,
                        "missing-checkpoint",
                        f"no verified checkpoint for epoch {epoch.index - 1}",
                    ),
                    None,
                )
        return None, parent

    def _epoch_progress(self, epoch: Epoch) -> Optional[StageHook]:
        if self.progress is None:
            return None
        outer, index = self.progress, epoch.index
        return lambda stage, secs: outer(f"epoch[{index}].{stage}", secs)

    def _build_auditor(
        self, epoch: Epoch, parent: Optional[Checkpoint]
    ) -> Auditor:
        """The epoch's engine, its checkpoint node armed by
        :meth:`Auditor.for_epoch`: an accepted run leaves the
        digest-chained checkpoint in ``auditor.checkpoint``; an
        unextractable one rejects as ``checkpoint-unextractable``."""
        return Auditor.for_epoch(
            self.app,
            epoch,
            parent,
            parallelism=self.parallelism,
            scheduler=self.scheduler,
            metrics=self.metrics,
            progress=self._epoch_progress(epoch),
            dedup=self.dedup,
            node_journal=self.node_journal,
        )

    def _commit(
        self,
        epoch: Epoch,
        result: AuditResult,
        checkpoint: Optional[Checkpoint],
    ) -> EpochVerdict:
        """Journal the verdict and, on accept, extend the checkpoint
        chain.  A verified epoch's two durability barriers are taken
        here, in this order: ``put`` returns with checkpoint k durable,
        then ``record`` makes ``verified k`` durable.  Resume relies on
        it: *a durable ``verified k`` implies a durable checkpoint k
        whose digest it names*."""
        if not result.accepted:
            verdict = EpochVerdict(epoch.index, result)
            self._failed = verdict
            self.journal.record(
                "rejected", epoch.index, reason=result.reason, detail=result.detail
            )
            return verdict
        self.checkpoints.put(checkpoint)
        self.journal.record("verified", epoch.index, digest=checkpoint.digest)
        return EpochVerdict(
            epoch.index, result, checkpoint_digest=checkpoint.digest
        )

    def _reject(self, epoch: Epoch, reason: str, detail: str) -> EpochVerdict:
        """A verdict decided before re-execution: it names no stage."""
        verdict = EpochVerdict(
            epoch.index, AuditResult(accepted=False, reason=reason, detail=detail)
        )
        if self._failed is None and reason != "predecessor-rejected":
            self._failed = verdict
        self.journal.record("rejected", epoch.index, reason=reason, detail=detail)
        return verdict

    # -- aggregation ---------------------------------------------------------

    def stats(self) -> Dict[str, Union[int, float]]:
        """Aggregate statistics across audited epochs.

        Count-valued keys share their names (and int-ness) with
        :func:`~repro.verifier.audit.collect_stats`, so per-epoch and
        stream-level statistics line up key-for-key;
        ``first_verdict_seconds`` (time to the first verdict, the
        continuous-audit latency metric) is reported *alongside* the
        summed ``elapsed_seconds``, not instead of it."""
        out: Dict[str, Union[int, float]] = {
            "epochs": len(self.verdicts),
            "epochs_accepted": sum(
                1 for v in self.verdicts.values() if v.accepted
            ),
            "peak_pending": self.peak_pending,
            "backpressure_events": self.backpressure_events,
            "elapsed_seconds": float(
                sum(
                    v.result.stats.get("elapsed_seconds", 0.0)
                    for v in self.verdicts.values()
                )
            ),
        }
        for key in ("graph_nodes", "graph_edges", "groups", "handlers_executed"):
            out[key] = int(
                sum(v.result.stats.get(key, 0) for v in self.verdicts.values())
            )
        if self.first_verdict_seconds is not None:
            out["first_verdict_seconds"] = self.first_verdict_seconds
        return out
