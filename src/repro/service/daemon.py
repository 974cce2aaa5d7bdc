"""The fleet audit service (DESIGN.md §15).

:class:`AuditService` is the long-running ``repro serve-audit`` core:
N tenant streams multiplexed over one shared DAG pool, one scheduling
thread.  The main loop interleaves four phases:

1. **ingest** -- each tenant's :class:`~repro.service.tenant.EpochSource`
   is polled for newly sealed epochs, bounded by the tenant's queue
   room; a full queue records backpressure and leaves the source's
   watermark in place (nothing is dropped, nothing blocks);
2. **admit** -- an idle tenant's oldest queued epoch is compiled to a
   DAG and admitted to the shared pool (short-circuit verdicts --
   cascade rejections, forged chains -- are recorded without touching
   the pool);
3. **pump** -- the pool executes a bounded batch of ready nodes under
   the weighted-fair / quota policy;
4. **harvest** -- finished plans commit their verdicts through the
   tenant stream (journal, checkpoint chain, metrics), exactly like a
   solo continuous audit.

Lifecycle: :meth:`request_stop` (the SIGTERM handler) drains -- in-
flight worker results are absorbed and journaled, the interrupted
epoch's node journal is sealed (``abandon``), every tenant's stores are
closed -- so a restarted service resumes each tenant at node
granularity: verified epochs skip via the audit journal, the
interrupted epoch replays its journaled nodes, queued epochs re-read
from the source.

One process-wide :class:`~repro.verifier.dedup.cache.VerdictCache` may
be shared across tenants (``dedup=True``): each tenant keeps its *own*
:class:`~repro.verifier.dedup.executor.Deduplicator` (per-stage stats
stay per-tenant, so hit/miss attribution lands in that tenant's
metrics) over the one cache, and the service closes the cache exactly
once at shutdown.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs import MetricsRegistry
from repro.service.http import StatusServer
from repro.service.pool import PlanJob, SharedDagPool
from repro.service.quota import TokenBucket
from repro.service.tenant import EpochSource, TenantConfig, TenantStream
from repro.storage.backend import backend_for


class _TenantRuntime:
    """One tenant's live wiring inside the service."""

    def __init__(self, config: TenantConfig, stream: TenantStream,
                 source: EpochSource):
        self.config = config
        self.name = config.name
        self.stream = stream
        self.source = source
        self.active: Optional[PlanJob] = None
        self.backpressured = False  # currently in the full-queue state?

    @property
    def corrupt(self) -> bool:
        """Nothing more of this tenant can be audited: its pending epoch
        never decodes, or its own stored state did not load."""
        return self.source.corrupt or bool(self.stream.state_error)

    @property
    def error(self) -> str:
        return self.stream.state_error or self.source.last_error


class AuditService:
    """N tenant streams over one shared DAG scheduler."""

    def __init__(
        self,
        tenants: List[TenantConfig],
        state_dir: str,
        scheduler: str = "serial",
        jobs: int = 1,
        quotas_enabled: bool = True,
        dedup: bool = False,
        cache_dir: Optional[str] = None,
        status_port: Optional[int] = None,
        metrics_out: Optional[str] = None,
        metrics_every: float = 2.0,
        poll_interval: float = 0.05,
        pump_batch: int = 128,
        torn_limit: int = 16,
        app_factory=None,
    ):
        if not tenants:
            raise ValueError("a service needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if app_factory is None:
            from repro.harness.experiment import make_app as app_factory
        self.state_dir = state_dir
        self.status_port = status_port
        self.metrics_out = metrics_out
        self.metrics_every = metrics_every
        self.poll_interval = poll_interval
        self.pump_batch = pump_batch
        self._publish_every = 0.25  # status-snapshot refresh cadence
        self.torn_limit = torn_limit
        self.metrics = MetricsRegistry()  # service-level (fleet) registry
        self._stop = threading.Event()
        self._snap_lock = threading.Lock()
        self._published: Optional[Dict[str, object]] = None
        self._running = False
        self.status: Optional[StatusServer] = None
        self.epoch_ticks: List[Dict[str, object]] = []

        self.cache = None
        if dedup:
            from repro.verifier.dedup import VerdictCache

            cache_backend = (
                backend_for("file", cache_dir) if cache_dir else None
            )
            self.cache = VerdictCache(backend=cache_backend,
                                      metrics=self.metrics)

        quotas: Dict[str, TokenBucket] = {}
        self._tenants: List[_TenantRuntime] = []
        for config in tenants:
            tenant_state = config.state or os.path.join(state_dir, config.name)
            tenant_dedup = None
            if self.cache is not None:
                from repro.verifier.dedup import Deduplicator

                tenant_dedup = Deduplicator(self.cache)
            stream = TenantStream(
                config,
                app_factory(config.app),
                state_dir=tenant_state,
                metrics=MetricsRegistry(),  # private; merged under a prefix
                dedup=tenant_dedup,
            )
            source = EpochSource(
                backend_for(config.scheme, config.store),
                start_index=stream._next_index,
                torn_limit=torn_limit,
            )
            self._tenants.append(_TenantRuntime(config, stream, source))
            if quotas_enabled:
                quotas[config.name] = TokenBucket(config.quota)
        self._by_name = {rt.name: rt for rt in self._tenants}
        self.pool = SharedDagPool(
            scheduler=scheduler,
            jobs=jobs,
            quotas=quotas,
            fair=quotas_enabled,
        )

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Signal-safe: ask the main loop to drain and exit."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def run(self, once: bool = False) -> int:
        """The scheduling loop.  ``once=True`` exits when every source
        is exhausted and every queue and plan has drained (the batch /
        CI mode); otherwise runs until :meth:`request_stop`.  Returns
        the number of epochs audited this run."""
        audited0 = sum(len(rt.stream.verdicts) for rt in self._tenants)
        self._running = True
        self._publish_snapshot()  # never serve a None/racy first scrape
        if self.status_port is not None and self.status is None:
            self.status = StatusServer(self.fleet_snapshot,
                                       port=self.status_port)
            self.status.start()
        last_metrics = last_publish = time.monotonic()
        try:
            while not self._stop.is_set():
                progressed = self._ingest() > 0
                progressed |= self._admit() > 0
                progressed |= self.pool.pump(
                    max_nodes=self.pump_batch, stop=self._stop.is_set
                ) > 0
                progressed |= self._harvest() > 0
                now = time.monotonic()
                if (
                    self.metrics_out
                    and now - last_metrics >= self.metrics_every
                ):
                    self._write_metrics()
                    last_metrics = last_publish = now
                elif now - last_publish >= self._publish_every:
                    self._publish_snapshot()
                    last_publish = now
                if once and not progressed and self._drained():
                    break
                if not progressed and not self._stop.is_set():
                    time.sleep(self.poll_interval)
        finally:
            try:
                self._shutdown()
            finally:
                self._running = False
        return sum(len(rt.stream.verdicts) for rt in self._tenants) - audited0

    def _drained(self) -> bool:
        # A corrupt tenant is done *waiting* (nothing will ever decode
        # its pending epoch, or load its state); it is reported as an
        # input failure by summary(), not silently skipped.
        return (
            self.pool.idle
            and all(
                not rt.stream._queue and rt.active is None
                for rt in self._tenants
            )
            and all(
                not rt.source.has_pending() or rt.corrupt
                for rt in self._tenants
            )
        )

    def _shutdown(self) -> None:
        # Drain: absorb (and journal) every in-flight worker result
        # without launching anything new, commit plans that finished,
        # release the node journal of the plan that didn't.
        self.pool.pump(launch=False)
        self._harvest()
        for rt in self._tenants:
            if rt.active is not None:
                rt.active.runner.abandon()
                rt.active = None
        if self.metrics_out:
            self._write_metrics()
        if self.status is not None:
            self.status.stop()
            self.status = None
        for rt in self._tenants:
            rt.stream.close()
        if self.cache is not None:
            self.cache.close()
        self.pool.shutdown()

    # -- loop phases -------------------------------------------------------

    def _ingest(self) -> int:
        count = 0
        for rt in self._tenants:
            if rt.stream.state_error:
                continue  # no trusted point to resume from
            room = rt.stream.queue_room
            if room <= 0:
                if rt.source.has_pending() and not rt.backpressured:
                    # Sealed epochs are waiting but the queue is full:
                    # one backpressure event per *entry* into that state
                    # (not per poll -- the watermark stays put either
                    # way), matching the solo driver's semantics.
                    rt.stream.backpressure_events += 1
                    rt.backpressured = True
                continue
            rt.backpressured = False
            for epoch in rt.source.poll(room):
                rt.stream.offer(epoch)
                count += 1
        return count

    def _admit(self) -> int:
        count = 0
        for rt in self._tenants:
            if rt.active is not None:
                continue
            before = len(rt.stream.verdicts)
            started = rt.stream.start_job()
            count += len(rt.stream.verdicts) - before  # short-circuits
            if started is None:
                continue
            epoch, dag, nodes, edges = started
            rt.active = self.pool.admit(rt.name, dag, nodes, edges, tag=epoch)
            count += 1
        return count

    def _harvest(self) -> int:
        count = 0
        for job in self.pool.take_done():
            rt = self._by_name[job.tenant]
            epoch = job.tag
            rt.stream.finish_job(epoch, job.runner)
            rt.active = None
            self.epoch_ticks.append(
                {
                    "tenant": job.tenant,
                    "epoch": epoch.index,
                    "admitted_tick": job.admitted_tick,
                    "completed_tick": job.completed_tick,
                }
            )
            count += 1
        return count

    # -- observability -----------------------------------------------------

    def fleet_snapshot(self) -> Dict[str, object]:
        """The fleet ``repro.metrics/1`` document.  While the
        scheduling loop is live this returns the loop's last *published*
        snapshot (the HTTP thread must never iterate mutable verdict /
        registry state the loop is writing); once the loop has exited it
        builds a fresh one."""
        with self._snap_lock:
            published = self._published
        if self._running and published is not None:
            return published
        return self._build_fleet_snapshot()

    def _publish_snapshot(self) -> Dict[str, object]:
        """Main-loop only: build a snapshot and hand the immutable
        result to the status thread."""
        doc = self._build_fleet_snapshot()
        with self._snap_lock:
            self._published = doc
        return doc

    def _build_fleet_snapshot(self) -> Dict[str, object]:
        """One ``repro.metrics/1`` document for the whole fleet:
        service-level metrics at the top level, each tenant's registry
        under ``tenant.<name>.``, plus live per-tenant gauges.  Touches
        live state -- call from the scheduling thread (or at rest)."""
        fleet = MetricsRegistry()
        fleet.merge(self.metrics.snapshot())
        fleet.gauge("service.tenants").set(len(self._tenants))
        fleet.gauge("service.ticks").set(self.pool.ticks)
        fleet.gauge("service.quota_rounds").set(self.pool.quota_rounds)
        for rt in self._tenants:
            prefix = f"tenant.{rt.name}."
            fleet.merge(rt.stream.metrics.snapshot(), prefix=prefix)
            gauge = lambda name, value: fleet.gauge(prefix + name).set(value)  # noqa: E731
            stream = rt.stream
            gauge("service.backlog", len(stream._queue))
            gauge("service.epochs_verified", sum(
                1 for v in stream.verdicts.values() if v.accepted
            ))
            gauge("service.epochs_rejected", sum(
                1 for v in stream.verdicts.values() if not v.accepted
            ))
            gauge("service.backpressure_events", stream.backpressure_events)
            gauge("service.ingested", rt.source.ingested)
            gauge("service.torn_reads", rt.source.torn_reads)
            gauge("service.input_corrupt", int(rt.corrupt))
            gauge("service.resumed_epochs", stream.skipped_resumed)
            gauge("service.quota_throttled",
                  self.pool.throttled.get(rt.name, 0))
        return fleet.snapshot()

    def _write_metrics(self) -> None:
        doc = self._publish_snapshot()
        tmp = self.metrics_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.metrics_out)

    def summary(self) -> Dict[str, object]:
        """Per-tenant verdict summary (the ``--once`` report)."""
        tenants = {}
        for rt in self._tenants:
            stream = rt.stream
            verdicts = [stream.verdicts[i] for i in sorted(stream.verdicts)]
            rejection = stream.first_rejection
            # A corrupt epoch stream (or state stream) is an audit
            # failure, not a clean drain: the solo CLI rejects the same
            # input with reason=input-format, and batch mode must not
            # report ACCEPT for a tenant whose tail was never audited.
            corrupt = rt.corrupt
            if rejection is not None:
                reason = rejection.result.reason
            elif corrupt:
                reason = "input-format"
            else:
                reason = "accepted"
            tenants[rt.name] = {
                "app": rt.config.app,
                "accepted": rejection is None
                and not corrupt
                and all(v.accepted for v in verdicts),
                "reason": reason,
                "input": {
                    "pending": rt.source.has_pending(),
                    "ingested": rt.source.ingested,
                    "torn_reads": rt.source.torn_reads,
                    "corrupt": corrupt,
                    "error": rt.error,
                },
                "resumed_epochs": stream.skipped_resumed,
                "stats": stream.stats(),
                "epochs": [
                    {
                        "epoch": v.epoch,
                        "accepted": v.accepted,
                        "reason": v.result.reason,
                        "detail": v.result.detail,
                        "checkpoint_digest": v.checkpoint_digest,
                    }
                    for v in verdicts
                ],
            }
        return {
            "tenants": tenants,
            "ticks": self.pool.ticks,
            "quota_rounds": self.pool.quota_rounds,
        }


__all__ = ["AuditService"]
