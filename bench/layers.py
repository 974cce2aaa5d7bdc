"""The traced run: each layer measured from outside, one cost line each.

Times are calibrated microseconds per request.  Server-side layers are
differences between serves that add one layer at a time; fleet layers are
span self times from a pass that drives ``EpochSource.poll -> offer ->
start_job -> pool.admit / pump / take_done -> finish_job`` itself, in
``AuditService``'s loop order, and must reproduce the service's verdict
fingerprints exactly; verifier stages are direct calls per epoch.  Counts
come from ``MetricsRegistry`` objects passed through the public
``metrics=`` parameters and repeat exactly under a fixed seed.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import (
    AuditJournal,
    CheckpointStore,
    ContinuousAuditor,
    EpochSealer,
    IsolationLevel,
    KarousosPolicy,
    KVStore,
    UnmodifiedPolicy,
    advice_breakdown,
    audit,
    run_server,
    sequential_reexecute,
)
from repro.advice.slicing import slice_advice
from repro.continuous.checkpoint import checkpoint_from_audit
from repro.continuous.codec import iter_epochs_stored, write_epoch_stored
from repro.core.work import scaled_work
from repro.errors import AuditRejected
from repro.harness.experiment import make_app
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.service import EpochSource, SharedDagPool, TenantStream, TokenBucket
from repro.storage import backend_for
from repro.verifier.dag import NodeJournal
from repro.verifier.dedup import Deduplicator, VerdictCache
from repro.verifier.isolation import verify_isolation_level
from repro.verifier.postprocess import postprocess
from repro.verifier.preprocess import preprocess
from repro.verifier.reexec import ReExecutor
from repro.workload import workload_for

from bench.clock import Clock
from bench.phases import (
    Bench,
    Fingerprint,
    differing,
    fingerprints,
    rejected,
    service_fingerprints,
    tree_bytes,
)
from bench.spans import Tracer

NODE_STAGES = ("preprocess", "isolation", "dedup", "reexec", "merge",
               "postprocess", "checkpoint")
DIRECT_STAGES = ("verifier.preprocess", "verifier.isolation", "verifier.reexec",
                 "verifier.postprocess", "continuous.checkpoint")


class _TracedRunner:
    """Timing proxy for the pool's runner protocol: spans around
    ``execute`` (keyed by node stage) and ``absorb``."""

    def __init__(self, dag, tracer: Tracer, tenant: str, epoch: int):
        self.dag = dag
        self._tracer = tracer
        self._ids = (tenant, epoch)

    def execute(self, node):
        with self._tracer.span(f"verifier.dag.node.{node.stage}", *self._ids):
            return self.dag.execute(node)

    def absorb(self, node, outcome) -> None:
        with self._tracer.span("verifier.dag.absorb", *self._ids):
            self.dag.absorb(node, outcome)

    def __getattr__(self, name):
        return getattr(self.dag, name)


class _TracedTenant:
    def __init__(self, name: str, stream: TenantStream, source: EpochSource):
        self.name = name
        self.stream = stream
        self.source = source
        self.active = None
        self.backpressured = False


# -- server side ---------------------------------------------------------


def serve_plain(bench: Bench, policy_cls):
    return [bench.serve(s, policy_cls(), sealed=False)[0]
            for s in bench.served]


def serve_sealed(bench: Bench):
    return [bench.serve(s, KarousosPolicy())[0] for s in bench.served]


def slice_all(bench: Bench) -> None:
    for served in bench.served:
        for epoch in served.epochs:
            slice_advice(served.advice, set(epoch.request_ids()))


def encode_all(bench: Bench) -> str:
    root = bench.fresh_dir("encode")
    for served in bench.served:
        backend = backend_for("file", os.path.join(root, served.tenant.name))
        for epoch in served.epochs:
            write_epoch_stored(backend, epoch)
    return root


# -- verifier stages, direct ---------------------------------------------


def direct_stages(bench: Bench) -> Tuple[Dict[str, float], int]:
    """CPU seconds per stage over every epoch, carrying each
    checkpoint into the next epoch; and how many epochs rejected."""
    tracer = Tracer()
    failed = 0
    for served in bench.served:
        app = make_app(served.tenant.app)
        parent = None
        for epoch in served.epochs:
            carry = parent.carry_in() if parent is not None else None
            try:
                with tracer.span("verifier.preprocess"):
                    state = preprocess(app, epoch.trace, epoch.advice, carry)
                with tracer.span("verifier.isolation"):
                    verify_isolation_level(state)
                with tracer.span("verifier.reexec"):
                    re_exec = ReExecutor(state)
                    re_exec.run()
                with tracer.span("verifier.postprocess"):
                    postprocess(state, re_exec)
                with tracer.span("continuous.checkpoint"):
                    parent = checkpoint_from_audit(
                        epoch.index, parent, state, re_exec
                    )
            except AuditRejected:
                failed += 1
                break
    return tracer.self_seconds(), failed


# -- the fleet, with equal durability and no service ---------------------


def solo_durable(bench: Bench, metrics: Optional[MetricsRegistry] = None):
    """Per-tenant ``ContinuousAuditor`` reading the stored epochs, with
    the file-backed checkpoint chain, audit journal and node journal
    the service gives every tenant: the denominator of the
    multiplexing overhead.  ``metrics`` observes the node journal's
    backend only."""
    root = bench.fresh_dir("solo")
    out = {}
    for served in bench.served:
        name = served.tenant.name
        state = backend_for("file", os.path.join(root, name, "audit"))
        dedup = Deduplicator(VerdictCache()) if bench.workload.dedup else None
        auditor = ContinuousAuditor(
            make_app(served.tenant.app),
            checkpoints=CheckpointStore(backend=state),
            journal=AuditJournal(backend=state),
            scheduler="serial",
            dedup=dedup,
            node_journal=NodeJournal(backend_for(
                "file", os.path.join(root, name, "nodejournal"), metrics=metrics
            )),
        )
        try:
            out[name] = fingerprints(auditor.run(
                iter_epochs_stored(backend_for("file", served.staging))
            ))
        finally:
            auditor.checkpoints.close()
            auditor.journal.close()
    return out


# -- the fleet, traced ---------------------------------------------------


def traced_fleet(bench: Bench):
    """``AuditService``'s closed loop, driven from here with a span
    around every call into a layer."""
    tracer = Tracer()
    state_dir = bench.fresh_dir("state")
    with tracer.span("service.start"):
        cache = VerdictCache() if bench.workload.dedup else None
        tenants: List[_TracedTenant] = []
        quotas = {}
        for config in bench.tenant_configs(bench.staging):
            stream = TenantStream(
                config,
                make_app(config.app),
                state_dir=os.path.join(state_dir, config.name),
                metrics=MetricsRegistry(),
                dedup=Deduplicator(cache) if cache is not None else None,
            )
            source = EpochSource(
                backend_for(config.scheme, config.store), torn_limit=16
            )
            tenants.append(_TracedTenant(config.name, stream, source))
            quotas[config.name] = TokenBucket(config.quota)
        by_name = {t.name: t for t in tenants}
        pool = SharedDagPool(scheduler="serial", jobs=1, quotas=quotas, fair=True)

    stats = {"backlog_max": 0, "plan_nodes": 0}
    try:
        while True:
            progressed = False
            for t in tenants:
                room = t.stream.queue_room
                if room <= 0:
                    if t.source.has_pending() and not t.backpressured:
                        t.stream.backpressure_events += 1
                        t.backpressured = True
                    continue
                t.backpressured = False
                with tracer.span("service.ingest", t.name):
                    epochs = t.source.poll(room)
                for epoch in epochs:
                    with tracer.span("service.offer", t.name, epoch.index):
                        t.stream.offer(epoch)
                    progressed = True
            stats["backlog_max"] = max(
                stats["backlog_max"], sum(t.stream.pending for t in tenants)
            )
            for t in tenants:
                if t.active is not None:
                    continue
                before = len(t.stream.verdicts)
                with tracer.span("verifier.dag.prepare", t.name):
                    started = t.stream.start_job()
                progressed |= len(t.stream.verdicts) > before
                if started is None:
                    continue
                epoch, dag, nodes, edges = started
                stats["plan_nodes"] += len(nodes)
                runner = _TracedRunner(dag, tracer, t.name, epoch.index)
                t.active = pool.admit(t.name, runner, nodes, edges, tag=epoch)
                progressed = True
            with tracer.span("service.pool"):
                progressed |= pool.pump(max_nodes=128) > 0
            for job in pool.take_done():
                t = by_name[job.tenant]
                with tracer.span("service.commit", t.name, job.tag.index):
                    t.stream.finish_job(job.tag, job.runner.dag)
                t.active = None
                progressed = True
            if progressed:
                continue
            if pool.idle and all(
                t.stream.pending == 0 and t.active is None
                and (not t.source.has_pending() or t.source.corrupt)
                for t in tenants
            ):
                break
            time.sleep(0.05)
    finally:
        with tracer.span("service.stop"):
            for t in tenants:
                t.stream.close()
            if cache is not None:
                cache.close()
            pool.shutdown()

    counters: Dict[str, float] = defaultdict(float)
    for t in tenants:
        for name, value in t.stream.metrics.snapshot()["counters"].items():
            counters[name] += value
        for key in ("graph_nodes", "groups", "handlers_executed", "epochs"):
            stats[key] = stats.get(key, 0) + t.stream.stats()[key]
    stats.update(
        ticks=pool.ticks,
        quota_rounds=pool.quota_rounds,
        quota_throttled=sum(pool.throttled.values()),
        backpressure_events=sum(t.stream.backpressure_events for t in tenants),
        torn_reads=sum(t.source.torn_reads for t in tenants),
        dedup_hits=counters["reexec.dedup_groups"],
        cache_misses=counters["reexec.cache_misses"],
        cache_fallbacks=counters["reexec.cache_fallbacks"],
    )
    prints: Dict[str, List[Fingerprint]] = {
        t.name: fingerprints(t.stream.verdicts[i] for i in sorted(t.stream.verdicts))
        for t in tenants
    }
    return tracer, prints, stats


# -- counts --------------------------------------------------------------


def counts(bench: Bench) -> Dict[str, float]:
    """One untimed pass with metrics on: the Karousos serve (KEM, store
    and storage counters) and the durable solo audit (node-journal
    bytes and fsyncs)."""
    registry = MetricsRegistry()
    root = bench.fresh_dir("counts")
    for served in bench.served:
        backend = backend_for(
            "file", os.path.join(root, served.tenant.name), metrics=registry
        )
        sink = lambda epoch, backend=backend: write_epoch_stored(backend, epoch)
        bench.serve(served, KarousosPolicy(), sink=sink, metrics=registry)
    serve = defaultdict(float, registry.snapshot()["counters"])
    journal = MetricsRegistry()
    solo_durable(bench, metrics=journal)
    node = defaultdict(float, journal.snapshot()["counters"])
    breakdown: Dict[str, int] = defaultdict(int)
    for served in bench.served:
        for part, size in advice_breakdown(served.advice).items():
            breakdown[part] += size
    n, epochs = bench.workload.n, bench.epoch_count
    return {
        "kem.activations_per_req": serve["kem.activations"] / n,
        "store.ops_per_req": (serve["store.gets"] + serve["store.puts"]) / n,
        "store.commits_per_req": serve["store.commits"] / n,
        "store.wasted_per_req": (
            serve["store.aborts"] + serve["store.retries"]
            + serve["store.lock_conflicts"]
        ) / n,
        "storage.records_per_req": serve["storage.file.records_written"] / n,
        "storage.fsyncs_per_epoch": (
            serve["storage.file.fsyncs"] + node["storage.file.fsyncs"]
        ) / epochs,
        "verifier.dag.journal_bytes_per_req": node["storage.file.bytes_written"] / n,
        "advice.variable_log_share": (
            breakdown["variable_logs"] / sum(breakdown.values())
        ),
    }


def _fixed_serve(app: str, n: int, seed: int, sealer=None):
    """A serve that is the same whatever workload is running: work-scale
    1, concurrency 8."""
    with scaled_work(1.0):
        return run_server(
            make_app(app),
            workload_for(app, n, mix="mixed", seed=seed),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(seed),
            concurrency=8,
            sealer=sealer,
        )


def mono_speedup(bench: Bench, clock: Clock, n: int, reps: int) -> float:
    """Fig. 7 at paper scale: ``sequential_reexecute`` over monolithic
    ``audit()`` on an unsealed ``n``-request wiki run, both arms in each
    repetition."""
    run = _fixed_serve("wiki", n, bench.seed)
    ratios = []
    for _ in range(reps):
        with scaled_work(1.0):
            seq, mono = clock.run([
                lambda: sequential_reexecute(
                    make_app("wiki"), run.trace,
                    lambda: KVStore(IsolationLevel.SERIALIZABLE),
                ),
                lambda: audit(make_app("wiki"), run.trace, run.advice),
            ])
        bench.ops.check("monolithic audit rejected", 1, not mono.result.accepted)
        ratios.append(seq.seconds / mono.seconds)
    return statistics.median(ratios)


def stacks_bytes_per_req(bench: Bench, n: int) -> float:
    """Why ``stacks`` is not a tenant: its sealed epochs re-embed the whole
    ``list`` response, so the store grows quadratically."""
    root = bench.fresh_dir("stacks")
    backend = backend_for("file", root)
    _fixed_serve("stacks", n, bench.seed, EpochSealer(
        10, sink=lambda epoch: write_epoch_stored(backend, epoch)
    ))
    return tree_bytes(root) / n


def per_layer(bench: Bench, clock: Clock, reps: int, quick: bool):
    """Run the traced measurement; returns (metrics, (last tracer, the
    factor that calibrates its pass's seconds))."""
    ops = bench.ops
    n, epochs = bench.workload.n, bench.epoch_count
    samples: Dict[str, List[float]] = defaultdict(list)
    traced_info = None
    for _ in range(reps):
        steps = [
            lambda: serve_plain(bench, UnmodifiedPolicy),
            lambda: serve_plain(bench, KarousosPolicy),
            lambda: serve_sealed(bench),
            lambda: slice_all(bench),
            lambda: encode_all(bench),
            lambda: traced_fleet(bench),
            bench.fleet_closed,
            lambda: solo_durable(bench),
            lambda: direct_stages(bench),
            bench.sequential,
        ]
        (unmod, plain, sealed, slicing, encode, traced, fleet, solo, direct,
         sequential) = clock.run(steps)
        us = 1e6 / n
        samples["kem.serve_unmodified_us_per_req"].append(unmod.seconds * us)
        samples["server.advice_us_per_req"].append((plain.seconds - unmod.seconds) * us)
        samples["continuous.seal_us_per_req"].append((sealed.seconds - plain.seconds) * us)
        samples["advice.slice_us_per_req"].append(slicing.seconds * us)
        samples["continuous.epoch_encode_us_per_req"].append(encode.seconds * us)
        samples["storage.encode_mb_per_s"].append(
            tree_bytes(encode.result) / 1e6 / encode.seconds
        )
        samples["baselines.sequential_us_per_req"].append(sequential.seconds * us)

        tracer, prints, stats = traced.result
        scale = traced.scale
        own = defaultdict(float, tracer.self_seconds())
        for stage in NODE_STAGES:
            samples[f"verifier.dag.node.{stage}_us_per_req"].append(
                own[f"verifier.dag.node.{stage}"] * scale * us
            )
        for metric, span in (
            ("service.ingest_us_per_req", "service.ingest"),
            ("verifier.dag.prepare_us_per_req", "verifier.dag.prepare"),
            ("verifier.dag.absorb_us_per_req", "verifier.dag.absorb"),
            ("service.pool_overhead_us_per_req", "service.pool"),
            ("service.commit_us_per_req", "service.commit"),
        ):
            samples[metric].append(own[span] * scale * us)
        samples["bench.trace_overhead_x"].append(traced.seconds / fleet.seconds)
        samples["service.multiplex_overhead_x"].append(fleet.seconds / solo.seconds)

        stage_seconds, direct_rejected = direct.result
        scale_direct = direct.scale
        for span in DIRECT_STAGES:
            samples[f"{span}_us_per_req"].append(
                stage_seconds.get(span, 0.0) * scale_direct * us
            )

        service = service_fingerprints(fleet.result[0])
        ops.check("traced fleet fingerprint differs from AuditService", epochs,
                  differing(prints, service))
        ops.check("durable solo fingerprint differs from AuditService", epochs,
                  differing(solo.result, service))
        ops.check("honest epoch rejected on the traced fleet path", epochs,
                  rejected(prints))
        ops.check("honest epoch rejected by direct stage calls", epochs,
                  direct_rejected)
        ops.check("span self times miss the traced pass's CPU time by over 10%", 1,
                  abs(sum(own.values()) - traced.cpu) > 0.10 * traced.cpu)
        samples["service.io_wait_share"].append(1.0 - fleet.cpu / fleet.wall)
        traced_info = (tracer, scale, stats)
        bench.sweep()

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    stats = traced_info[2]
    metrics.update(counts(bench))
    lookups = stats["dedup_hits"] + stats["cache_misses"]
    metrics.update({
        "verifier.handlers_reexecuted_per_req": stats["handlers_executed"] / n,
        "verifier.groups_per_epoch": stats["groups"] / epochs,
        "verifier.graph_nodes_per_req": stats["graph_nodes"] / n,
        "verifier.dedup.hit_ratio": stats["dedup_hits"] / lookups if lookups else 0.0,
        "verifier.dedup.fallbacks": stats["cache_fallbacks"],
        "verifier.dag.plan_nodes_per_epoch": stats["plan_nodes"] / epochs,
        "service.ticks_per_epoch": stats["ticks"] / epochs,
        "service.quota_rounds": stats["quota_rounds"],
        "service.quota_throttled": stats["quota_throttled"],
        "service.backpressure_events": stats["backpressure_events"],
        "service.backlog_max_epochs": stats["backlog_max"],
        "service.torn_reads": stats["torn_reads"],
        "verifier.mono600_speedup_x": mono_speedup(
            bench, clock, 60 if quick else 600, reps
        ),
        "storage.stacks200_bytes_per_req": stacks_bytes_per_req(
            bench, 30 if quick else 200
        ),
    })
    bench.sweep()
    return metrics, traced_info[:2]
