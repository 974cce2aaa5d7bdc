"""One workload's set-up and its timed end-to-end phases.

Each phase calls the system through its public functions only and returns
what the correctness gate needs; nothing here reads a clock except the
open-loop pass, whose latencies are its result.  The caller
(:mod:`bench.run`) times every phase on the paced clock.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import (
    ContinuousAuditor,
    EpochSealer,
    IsolationLevel,
    KarousosPolicy,
    KVStore,
    UnmodifiedPolicy,
    run_server,
    sequential_reexecute,
)
from repro.attacks.tamper import tamper_response
from repro.continuous.codec import epoch_stream_name, write_epoch_stored
from repro.continuous.epoch import Epoch
from repro.harness.experiment import app_needs_store, make_app
from repro.kem.scheduler import RandomScheduler
from repro.service import AuditService, TenantConfig
from repro.storage import backend_for
from repro.storage.backend import FileBackend
from repro.verifier.dedup import Deduplicator, VerdictCache

from bench.workloads import Tenant, Workload, requests_for

Fingerprint = Tuple[int, bool, str, Optional[str]]

# How long after its due time an open-loop epoch may wait for its verdict
# before it counts as a failed operation (wall seconds).
VERDICT_DEADLINE_S = 30.0


@dataclass
class Ops:
    """Operations attempted and failed by the correctness gate."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed}/{attempted}")


@dataclass
class Served:
    """One tenant's warm-up serve: the inputs of every audit phase."""

    tenant: Tenant
    requests: list
    seed: int
    trace: object = None
    advice: object = None
    epochs: List[Epoch] = field(default_factory=list)
    staging: str = ""  # directory holding the pre-encoded epoch streams


def tree_bytes(root: str, skip: str = "") -> int:
    """Bytes of the files under ``root``, leaving out directories named
    ``skip``."""
    total = 0
    for base, dirs, files in os.walk(root):
        if skip in dirs:
            dirs.remove(skip)
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def fingerprints(verdicts) -> List[Fingerprint]:
    return [
        (v.epoch, v.accepted, v.result.reason, v.checkpoint_digest)
        for v in verdicts
    ]


def rejected(prints: Dict[str, List[Fingerprint]]) -> int:
    """Epochs that did not ACCEPT."""
    return sum(not accepted for fp in prints.values() for _, accepted, _, _ in fp)


def differing(a: Dict[str, List[Fingerprint]], b: Dict[str, List[Fingerprint]]) -> int:
    """Epochs whose fingerprint differs between two paths."""
    count = 0
    for name in set(a) | set(b):
        left, right = a.get(name, []), b.get(name, [])
        count += abs(len(left) - len(right))
        count += sum(x != y for x, y in zip(left, right))
    return count


def service_fingerprints(service: AuditService) -> Dict[str, List[Fingerprint]]:
    return {
        name: [
            (e["epoch"], e["accepted"], e["reason"], e["checkpoint_digest"])
            for e in doc["epochs"]
        ]
        for name, doc in service.summary()["tenants"].items()
    }


class Bench:
    """A workload bound to a seed and a scratch directory."""

    def __init__(self, workload: Workload, seed: int, workdir: str, ops: Ops):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.served: List[Served] = []
        self._fresh = 0

    # -- helpers -----------------------------------------------------------

    def fresh_dir(self, label: str) -> str:
        """A new empty directory; phases never reuse one, so nothing has to
        be deleted inside a timed region."""
        self._fresh += 1
        path = os.path.join(self.workdir, f"{label}-{self._fresh}")
        os.makedirs(path)
        return path

    def sweep(self) -> None:
        """Delete every phase directory (staging stays); untimed."""
        for name in os.listdir(self.workdir):
            if name != "staging":
                shutil.rmtree(os.path.join(self.workdir, name), ignore_errors=True)

    def store_for(self, app: str, metrics=None) -> Optional[KVStore]:
        if not app_needs_store(app):
            return None
        return KVStore(IsolationLevel.SERIALIZABLE, metrics=metrics)

    def serve(self, served: Served, policy, sealed: bool = True, sink=None,
              metrics=None):
        """``run_server`` with this workload's schedule; returns the run
        and its sealer (None when ``sealed`` is false)."""
        tenant = served.tenant
        sealer = EpochSealer(tenant.seal_every, sink=sink) if sealed else None
        run = run_server(
            make_app(tenant.app),
            served.requests,
            policy,
            store=self.store_for(tenant.app, metrics),
            scheduler=RandomScheduler(served.seed),
            concurrency=self.workload.concurrency,
            sealer=sealer,
            metrics=metrics,
        )
        return run, sealer

    def tenant_configs(self, stores: Dict[str, str]) -> List[TenantConfig]:
        return [
            TenantConfig(app=s.tenant.app, store=stores[s.tenant.name],
                         name=s.tenant.name, quota=s.tenant.quota)
            for s in self.served
        ]

    @property
    def staging(self) -> Dict[str, str]:
        return {s.tenant.name: s.staging for s in self.served}

    @property
    def epoch_count(self) -> int:
        return sum(len(s.epochs) for s in self.served)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Workload generation, one warm-up serve, pre-encoding the
        open-loop epoch files, and the tamper probe."""
        self._generate()
        self._warm_serve()
        self._stage_epochs()
        self._tamper_probe()

    def _generate(self) -> None:
        self.served = [
            Served(tenant, requests_for(tenant, self.seed + i), self.seed + i)
            for i, tenant in enumerate(self.workload.tenants)
        ]

    def _warm_serve(self) -> None:
        for served in self.served:
            run, sealer = self.serve(served, KarousosPolicy())
            served.trace, served.advice = run.trace, run.advice
            served.epochs = sealer.epochs

    def _stage_epochs(self) -> None:
        root = os.path.join(self.workdir, "staging")
        shutil.rmtree(root, ignore_errors=True)
        for served in self.served:
            served.staging = os.path.join(root, served.tenant.name)
            backend = backend_for("file", served.staging)
            for epoch in served.epochs:
                write_epoch_stored(backend, epoch)

    def _tamper_probe(self) -> None:
        """An epoch whose first response was altered must REJECT."""
        missed = 0
        for served in self.served:
            epoch = served.epochs[0]
            trace, advice = tamper_response(epoch.trace, epoch.advice)
            forged = Epoch(epoch.index, trace, advice, epoch.binlog_range)
            verdicts = ContinuousAuditor(make_app(served.tenant.app)).run([forged])
            missed += verdicts[0].accepted
        self.ops.check("tamper probe accepted", len(self.served), missed)

    # -- closed-loop phases ------------------------------------------------

    def serve_unmodified(self):
        """The unmodified server on the same requests and schedule (a
        sink-less sealer reproduces the quiescent drains)."""
        return [self.serve(s, UnmodifiedPolicy())[0] for s in self.served]

    def serve_karousos(self):
        """The shipped ``repro serve --seal-every --store file`` path:
        advice collection, sealing, and epoch encoding to the file
        backend."""
        root = self.fresh_dir("serve")
        runs = []
        for served in self.served:
            backend = backend_for("file", os.path.join(root, served.tenant.name))
            sink = lambda epoch, backend=backend: write_epoch_stored(backend, epoch)
            runs.append(self.serve(served, KarousosPolicy(), sink=sink)[0])
        return runs, root

    def sequential(self):
        return [
            sequential_reexecute(
                make_app(s.tenant.app),
                s.trace,
                (lambda: KVStore(IsolationLevel.SERIALIZABLE))
                if app_needs_store(s.tenant.app) else None,
            )
            for s in self.served
        ]

    def solo_audit(self) -> Dict[str, List[Fingerprint]]:
        """Engine only: in-memory epochs through ``ContinuousAuditor``."""
        out = {}
        for served in self.served:
            dedup = Deduplicator(VerdictCache()) if self.workload.dedup else None
            auditor = ContinuousAuditor(
                make_app(served.tenant.app), max_pending=4, dedup=dedup
            )
            for epoch in served.epochs:
                auditor.submit(epoch)
            out[served.tenant.name] = fingerprints(auditor.drain())
        return out

    def new_service(self, stores: Dict[str, str]) -> Tuple[AuditService, str]:
        state_dir = self.fresh_dir("state")
        service = AuditService(
            self.tenant_configs(stores),
            state_dir=state_dir,
            scheduler="serial",
            jobs=1,
            dedup=self.workload.dedup,
        )
        return service, state_dir

    def fleet_closed(self):
        """Every epoch already stored: decode, DAG engine, durable
        checkpoint chain, audit journal and node journal."""
        service, state_dir = self.new_service(self.staging)
        service.run(once=True)
        return service, state_dir

    # -- the open loop -----------------------------------------------------

    def open_loop(self, scale: float):
        """Release pre-encoded epochs on a fixed schedule into live tenant
        stores while ``AuditService`` tails them; returns wall latencies
        (verdict observed minus due), generator lateness, verdicts missing
        and the service.  ``scale`` is the clock's latest factor from wall
        to calibrated seconds."""
        pending = self.fresh_dir("pending")
        live = self.fresh_dir("live")
        stores = {}
        for served in self.served:
            name = served.tenant.name
            shutil.copytree(served.staging, os.path.join(pending, name))
            stores[name] = os.path.join(live, name)
            os.makedirs(stores[name])

        # Due times are fixed in calibrated seconds and stretched by how
        # slow the machine is right now, so the offered share of capacity
        # stays the same.
        stretch = 1.0 / scale
        total = self.workload.n
        schedule = []
        for served in self.served:
            name = served.tenant.name
            rate = self.workload.offered_rps * served.tenant.n / total
            due = 0.0
            for epoch in served.epochs:
                fname = epoch_stream_name(epoch.index) + FileBackend.suffix
                schedule.append((
                    due * stretch, name, epoch.index,
                    os.path.join(pending, name, fname),
                    os.path.join(stores[name], fname),
                ))
                due += epoch.request_count / rate
        schedule.sort()

        service, _ = self.new_service(stores)
        result = {"observed": {}, "late": [], "error": None}
        start = time.perf_counter() + 0.02
        driver = threading.Thread(
            target=_drive, args=(service, schedule, start, result), daemon=True
        )
        driver.start()
        service.run(once=False)
        driver.join(timeout=VERDICT_DEADLINE_S)
        if result["error"] is not None:
            raise result["error"]
        latencies = [
            result["observed"][(name, index)] - (start + due)
            for due, name, index, _, _ in schedule
            if (name, index) in result["observed"]
        ]
        missing = len(schedule) - len(latencies)
        return latencies, result["late"], missing, service


def _drive(service: AuditService, schedule, start: float, result: dict) -> None:
    """Generator and observer, one thread: release each epoch at its due
    time, stamp each verdict when ``epoch_ticks`` grows (2 ms poll), stop
    the service after the last verdict or the deadline."""
    try:
        released = seen = 0
        deadline = start + schedule[-1][0] + VERDICT_DEADLINE_S
        while True:
            now = time.perf_counter()
            while released < len(schedule) and start + schedule[released][0] <= now:
                due, _, _, src, dst = schedule[released]
                os.replace(src, dst)
                result["late"].append(now - (start + due))
                released += 1
            ticks = service.epoch_ticks
            count = len(ticks)
            for tick in ticks[seen:count]:
                result["observed"][(tick["tenant"], tick["epoch"])] = now
            seen = count
            if seen >= len(schedule) or now > deadline:
                break
            wait = 0.002
            if released < len(schedule):
                wait = min(wait, start + schedule[released][0] - now)
            time.sleep(max(0.0, wait))
    except Exception as exc:  # re-raised by open_loop in the main thread
        result["error"] = exc
    finally:
        service.request_stop()
