"""Fleet audit service benchmark (DESIGN.md §13): multiplexing overhead.

Auditing N tenants through one shared ``AuditService`` costs at most a
bounded factor over N solo ``ContinuousAuditor`` runs of the same streams
(the shared pool's bookkeeping is cheap), with byte-identical per-tenant
verdicts.  Both arms are timed on the session clock.  Super-producer
isolation (tick-bounded latency under quotas) is deterministic and lives
in the tier-1 suite (``tests/integration/test_serve_audit.py``).
"""

from __future__ import annotations

import os

from repro.apps import make_app
from repro.continuous import ContinuousAuditor, EpochSealer
from repro.continuous.codec import write_epoch_stored
from repro.harness import print_series
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.service import AuditService, TenantConfig
from repro.storage import backend_for
from repro.store import IsolationLevel, KVStore
from repro.workload import feed_workload, motd_workload, wiki_workload

COLUMNS = ["arm", "tenants", "epochs", "seconds", "ratio"]

# The shared pool may cost at most this factor over N solo runs.
OVERHEAD_BOUND = 1.5

SEED = 7


def _serve(app, workload, seal_every):
    """The epochs a sealer cuts serving ``workload``."""
    sealer = EpochSealer(seal_every)
    run_server(
        make_app(app),
        workload,
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=1,  # quiescent cut points -> several epochs
        sealer=sealer,
    )
    return sealer.epochs


def _store_epochs(root, name, epochs):
    directory = os.path.join(str(root), name)
    backend = backend_for("file", directory)
    for epoch in epochs:
        write_epoch_stored(backend, epoch)
    return directory


def _fingerprints(verdicts):
    return [
        (v.epoch, v.accepted, v.result.reason, v.checkpoint_digest)
        for v in verdicts
    ]


def _tenant_streams(scale):
    n = max(18, scale.n_requests // 10)
    seal = max(4, n // 4)
    return {
        "wiki": _serve("wiki", wiki_workload(n, seed=SEED), seal),
        "feed": _serve("feed", feed_workload(n, mix="mixed", seed=SEED + 1), seal),
        "motd": _serve("motd", motd_workload(n, mix="mixed", seed=SEED + 2), seal),
    }


def _solo_durable(name, epochs, state_dir):
    """A solo continuous audit with the *same* durability the service
    gives every tenant -- file-backed checkpoint chain, audit journal,
    and per-node journal -- so the measured delta is purely the shared
    pool's multiplexing, not fsync the solo arm skipped."""
    from repro.continuous import AuditJournal, CheckpointStore
    from repro.verifier.dag import NodeJournal

    os.makedirs(state_dir, exist_ok=True)
    backend = backend_for("file", os.path.join(state_dir, "audit"))
    auditor = ContinuousAuditor(
        make_app(name),
        checkpoints=CheckpointStore(backend=backend),
        journal=AuditJournal(backend=backend),
        scheduler="serial",
        node_journal=NodeJournal(
            backend_for("file", os.path.join(state_dir, "nodejournal"))
        ),
    )
    try:
        return _fingerprints(auditor.run(epochs))
    finally:
        auditor.checkpoints.close()
        auditor.journal.close()


def test_multiplexing_overhead_is_bounded(clock, scale, tmp_path):
    streams = _tenant_streams(scale)
    stores = {
        name: _store_epochs(tmp_path, name, epochs)
        for name, epochs in streams.items()
    }
    service = AuditService(
        [
            TenantConfig(app=name, store=stores[name], quota=2)
            for name in sorted(streams)
        ],
        state_dir=os.path.join(str(tmp_path), "state"),
    )

    def solo():
        return {
            name: _solo_durable(name, epochs, os.path.join(str(tmp_path), f"solo-{name}"))
            for name, epochs in streams.items()
        }

    solo_run, service_run = clock.run([solo, lambda: service.run(once=True)])
    for name in streams:
        stream = service._by_name[name].stream
        got = _fingerprints(stream.verdicts[i] for i in sorted(stream.verdicts))
        assert got == solo_run.result[name], f"{name}: service verdicts diverged"

    solo_s, svc_s = solo_run.seconds, service_run.seconds
    ratio = svc_s / solo_s if solo_s > 0 else float("inf")
    tenants, epochs = len(streams), sum(len(e) for e in streams.values())
    rows = [
        {"arm": f"{tenants}x solo", "tenants": tenants, "epochs": epochs,
         "seconds": solo_s, "ratio": 1.0},
        {"arm": "serve-audit", "tenants": tenants, "epochs": epochs,
         "seconds": svc_s, "ratio": ratio},
    ]
    print_series("Fleet service vs N solo runs", rows, COLUMNS)
    assert ratio <= OVERHEAD_BOUND, (solo_s, svc_s)
