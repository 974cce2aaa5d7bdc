"""Fleet audit service benchmarks (DESIGN.md §13).

Two claims, one wall-clock and one deterministic:

* **Multiplexing overhead** -- auditing N tenants through one shared
  ``AuditService`` costs at most a bounded factor over N solo
  ``ContinuousAuditor`` runs of the same streams (the shared pool's
  bookkeeping is cheap), with byte-identical per-tenant verdicts.

* **Super-producer isolation** -- with quotas on, a small tenant's
  latency (measured in deterministic scheduler ticks: one absorbed
  node = one tick) is bounded by its *own* plan size, independent of
  how much work a super-producer has queued; with quotas off (FIFO
  admission) it grows with the producer's plan.  Tick math holds under
  any wall-clock conditions.

Results land in ``BENCH_serve_audit.json`` at the repo root as a
tracked baseline.
"""

from __future__ import annotations

import json
import os
import time

from repro.continuous import ContinuousAuditor, slice_epochs
from repro.continuous.codec import write_epoch_stored
from repro.harness import print_series
from repro.harness.experiment import make_app
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.service import AuditService, TenantConfig
from repro.storage import backend_for
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.workload import feed_workload, motd_workload, wiki_workload

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_serve_audit.json"
)

THROUGHPUT_COLUMNS = ["arm", "tenants", "epochs", "seconds", "ratio"]
ISOLATION_COLUMNS = ["policy", "small_tick", "bound", "total_ticks",
                     "throttled"]

# The shared pool may cost at most this factor over N solo runs.
OVERHEAD_BOUND = 1.5

SEED = 7


def _serve(app, workload):
    return run_server(
        make_app(app),
        workload,
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=1,  # quiescent cut points -> several epochs
    )


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


# -- multiplexing overhead ----------------------------------------------------


def _tenant_streams(scale):
    n = max(18, scale.n_requests // 10)
    seal = max(4, n // 4)
    runs = {
        "wiki": _serve("wiki", wiki_workload(n, seed=SEED)),
        "feed": _serve("feed", feed_workload(n, mix="mixed", seed=SEED + 1)),
        "motd": _serve("motd", motd_workload(n, mix="mixed", seed=SEED + 2)),
    }
    return {
        name: slice_epochs(run.trace, run.advice, seal)
        for name, run in runs.items()
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


def _measure_throughput(scale, tmp_path):
    streams = _tenant_streams(scale)

    t0 = time.perf_counter()
    solo = {}
    for name, epochs in streams.items():
        solo[name] = _solo_durable(
            name, epochs, os.path.join(str(tmp_path), f"solo-{name}")
        )
    solo_seconds = time.perf_counter() - t0

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
    t0 = time.perf_counter()
    service.run(once=True)
    service_seconds = time.perf_counter() - t0

    for name, epochs in streams.items():
        stream = service._by_name[name].stream
        got = _fingerprints(stream.verdicts[i] for i in sorted(stream.verdicts))
        assert got == solo[name], f"{name}: service verdicts diverged"
    n_epochs = sum(len(e) for e in streams.values())
    return solo_seconds, service_seconds, len(streams), n_epochs


def test_multiplexing_overhead_is_bounded(benchmark, scale, tmp_path):
    solo_s, svc_s, tenants, epochs = benchmark.pedantic(
        lambda: _measure_throughput(scale, tmp_path), rounds=1, iterations=1
    )
    ratio = svc_s / solo_s if solo_s > 0 else float("inf")
    rows = [
        {"arm": f"{tenants}x solo", "tenants": tenants, "epochs": epochs,
         "seconds": solo_s, "ratio": 1.0},
        {"arm": "serve-audit", "tenants": tenants, "epochs": epochs,
         "seconds": svc_s, "ratio": ratio},
    ]
    print_series("Fleet service vs N solo runs", rows, THROUGHPUT_COLUMNS)
    assert ratio <= OVERHEAD_BOUND, (solo_s, svc_s)
    _merge_baseline("throughput", {
        "tenants": tenants,
        "epochs": epochs,
        "solo_seconds": solo_s,
        "service_seconds": svc_s,
        "ratio": ratio,
        "bound": OVERHEAD_BOUND,
    })


# -- super-producer isolation -------------------------------------------------


def _measure_isolation(scale, tmp_path):
    n_big = max(80, scale.n_requests // 3)
    big = _serve("wiki", wiki_workload(n_big, seed=SEED))
    small = _serve("motd", motd_workload(3, mix="mixed", seed=SEED + 9))
    big_epochs = slice_epochs(big.trace, big.advice, n_big)  # one huge epoch
    small_epochs = slice_epochs(small.trace, small.advice, 3)[:1]

    small_nodes = len(Auditor(
        make_app("motd"), small_epochs[0].trace, small_epochs[0].advice
    ).prepare()[0])

    results = {}
    for policy, quotas_enabled in (("fair", True), ("fifo", False)):
        stores = {
            "big": _store_epochs(tmp_path, f"{policy}-big", big_epochs),
            "small": _store_epochs(tmp_path, f"{policy}-small", small_epochs),
        }
        service = AuditService(
            [
                # The super-producer is listed (and admitted) first.
                TenantConfig(app="wiki", store=stores["big"], name="big",
                             quota=1),
                TenantConfig(app="motd", store=stores["small"], name="small",
                             quota=1),
            ],
            state_dir=os.path.join(str(tmp_path), f"{policy}-state"),
            quotas_enabled=quotas_enabled,
        )
        service.run(once=True)
        small_tick = next(
            t["completed_tick"] for t in service.epoch_ticks
            if t["tenant"] == "small"
        )
        results[policy] = {
            "small_tick": small_tick,
            "total_ticks": service.pool.ticks,
            "throttled": service.pool.throttled.get("big", 0),
        }
    return small_nodes, results


def test_quota_isolation_bounds_small_tenant_ticks(benchmark, scale, tmp_path):
    small_nodes, results = benchmark.pedantic(
        lambda: _measure_isolation(scale, tmp_path), rounds=1, iterations=1
    )
    bound = 2 * small_nodes + 2  # round-robin: one big node per own node
    rows = [
        {"policy": policy, "small_tick": r["small_tick"], "bound": bound,
         "total_ticks": r["total_ticks"], "throttled": r["throttled"]}
        for policy, r in results.items()
    ]
    print_series(
        f"Super-producer isolation (small plan = {small_nodes} nodes)",
        rows, ISOLATION_COLUMNS,
    )
    # Quotas on: latency bounded by the small tenant's own plan size.
    assert results["fair"]["small_tick"] <= bound, (results, bound)
    assert results["fair"]["throttled"] > 0
    # Quotas off: head-of-line blocking behind the super-producer.
    assert results["fifo"]["small_tick"] > bound, (results, bound)
    _merge_baseline("isolation", {
        "small_plan_nodes": small_nodes,
        "fair_bound_ticks": bound,
        **{
            f"{policy}_{key}": value
            for policy, r in results.items()
            for key, value in r.items()
        },
    })


def _merge_baseline(section, doc):
    data = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            data = json.load(fh)
    data[section] = doc
    with open(BASELINE, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
