"""End-to-end suite for the fleet audit service (DESIGN.md §13).

The load-bearing property is **differential**: for every tenant, the
service's per-epoch verdicts (verdict, reason, detail, stats,
checkpoint digest) must be byte-identical to a solo
:class:`~repro.continuous.ContinuousAuditor` over the same epoch
stream -- whatever the scheduler backend, whether quotas are on or
off, and whatever the *other* tenants are doing (including getting
rejected).  Fairness and quotas may only move latency, never verdicts:
the shared pool absorbs node results and merges them in canonical
order, the same argument that makes the single-plan schedulers
equivalent (DESIGN.md §5).

Also covered: cross-tenant verdict-cache attribution, the fleet
``/metrics.json`` endpoint and ``--metrics-out`` document (both valid
``repro.metrics/1``), the tick-based starvation bound (quotas keep a
small tenant's latency bounded under a super-producer; FIFO does not),
and a real SIGTERM drain + restart of the ``repro serve-audit``
subprocess resuming every tenant at node granularity.
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.apps import make_app
from repro.continuous import ContinuousAuditor, Epoch, EpochSealer
from repro.continuous.codec import write_epoch_stored
from repro.core.work import WORK_SCALE_ENV, scaled_work
from repro.kem.scheduler import RandomScheduler
from repro.obs import validate_metrics_doc
from repro.server import KarousosPolicy, run_server
from repro.service import AuditService, TenantConfig, storewatch
from repro.storage import FileBackend, backend_for
from repro.store import IsolationLevel, KVStore
from repro.workload import feed_workload, motd_workload, wiki_workload

tier1 = pytest.mark.tier1

# Queue-dynamics keys: legitimately different between a service run
# (bounded ingestion, pool latency) and a solo run fed in one gulp.
_DYNAMIC = {"elapsed_seconds", "backpressure_events", "peak_pending",
            "first_verdict_seconds"}


def _serve(app, workload, **kw):
    return run_server(
        make_app(app),
        workload,
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=1,  # quiescent cut points -> several epochs
        **kw,
    )


def _sealed(app, workload, seal_every):
    """The epochs a sealer cuts serving ``workload``."""
    sealer = EpochSealer(seal_every)
    _serve(app, workload, sealer=sealer)
    return sealer.epochs


@pytest.fixture(scope="module")
def fleets():
    """Honest wiki + feed epoch streams, plus the wiki stream with epoch
    1's first response altered."""
    from repro.attacks.tamper import tamper_response

    wiki_epochs = _sealed("wiki", wiki_workload(18, seed=53), 4)
    feed_epochs = _sealed("feed", feed_workload(18, mix="mixed", seed=24), 4)
    assert len(wiki_epochs) > 1 and len(feed_epochs) > 1
    victim = wiki_epochs[1]
    forged = Epoch(1, *tamper_response(victim.trace, victim.advice),
                   victim.binlog_range)
    tampered = wiki_epochs[:1] + [forged] + wiki_epochs[2:]
    return {"wiki": wiki_epochs, "feed": feed_epochs, "tampered": tampered}


def _store_epochs(root, name, epochs):
    directory = os.path.join(str(root), name)
    backend = backend_for("file", directory)
    for epoch in epochs:
        write_epoch_stored(backend, epoch)
    return directory


def _fingerprints(verdicts):
    return [
        (
            v.epoch,
            v.accepted,
            v.result.reason,
            v.result.detail,
            {k: val for k, val in v.result.stats.items()
             if k != "elapsed_seconds"},
            v.checkpoint_digest,
        )
        for v in verdicts
    ]


def _solo(app, epochs):
    auditor = ContinuousAuditor(make_app(app))
    verdicts = auditor.run(epochs)
    return _fingerprints(verdicts), auditor.stats()


def _service_run(tmp_path, tenants, label="svc", **kw):
    service = AuditService(
        tenants, state_dir=os.path.join(str(tmp_path), label), **kw
    )
    service.run(once=True)
    return service


def _stream_fingerprints(service, name):
    stream = service._by_name[name].stream
    verdicts = [stream.verdicts[i] for i in sorted(stream.verdicts)]
    return _fingerprints(verdicts), stream.stats()


def _static_stats(stats):
    return {k: v for k, v in stats.items() if k not in _DYNAMIC}


@tier1
class TestDifferential:
    @pytest.mark.parametrize("scheduler,jobs", [("serial", 1), ("process", 2)])
    @pytest.mark.parametrize("quotas", [True, False], ids=["fair", "fifo"])
    def test_two_tenants_match_solo(self, fleets, tmp_path, scheduler, jobs,
                                    quotas):
        stores = {
            name: _store_epochs(tmp_path, name, fleets[name])
            for name in ("wiki", "feed")
        }
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="wiki", store=stores["wiki"], quota=2),
                TenantConfig(app="feed", store=stores["feed"], quota=2),
            ],
            label=f"svc-{scheduler}-{quotas}",
            scheduler=scheduler,
            jobs=jobs,
            quotas_enabled=quotas,
        )
        for name in ("wiki", "feed"):
            got, got_stats = _stream_fingerprints(service, name)
            want, want_stats = _solo(name, fleets[name])
            assert got == want, name
            assert _static_stats(got_stats) == _static_stats(want_stats), name

    def test_rejected_tenant_does_not_perturb_others(self, fleets, tmp_path):
        stores = {
            "bad": _store_epochs(tmp_path, "bad", fleets["tampered"]),
            "feed": _store_epochs(tmp_path, "feed", fleets["feed"]),
        }
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="wiki", store=stores["bad"], name="bad"),
                TenantConfig(app="feed", store=stores["feed"]),
            ],
        )
        got_bad, _ = _stream_fingerprints(service, "bad")
        want_bad, _ = _solo("wiki", fleets["tampered"])
        assert got_bad == want_bad
        assert any(not accepted for (_, accepted, *_rest) in got_bad)
        got_feed, feed_stats = _stream_fingerprints(service, "feed")
        want_feed, solo_stats = _solo("feed", fleets["feed"])
        assert got_feed == want_feed
        assert _static_stats(feed_stats) == _static_stats(solo_stats)

    def test_summary_reports_per_tenant_verdicts(self, fleets, tmp_path):
        store = _store_epochs(tmp_path, "wiki", fleets["wiki"])
        service = _service_run(
            tmp_path, [TenantConfig(app="wiki", store=store)]
        )
        doc = service.summary()
        tenant = doc["tenants"]["wiki"]
        assert tenant["accepted"] is True
        assert len(tenant["epochs"]) == len(fleets["wiki"])
        assert all(e["checkpoint_digest"] for e in tenant["epochs"])
        assert doc["ticks"] > 0


@tier1
class TestSharedCache:
    def test_cross_tenant_hits_attributed_per_tenant(self, fleets, tmp_path):
        """Two tenants auditing the same stream share one verdict
        cache: the first tenant's misses become the second tenant's
        hits, each counted in its own registry -- and verdicts stay
        identical to solo.  FIFO admission makes the order
        deterministic (wiki-a completes each epoch before wiki-b
        starts it, so wiki-b always fetches a warm cache)."""
        stores = {
            name: _store_epochs(tmp_path, name, fleets["wiki"])
            for name in ("wiki-a", "wiki-b")
        }
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="wiki", store=stores["wiki-a"], name="wiki-a"),
                TenantConfig(app="wiki", store=stores["wiki-b"], name="wiki-b"),
            ],
            dedup=True,
            quotas_enabled=False,
        )
        want, _ = _solo("wiki", fleets["wiki"])
        for name in ("wiki-a", "wiki-b"):
            got, _ = _stream_fingerprints(service, name)
            assert got == want, name
        snap = service.fleet_snapshot()
        hits = {
            name: snap["counters"].get(f"tenant.{name}.reexec.dedup_groups", 0)
            for name in ("wiki-a", "wiki-b")
        }
        misses = {
            name: snap["counters"].get(f"tenant.{name}.reexec.cache_misses", 0)
            for name in ("wiki-a", "wiki-b")
        }
        # wiki-a populated the cache (misses), wiki-b consumed it
        # (hits) -- and the attribution is per-tenant, not pooled.
        assert misses["wiki-a"] > 0, snap["counters"]
        assert hits["wiki-b"] > 0, snap["counters"]
        assert misses["wiki-b"] < misses["wiki-a"], (hits, misses)


@tier1
class TestObservability:
    def test_metrics_out_is_a_valid_fleet_document(self, fleets, tmp_path):
        store = _store_epochs(tmp_path, "wiki", fleets["wiki"])
        out = os.path.join(str(tmp_path), "metrics.json")
        _service_run(
            tmp_path,
            [TenantConfig(app="wiki", store=store)],
            metrics_out=out,
            metrics_every=0.0,
        )
        doc = json.load(open(out))
        validate_metrics_doc(doc)
        gauges = doc["gauges"]
        assert gauges["service.tenants"] == 1
        assert gauges["tenant.wiki.service.epochs_verified"] == len(
            fleets["wiki"]
        )
        assert gauges["tenant.wiki.service.epochs_rejected"] == 0
        assert "tenant.wiki.service.backlog" in gauges
        # The tenant's pipeline metrics land under its prefix.
        assert any(
            k.startswith("tenant.wiki.") for k in doc["counters"]
        ), doc["counters"]

    def test_status_endpoints_serve_live_snapshots(self, fleets, tmp_path):
        store = _store_epochs(tmp_path, "wiki", fleets["wiki"])
        service = AuditService(
            [TenantConfig(app="wiki", store=store)],
            state_dir=os.path.join(str(tmp_path), "svc-http"),
            status_port=0,
        )
        runner = threading.Thread(target=service.run, kwargs={"once": True})
        runner.start()
        try:
            deadline = time.monotonic() + 30
            while service.status is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.status is not None, "status server never started"
            base = f"http://127.0.0.1:{service.status.port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                assert r.status == 200 and r.read() == b"ok\n"
            with urllib.request.urlopen(f"{base}/metrics.json", timeout=10) as r:
                assert r.status == 200
                doc = json.loads(r.read())
            validate_metrics_doc(doc)
            assert doc["gauges"]["service.tenants"] == 1
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=10)
        finally:
            service.request_stop()
            runner.join(timeout=60)
        assert not runner.is_alive()


# A checkpoint record for epoch 0 whose ``vars`` keys are 1 and "a".
_NON_STRING_KEYS = (
    b'{"digest":"d","epoch":0,"kv":[],"parent":"genesis",'
    b'"vars":[[1,{"t":"p","v":1}],["a",{"t":"p","v":2}]]}'
)


@tier1
class TestCorruptInput:
    """A permanently undecodable epoch must fail its tenant's audit in
    --once mode (reason=input-format, like the solo CLI), never report
    ACCEPT while silently skipping the corrupt tail -- and must not
    perturb any other tenant."""

    def test_corrupt_stream_fails_tenant_in_once_mode(self, fleets, tmp_path):
        from repro.continuous.codec import epoch_stream_name

        bad_store = _store_epochs(tmp_path, "bad-input", fleets["wiki"])
        good_store = _store_epochs(tmp_path, "good-input", fleets["feed"])
        # Permanently truncate the bad tenant's epoch-1 mid-record:
        # indistinguishable from a mid-seal tail on any single read.
        matches = glob.glob(
            os.path.join(bad_store, epoch_stream_name(1) + ".*")
        ) or glob.glob(os.path.join(bad_store, epoch_stream_name(1) + "*"))
        assert len(matches) == 1, matches
        data = open(matches[0], "rb").read()
        with open(matches[0], "wb") as fh:
            fh.write(data[: len(data) // 2])

        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="wiki", store=bad_store, name="bad"),
                TenantConfig(app="feed", store=good_store, name="good"),
            ],
            label="corrupt",
            torn_limit=3,
            poll_interval=0.001,
        )
        doc = service.summary()
        bad = doc["tenants"]["bad"]
        assert bad["accepted"] is False
        assert bad["reason"] == "input-format"
        assert bad["input"]["corrupt"] and bad["input"]["pending"]
        assert bad["input"]["torn_reads"] >= 3 and bad["input"]["error"]
        # Everything before the corrupt epoch was still audited ...
        assert [e["epoch"] for e in bad["epochs"]] == [0]
        assert bad["epochs"][0]["accepted"]
        # ... the CLI's exit-code rule now sees a rejection ...
        assert any(not t["accepted"] for t in doc["tenants"].values())
        # ... and the good tenant is solo-identical, as ever.
        assert doc["tenants"]["good"]["accepted"] is True
        got, _ = _stream_fingerprints(service, "good")
        want, _ = _solo("feed", fleets["feed"])
        assert got == want
        snap = service.fleet_snapshot()
        assert snap["gauges"]["tenant.bad.service.input_corrupt"] == 1
        assert snap["gauges"]["tenant.good.service.input_corrupt"] == 0

    def test_deeply_nested_record_fails_only_its_tenant(
        self, fleets, tmp_path, capsys
    ):
        """A record nested past the parser's recursion limit is a format
        error like any other, for the daemon and for the solo CLI."""
        from repro.cli import EXIT_REJECTED, main
        from repro.continuous.codec import (
            RT_EPOCH_META, STREAM_KIND, epoch_stream_name,
        )
        from repro.trace.codec import RT_EVENT

        bad_store = os.path.join(str(tmp_path), "deep")
        with backend_for("file", bad_store).create(
            epoch_stream_name(0), STREAM_KIND
        ) as writer:
            writer.append(RT_EPOCH_META, json.dumps({
                "version": 1, "index": 0, "binlog_range": [0, 0],
                "has_advice": False,
            }).encode())
            writer.append(RT_EVENT, b"[" * 100_000 + b"]" * 100_000)
        good_store = _store_epochs(tmp_path, "good-deep", fleets["feed"])

        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="wiki", store=bad_store, name="bad"),
                TenantConfig(app="feed", store=good_store, name="good"),
            ],
            label="deep",
            torn_limit=2,
            poll_interval=0.001,
        )
        doc = service.summary()
        bad = doc["tenants"]["bad"]
        assert bad["accepted"] is False and bad["reason"] == "input-format"
        assert bad["input"]["corrupt"] and bad["epochs"] == []
        got, _ = _stream_fingerprints(service, "good")
        assert got == _solo("feed", fleets["feed"])[0]
        assert len(got) == len(fleets["feed"])

        capsys.readouterr()
        code = main(["audit", "--app", "wiki", "--store", "file",
                     "--store-path", bad_store])
        assert code == EXIT_REJECTED
        assert "REJECT  reason=input-format" in capsys.readouterr().out

    @pytest.mark.parametrize("copy", ["epoch-1", "epoch-00"])
    def test_copied_epoch_stream_fails_only_its_tenant(
        self, fleets, tmp_path, copy
    ):
        """Epoch 0 copied under the next index, or under its own index
        with a leading zero, is malformed input: the tenant fails as
        ``input-format`` instead of auditing epoch 0 twice, and an honest
        neighbour is untouched."""
        epochs = _sealed("motd", motd_workload(12, mix="mixed", seed=7), 4)
        bad_store = _store_epochs(tmp_path, f"copied-{copy}", epochs[:1])
        shutil.copy(
            os.path.join(bad_store, "epoch-0" + FileBackend.suffix),
            os.path.join(bad_store, copy + FileBackend.suffix),
        )
        good_store = _store_epochs(tmp_path, f"good-{copy}", fleets["feed"])
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="motd", store=bad_store, name="bad"),
                TenantConfig(app="feed", store=good_store, name="good"),
            ],
            label=f"copied-{copy}",
            torn_limit=2,
            poll_interval=0.001,
        )
        doc = service.summary()
        bad = doc["tenants"]["bad"]
        assert bad["accepted"] is False and bad["reason"] == "input-format"
        assert bad["input"]["corrupt"] and bad["input"]["ingested"] <= 1
        assert doc["tenants"]["good"]["accepted"] is True
        got, _ = _stream_fingerprints(service, "good")
        assert got == _solo("feed", fleets["feed"])[0]

    def test_bool_opnum_fails_only_its_tenant(self, fleets, tmp_path):
        """``[["f",false]]`` is not a handler id: ``False == 0``, so
        decoding it would intern the bool for the whole process and every
        tenant's ``f@0`` would then encode as ``false``.  The epoch is an
        ``input-format`` REJECT and handler ids keep their int opnums."""
        from repro.advice.codec import RT_RESPONSE_BY
        from repro.continuous.codec import STREAM_KIND, epoch_stream_name
        from repro.core.ids import HandlerId
        from repro.storage.values import TextEncoder

        probe = "bool-opnum-probe"
        epochs = _sealed("motd", motd_workload(8, mix="mixed", seed=9), 4)
        bad_store = _store_epochs(tmp_path, "bool-opnum", epochs[:1])
        backend = backend_for("file", bad_store)
        name = epoch_stream_name(0)
        with backend.reader(name) as reader:
            records = list(reader)
        at = next(i for i, (t, _) in enumerate(records) if t == RT_RESPONSE_BY)
        doc = json.loads(records[at][1])
        next(iter(doc.values()))[0] = [[probe, False]]
        records[at] = (RT_RESPONSE_BY, json.dumps(doc).encode())
        with backend.create(name, STREAM_KIND) as writer:
            for rtype, payload in records:
                writer.append(rtype, payload)
        good_store = _store_epochs(tmp_path, "good-bool-opnum", fleets["feed"])
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="motd", store=bad_store, name="bad"),
                TenantConfig(app="feed", store=good_store, name="good"),
            ],
            label="bool-opnum",
            torn_limit=2,
            poll_interval=0.001,
        )
        doc = service.summary()
        bad = doc["tenants"]["bad"]
        assert bad["accepted"] is False and bad["reason"] == "input-format"
        assert doc["tenants"]["good"]["accepted"] is True
        got, _ = _stream_fingerprints(service, "good")
        assert got == _solo("feed", fleets["feed"])[0]
        hid = HandlerId.intern(probe, None, 0)
        assert TextEncoder().hid(hid) == '[["%s",0]]' % probe

    def test_epoch_without_advice_fails_only_its_tenant(self, fleets, tmp_path):
        """``has_advice`` is server-written: a stored epoch without advice
        rejects its tenant as ``input-format`` in the preflight, and the
        daemon keeps auditing an honest neighbour."""
        epochs = [
            Epoch(e.index, e.trace, None, e.binlog_range)
            for e in _sealed("motd", motd_workload(10, mix="mixed", seed=7), 5)
        ]
        bad_store = _store_epochs(tmp_path, "no-advice", epochs)
        good_store = _store_epochs(tmp_path, "good-no-advice", fleets["feed"])
        service = _service_run(
            tmp_path,
            [
                TenantConfig(app="motd", store=bad_store, name="bad"),
                TenantConfig(app="feed", store=good_store, name="good"),
            ],
            label="no-advice",
        )
        doc = service.summary()
        bad = doc["tenants"]["bad"]
        assert bad["accepted"] is False and bad["reason"] == "input-format"
        assert doc["tenants"]["good"]["accepted"] is True
        got, _ = _stream_fingerprints(service, "good")
        assert got == _solo("feed", fleets["feed"])[0]

    @pytest.mark.parametrize("stream,kind,payload", [
        ("checkpoints", "checkpoint", b'{"epoch":"x"}'),
        ("journal", "journal", b"[1,2]"),
        pytest.param("checkpoints", "checkpoint", _NON_STRING_KEYS,
                     id="checkpoints-non-string-key"),
    ])
    def test_malformed_state_record_fails_only_its_tenant(
        self, fleets, tmp_path, stream, kind, payload
    ):
        """A CRC-valid but malformed record in one tenant's *state*
        streams used to raise out of ``AuditService.__init__`` and take
        the whole fleet down."""
        motd = _sealed("motd", motd_workload(12, mix="mixed", seed=7), 4)
        stores = {
            "motd": _store_epochs(tmp_path, "motd-input", motd),
            "feed": _store_epochs(tmp_path, "feed-input", fleets["feed"]),
            "wiki": _store_epochs(tmp_path, "wiki-input", fleets["wiki"]),
        }
        tenants = [TenantConfig(app=name, store=stores[name]) for name in stores]
        state_dir = os.path.join(str(tmp_path), "state")
        # A first pass leaves every tenant real state; feed and wiki's
        # is then set aside so the second pass has epochs to audit.
        AuditService(tenants, state_dir=state_dir).run(once=True)
        for name in ("feed", "wiki"):
            os.rename(os.path.join(state_dir, name),
                      os.path.join(state_dir, name + ".first"))
        damaged = backend_for("file", os.path.join(state_dir, "motd", "audit"))
        with damaged.append(stream, kind) as writer:
            writer.append(1, payload)

        service = AuditService(tenants, state_dir=state_dir)
        service.run(once=True)
        doc = service.summary()
        motd = doc["tenants"]["motd"]
        assert motd["accepted"] is False and motd["reason"] == "input-format"
        assert motd["input"]["corrupt"] and motd["input"]["error"]
        assert motd["epochs"] == []  # nothing audited from untrusted state
        for name in ("feed", "wiki"):
            assert doc["tenants"][name]["accepted"] is True
            got, _ = _stream_fingerprints(service, name)
            want, _ = _solo(name, fleets[name])
            assert got == want
        gauges = service.fleet_snapshot()["gauges"]
        assert gauges["tenant.motd.service.input_corrupt"] == 1
        assert gauges["tenant.feed.service.input_corrupt"] == 0
        assert gauges["tenant.wiki.service.input_corrupt"] == 0


    def test_non_string_checkpoint_key_is_input_format_for_the_cli(
        self, tmp_path, capsys
    ):
        """The damaged key that made the fleet raise ``TypeError`` out of
        ``verify_chain``: the solo audit rejects it as malformed input."""
        from repro.cli import EXIT_OK, EXIT_REJECTED, main

        store = _store_epochs(
            tmp_path, "motd-keys",
            _sealed("motd", motd_workload(12, mix="mixed", seed=7), 4),
        )
        argv = ["audit", "--app", "motd", "--store", "file", "--store-path", store]
        assert main(argv) == EXIT_OK
        with backend_for("file", store).append("checkpoints", "checkpoint") as w:
            w.append(1, _NON_STRING_KEYS)
        capsys.readouterr()
        assert main(argv) == EXIT_REJECTED
        assert "REJECT  reason=input-format" in capsys.readouterr().out


@tier1
class TestBackpressure:
    def test_backpressure_counts_transitions_not_polls(self, tmp_path):
        """The counter records entries into the full-queue-with-pending
        state, not scheduling-loop iterations spent in it (a slow
        tenant must not inflate the metric 20x/sec)."""
        from repro.continuous.epoch import Epoch
        from repro.trace import Trace

        backend = backend_for(
            "file", os.path.join(str(tmp_path), "bp-epochs")
        )
        for i in range(4):
            write_epoch_stored(
                backend, Epoch(index=i, trace=Trace([]), advice=None)
            )
        service = AuditService(
            [
                TenantConfig(
                    app="wiki",
                    store=os.path.join(str(tmp_path), "bp-epochs"),
                    max_pending=1,
                )
            ],
            state_dir=os.path.join(str(tmp_path), "bp-state"),
        )
        try:
            rt = service._by_name["wiki"]
            assert service._ingest() == 1  # fills the one-slot queue
            for _ in range(5):  # five polls stuck in the same state ...
                service._ingest()
            assert rt.stream.backpressure_events == 1  # ... one event
            rt.stream._queue.clear()  # the pool drains the epoch
            assert service._ingest() == 1  # refill = leave + re-enter
            for _ in range(5):
                service._ingest()
            assert rt.stream.backpressure_events == 2
        finally:
            service._shutdown()


@tier1
class TestStarvation:
    """Quotas bound a small tenant's latency under a super-producer;
    FIFO admission does not.  Latency is measured in deterministic
    ticks (one absorbed node = one tick), so the bound is scheduling
    math, not wall clock."""

    @pytest.fixture(scope="class")
    def traffic(self):
        big_epochs = _sealed("wiki", wiki_workload(40, seed=7), 40)
        small_epochs = _sealed("motd", motd_workload(3, mix="mixed", seed=9), 3)
        assert len(big_epochs) == len(small_epochs) == 1  # one huge epoch
        return big_epochs, small_epochs

    @pytest.fixture(scope="class")
    def small_nodes(self, traffic):
        """The small tenant's plan size (its solo latency in ticks)."""
        from repro.verifier import Auditor

        _, small_epochs = traffic
        nodes, _ = Auditor(
            make_app("motd"), small_epochs[0].trace, small_epochs[0].advice
        ).prepare()
        return len(nodes)

    def _run(self, tmp_path, traffic, quotas_enabled, label):
        big_epochs, small_epochs = traffic
        stores = {
            "big": _store_epochs(tmp_path, f"{label}-big", big_epochs),
            "small": _store_epochs(tmp_path, f"{label}-small", small_epochs),
        }
        service = _service_run(
            tmp_path,
            [
                # The super-producer is listed (and admitted) first.
                TenantConfig(app="wiki", store=stores["big"], name="big",
                             quota=1),
                TenantConfig(app="motd", store=stores["small"], name="small",
                             quota=1),
            ],
            label=label,
            quotas_enabled=quotas_enabled,
        )
        ticks = {
            (t["tenant"], t["epoch"]): t["completed_tick"]
            for t in service.epoch_ticks
        }
        return service, ticks[("small", small_epochs[0].index)]

    def test_quotas_bound_small_tenant_latency(self, tmp_path, traffic,
                                               small_nodes):
        fair_svc, fair_tick = self._run(tmp_path, traffic, True, "fair")
        fifo_svc, fifo_tick = self._run(tmp_path, traffic, False, "fifo")
        # Verdicts are identical either way ...
        assert (
            _stream_fingerprints(fair_svc, "small")[0]
            == _stream_fingerprints(fifo_svc, "small")[0]
        )
        assert (
            _stream_fingerprints(fair_svc, "big")[0]
            == _stream_fingerprints(fifo_svc, "big")[0]
        )
        # ... but under FIFO the small tenant sits behind the whole
        # super-producer plan: its latency is the big plan's node
        # count plus its own, unbounded in the producer's size.
        assert fifo_tick > 2 * small_nodes + 2, (fifo_tick, small_nodes)
        # Under fair scheduling the bound is round-robin math: at most
        # one big node interleaves per small node, INDEPENDENT of how
        # much work the super-producer has queued.
        assert fair_tick <= 2 * small_nodes + 2, (fair_tick, small_nodes)
        assert fair_tick < fifo_tick, (fair_tick, fifo_tick)
        # And the super-producer actually hit its quota.
        assert fair_svc.pool.throttled.get("big", 0) > 0


# -- the idle wait: store events, stop requests, metrics cadence ----------------


def _watch_available(directory):
    probe = storewatch.StoreWatch([directory])
    try:
        return probe.watching
    finally:
        probe.close()


def _within(predicate, seconds):
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _land_live(tmp_path, label, epochs, poll_interval):
    """Tail an empty wiki store with a daemon thread, land ``epochs``
    one by one -- even indexes renamed in from a staging directory, odd
    ones written in place -- and wait for each verdict.  Returns the
    verdict fingerprints, the ``service.store_watch`` gauge, the slowest
    land-to-verdict time and how long ``request_stop()`` took."""
    staged = _store_epochs(tmp_path, label + "-staged", epochs)
    store = os.path.join(str(tmp_path), label + "-live")
    live = backend_for("file", store)
    service = AuditService(
        [TenantConfig(app="wiki", store=store, name="w")],
        state_dir=os.path.join(str(tmp_path), label),
        poll_interval=poll_interval,
    )
    runner = threading.Thread(target=service.run, daemon=True)
    runner.start()
    slowest = 0.0
    try:
        for epoch in epochs:
            landed = time.monotonic()
            if epoch.index % 2 == 0:
                name = f"epoch-{epoch.index}{FileBackend.suffix}"
                os.replace(os.path.join(staged, name),
                           os.path.join(store, name))
            else:
                write_epoch_stored(live, epoch)
            assert _within(lambda: len(service.epoch_ticks) > epoch.index,
                           2.0), f"no verdict for epoch {epoch.index}"
            slowest = max(slowest, time.monotonic() - landed)
    finally:
        stopped = time.monotonic()
        service.request_stop()
        runner.join(timeout=60)
    assert not runner.is_alive()
    gauge = service.fleet_snapshot()["gauges"]["service.store_watch"]
    return (_stream_fingerprints(service, "w")[0], gauge, slowest,
            time.monotonic() - stopped)


@tier1
class TestIdleWait:
    def test_landed_epochs_and_stop_wake_an_idle_daemon(self, fleets,
                                                       tmp_path):
        """With a 30 s poll interval, only a store event can get an
        epoch audited within 2 s, and only the stop pipe can end the
        wait within 1 s."""
        if not _watch_available(str(tmp_path)):
            pytest.skip("no inotify store watch on this platform")
        _, gauge, slowest, stop = _land_live(
            tmp_path, "watched", fleets["wiki"][:2], poll_interval=30
        )
        assert gauge == 1
        assert slowest < 2.0 and stop < 1.0, (slowest, stop)

    def test_timer_fallback_gives_the_same_verdicts(self, fleets, tmp_path,
                                                    monkeypatch):
        watched, _, _, _ = _land_live(
            tmp_path, "watched", fleets["wiki"], poll_interval=0.05
        )
        monkeypatch.setattr(storewatch, "_inotify", lambda directories: None)
        timed, gauge, _, _ = _land_live(
            tmp_path, "timed", fleets["wiki"], poll_interval=0.05
        )
        assert gauge == 0
        assert timed == watched == _solo("wiki", fleets["wiki"])[0]

    def test_back_to_back_runs_leak_no_descriptor(self, tmp_path):
        """One inotify instance and one pipe per run, all closed when the
        run returns: 200 runs is past the default limit of 128 inotify
        instances per user, where a leak would silently turn the watch
        off."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd")
        store = os.path.join(str(tmp_path), "epochs")
        watching = _watch_available(str(tmp_path))

        def run_once():
            service = AuditService(
                [TenantConfig(app="motd", store=store)],
                state_dir=os.path.join(str(tmp_path), "state"),
            )
            service.run(once=True)
            return service.fleet_snapshot()["gauges"]["service.store_watch"]

        run_once()
        before = len(os.listdir("/proc/self/fd"))
        gauges = {run_once() for _ in range(200)}
        assert len(os.listdir("/proc/self/fd")) == before
        assert gauges == {int(watching)}

    def test_idle_wait_keeps_the_metrics_cadence(self, tmp_path):
        store = os.path.join(str(tmp_path), "epochs")
        out = os.path.join(str(tmp_path), "metrics.json")
        service = AuditService(
            [TenantConfig(app="motd", store=store)],
            state_dir=os.path.join(str(tmp_path), "state"),
            metrics_out=out, metrics_every=0.2, poll_interval=5,
        )
        runner = threading.Thread(target=service.run, daemon=True)
        runner.start()
        rewrites, last = 0, None
        try:
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                try:
                    st = os.stat(out)
                    stamp = (st.st_ino, st.st_mtime_ns)
                except FileNotFoundError:
                    stamp = None
                if stamp is not None and stamp != last:
                    rewrites += 1
                last = stamp
                time.sleep(0.01)
        finally:
            service.request_stop()
            runner.join(timeout=60)
        assert not runner.is_alive()
        assert rewrites >= 3, rewrites


# -- SIGTERM drain + restart (real process tree; not tier1) -------------------

SCALE = 40.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(__file__), *[os.pardir] * 2, "src"
    )
    env[WORK_SCALE_ENV] = repr(SCALE)
    return env


def _nodejournal_bytes(state_dir, tenant):
    return sum(
        os.path.getsize(p)
        for p in glob.glob(
            os.path.join(state_dir, tenant, "nodejournal", "nodes*")
        )
    )


def _serve_audit_cmd(state_dir, stores, *extra):
    cmd = [sys.executable, "-m", "repro", "serve-audit",
           "--state-dir", state_dir, "--format", "json"]
    for name, store in sorted(stores.items()):
        app = "wiki" if name.startswith("wiki") else "feed"
        cmd += ["--tenant", f"app={app},store={store},name={name},quota=2"]
    cmd += list(extra)
    return cmd


def test_sigterm_drains_and_restart_resumes_every_tenant(tmp_path):
    """Kill a live two-tenant daemon mid-epoch with SIGTERM; the drain
    must seal the node journal, and a restarted daemon must finish all
    epochs with solo-identical verdicts, replaying journaled nodes
    instead of re-executing them."""
    with scaled_work(SCALE):
        wiki_epochs = _sealed("wiki", wiki_workload(14, seed=23), 4)
        feed_epochs = _sealed("feed", feed_workload(14, mix="mixed", seed=24), 4)
        solo = {}
        for name, epochs in (("wiki", wiki_epochs), ("feed", feed_epochs)):
            solo[name] = [
                {
                    "epoch": v.epoch,
                    "accepted": v.accepted,
                    "reason": v.result.reason,
                    "detail": v.result.detail,
                    "checkpoint_digest": v.checkpoint_digest,
                }
                for v in ContinuousAuditor(make_app(name)).run(epochs)
            ]
    stores = {
        "wiki": _store_epochs(tmp_path, "wiki-epochs", wiki_epochs),
        "feed": _store_epochs(tmp_path, "feed-epochs", feed_epochs),
    }
    state_dir = os.path.join(str(tmp_path), "state")
    metrics_out = os.path.join(str(tmp_path), "metrics.json")

    proc = subprocess.Popen(
        _serve_audit_cmd(state_dir, stores),
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    # SIGTERM once some tenant's node journal holds a useful prefix
    # (mid-epoch), so the restart exercises node-granular resume.
    deadline = time.monotonic() + 120
    mid_epoch = False
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if any(_nodejournal_bytes(state_dir, t) > 2048
                   for t in ("wiki", "feed")):
                mid_epoch = True
                proc.send_signal(signal.SIGTERM)
                break
            time.sleep(0.002)
        else:
            proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (proc.returncode, out, err)
    if not mid_epoch:
        pytest.skip("daemon drained before the kill landed; scale too low")

    resumed = subprocess.run(
        _serve_audit_cmd(state_dir, stores, "--once",
                         "--metrics-out", metrics_out),
        env=_env(), capture_output=True, text=True, timeout=600,
    )
    assert resumed.returncode == 0, resumed.stderr
    doc = json.loads(resumed.stdout)
    first = json.loads(out)

    for name, epochs in (("wiki", wiki_epochs), ("feed", feed_epochs)):
        # Stitch the two runs: every epoch verified exactly once, with
        # solo-identical verdict lines, in order.
        seen = first["tenants"][name]["epochs"] + doc["tenants"][name]["epochs"]
        assert [e["epoch"] for e in seen] == list(range(len(epochs))), name
        assert seen == solo[name], name
        assert doc["tenants"][name]["accepted"], name

    counters = json.load(open(metrics_out))["counters"]
    resumed_nodes = sum(
        v for k, v in counters.items() if k.endswith("reexec.nodes_resumed")
    )
    assert resumed_nodes > 0, counters
