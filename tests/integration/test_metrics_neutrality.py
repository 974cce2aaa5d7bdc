"""Observability must be observe-only: auditing with metrics enabled and
disabled yields byte-identical verdicts, reasons, details, and identical
deterministic stats, on every bundled app -- honest and under every
applicable guaranteed attack -- inline, on two workers, and in
continuous audits alike."""

import pytest

from repro.apps import motd_app, stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.continuous import ContinuousAuditor, slice_epochs
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry, validate_metrics_doc
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.workload import motd_workload, stacks_workload, wiki_workload

pytestmark = pytest.mark.tier1

# Wall-clock timing is the one legitimately nondeterministic stat.
TIMING_KEYS = {"elapsed_seconds", "first_verdict_seconds"}


def _serve(app_fn, workload, store=None):
    return run_server(
        app_fn(),
        workload,
        KarousosPolicy(),
        store=store,
        scheduler=RandomScheduler(0),
        concurrency=5,
    )


@pytest.fixture(scope="module")
def motd_run():
    return _serve(motd_app, motd_workload(25, mix="mixed", seed=11))


@pytest.fixture(scope="module")
def stacks_run():
    return _serve(
        stackdump_app,
        stacks_workload(25, mix="mixed", seed=12),
        store=KVStore(IsolationLevel.SERIALIZABLE),
    )


@pytest.fixture(scope="module")
def wiki_run():
    return _serve(
        wiki_app, wiki_workload(25, seed=13), store=KVStore(IsolationLevel.SERIALIZABLE)
    )


RUNS = [
    ("motd", motd_app, "motd_run"),
    ("stacks", stackdump_app, "stacks_run"),
    ("wiki", wiki_app, "wiki_run"),
]


def _deterministic(stats):
    return {k: v for k, v in stats.items() if k not in TIMING_KEYS}


def _verdict(app_fn, trace, advice, metrics, **kw):
    result = Auditor(app_fn(), trace, advice, metrics=metrics, **kw).run()
    return (result.accepted, result.reason, result.detail), _deterministic(
        result.stats
    )


def _assert_neutral(app_fn, trace, advice, **kw):
    metrics = MetricsRegistry()
    with_m, stats_m = _verdict(app_fn, trace, advice, metrics, **kw)
    without, stats_0 = _verdict(app_fn, trace, advice, None, **kw)
    assert with_m == without
    assert stats_m == stats_0
    validate_metrics_doc(metrics.snapshot())
    return with_m


@pytest.mark.parametrize("name,app_fn,run_fixture", RUNS, ids=lambda r: None)
def test_honest_audit_is_metrics_neutral(name, app_fn, run_fixture, request):
    run = request.getfixturevalue(run_fixture)
    verdict = _assert_neutral(app_fn, run.trace, run.advice)
    assert verdict[0] is True, verdict


@pytest.mark.parametrize("name,app_fn,run_fixture", RUNS, ids=lambda r: None)
@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_audit_is_metrics_neutral(name, app_fn, run_fixture, attack, request):
    if not attack.guaranteed:
        pytest.skip(f"{attack.name} needs a crafted workload")
    run = request.getfixturevalue(run_fixture)
    try:
        trace, advice = attack.apply(run.trace, run.advice)
    except LookupError:
        pytest.skip(f"attack {attack.name} has no target in this run")
    verdict = _assert_neutral(app_fn, trace, advice)
    assert verdict[0] is False, f"attack {attack.name} wrongly accepted"


def test_parallel_audit_is_metrics_neutral(wiki_run):
    verdict = _assert_neutral(
        wiki_app, wiki_run.trace, wiki_run.advice, parallelism=2
    )
    assert verdict[0] is True, verdict


def test_parallel_worker_counters_match_merged_totals(wiki_run):
    metrics = MetricsRegistry()
    result = Auditor(
        wiki_app(), wiki_run.trace, wiki_run.advice, parallelism=2, metrics=metrics
    ).run()
    assert result.accepted, (result.reason, result.detail)
    snap = metrics.snapshot()
    counters = snap["counters"]
    # Worker-side snapshots, merged in canonical group order, must agree
    # with the driver-side totals exactly.
    assert counters["worker.groups"] == counters["reexec.groups"]
    assert counters["worker.handlers"] == counters["reexec.handlers"]


class TestDedupNeutrality:
    """Cache-on audits are observe-only too: metrics must not perturb the
    deduplicated reexec stage, and the dedup counters must land in a
    schema-valid ``repro.metrics/1`` snapshot."""

    def _dedup_verdict(self, app_fn, run, metrics, warm):
        from repro.verifier.dedup import Deduplicator, VerdictCache

        dedup = Deduplicator(VerdictCache(metrics=metrics))
        if warm:
            Auditor(app_fn(), run.trace, run.advice, dedup=dedup).run()
        result = Auditor(
            app_fn(), run.trace, run.advice, metrics=metrics, dedup=dedup
        ).run()
        return (result.accepted, result.reason, result.detail), _deterministic(
            result.stats
        )

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name,app_fn,run_fixture", RUNS, ids=lambda r: None)
    def test_dedup_audit_is_metrics_neutral(
        self, name, app_fn, run_fixture, warm, request
    ):
        run = request.getfixturevalue(run_fixture)
        metrics = MetricsRegistry()
        with_m = self._dedup_verdict(app_fn, run, metrics, warm)
        without = self._dedup_verdict(app_fn, run, None, warm)
        assert with_m == without
        validate_metrics_doc(metrics.snapshot())
        assert with_m[0][0] is True, with_m

    def test_dedup_counters_in_snapshot(self, wiki_run):
        from repro.storage import backend_for
        from repro.verifier.dedup import Deduplicator, VerdictCache

        metrics = MetricsRegistry()
        dedup = Deduplicator(
            VerdictCache(backend_for("memory", None), metrics=metrics)
        )
        for _ in range(2):
            result = Auditor(
                wiki_app(), wiki_run.trace, wiki_run.advice,
                metrics=metrics, dedup=dedup,
            ).run()
            assert result.accepted, result.reason
        snap = metrics.snapshot()
        validate_metrics_doc(snap)
        counters = snap["counters"]
        for key in (
            "reexec.cache_hits",
            "reexec.cache_misses",
            "reexec.dedup_groups",
        ):
            assert key in counters, sorted(counters)
        # Every fetched group is exactly one of: hit, executed (miss), or
        # uncacheable -- and the warm pass hits whatever the cold pass
        # could store.
        total = counters["reexec.groups"]
        hits = counters["reexec.dedup_groups"]
        misses = counters["reexec.cache_misses"]
        uncacheable = counters.get("reexec.uncacheable_groups", 0)
        assert hits > 0
        assert hits + misses + uncacheable == total
        assert counters["cache.entries_written"] == hits
        assert "reexec.dedup_ratio" in snap["gauges"]
        # reexec.groups/handlers parity: a dedup audit accounts handler
        # work identically to the plain stage, hits included.
        plain = MetricsRegistry()
        Auditor(
            wiki_app(), wiki_run.trace, wiki_run.advice, metrics=plain
        ).run()
        plain_counters = plain.snapshot()["counters"]
        assert counters["reexec.groups"] == 2 * plain_counters["reexec.groups"]
        assert counters["reexec.handlers"] == 2 * plain_counters["reexec.handlers"]


def test_continuous_audit_is_metrics_neutral(wiki_run):
    epochs = slice_epochs(wiki_run.trace, wiki_run.advice, 5)

    def _run(metrics):
        auditor = ContinuousAuditor(wiki_app(), metrics=metrics)
        verdicts = auditor.run(epochs)
        return (
            [(v.epoch, v.accepted, v.result.reason, v.result.detail) for v in verdicts],
            _deterministic(auditor.stats()),
        )

    metrics = MetricsRegistry()
    assert _run(metrics) == _run(None)
    snap = metrics.snapshot()
    validate_metrics_doc(snap)
    assert snap["counters"]["continuous.epochs"] == len(epochs)
    assert set(snap["series"]) >= {
        "continuous.epoch_seconds",
        "continuous.epoch_handlers",
    }
