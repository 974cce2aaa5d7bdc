"""Unit tests for the wave partition and the engine's construction-time
checks (:mod:`repro.verifier.parallel`, :mod:`repro.verifier.audit`):
footprint extraction, wave layering invariants, option validation, work
scaling."""

import pytest

from repro.apps import feed_app, motd_app, wiki_app
from repro.core.work import cpu_work, scaled_work, work_scale
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.parallel import (
    PARTITION_FOOTPRINT,
    PARTITION_STRUCTURAL,
    compute_waves,
    group_footprints,
)
from repro.verifier.preprocess import preprocess
from repro.workload import feed_workload, motd_workload, wiki_workload

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def wiki_state():
    run = run_server(
        wiki_app(),
        wiki_workload(12, seed=61),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=4,
    )
    return preprocess(wiki_app(), run.trace, run.advice)


@pytest.fixture(scope="module")
def feed_state():
    run = run_server(
        feed_app(),
        feed_workload(12, mix="write-heavy", seed=63),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=4,
    )
    return preprocess(feed_app(), run.trace, run.advice)


@pytest.fixture(scope="module")
def motd_state():
    run = run_server(
        motd_app(),
        motd_workload(12, mix="write-heavy", seed=62),
        KarousosPolicy(),
        scheduler=RandomScheduler(1),
        concurrency=4,
    )
    return preprocess(motd_app(), run.trace, run.advice)


class TestFootprints:
    def test_kv_footprints_cover_tx_logs(self, wiki_state):
        groups = wiki_state.advice.groups()
        fps = group_footprints(wiki_state, groups)
        assert set(fps) == set(groups)
        # Every wiki request goes through the connection pool variable and
        # the kv store, so no group has an empty footprint.
        assert all(fp.reads or fp.writes for fp in fps.values())
        assert any(
            kind == "kv" for fp in fps.values() for (kind, _k) in fp.writes
        )

    def test_var_footprints_split_reads_and_writes(self, motd_state):
        groups = motd_state.advice.groups()
        fps = group_footprints(motd_state, groups)
        # write-heavy motd: set handlers write the motd board variable.
        assert any(("var", "motd") in fp.writes for fp in fps.values())

    def test_feed_fanout_footprints_span_timelines(self, feed_state):
        """A write-heavy feed workload fans posts out across many per-user
        timeline rows and invalidates the shared cross-user cache."""
        groups = feed_state.advice.groups()
        fps = group_footprints(feed_state, groups)
        timeline_keys = {
            k
            for fp in fps.values()
            for (kind, k) in fp.writes
            if kind == "kv" and str(k).startswith("timeline:")
        }
        assert len(timeline_keys) >= 2, "fan-out must touch several timelines"
        assert any(("var", "hot_cache") in fp.writes for fp in fps.values())


class TestWaves:
    def test_structural_partition_is_one_wave(self, wiki_state):
        groups = wiki_state.advice.groups()
        waves = compute_waves(wiki_state, groups, PARTITION_STRUCTURAL)
        assert waves == [sorted(groups)]

    def test_footprint_partition_covers_each_group_once(self, wiki_state):
        groups = wiki_state.advice.groups()
        waves = compute_waves(wiki_state, groups, PARTITION_FOOTPRINT)
        flat = [tag for wave in waves for tag in wave]
        assert sorted(flat) == sorted(groups)

    def test_footprint_partition_separates_conflicting_groups(self, wiki_state):
        groups = wiki_state.advice.groups()
        fps = group_footprints(wiki_state, groups)
        waves = compute_waves(wiki_state, groups, PARTITION_FOOTPRINT)
        for wave in waves:
            for i, a in enumerate(wave):
                for b in wave[i + 1:]:
                    assert not fps[a].conflicts_with(fps[b]), (a, b)

    def test_empty_groups_yield_no_waves(self, wiki_state):
        assert compute_waves(wiki_state, {}, PARTITION_STRUCTURAL) == []
        assert compute_waves(wiki_state, {}, PARTITION_FOOTPRINT) == []

    def test_unknown_partition_rejected(self, wiki_state):
        with pytest.raises(ValueError):
            compute_waves(wiki_state, {"g": ["r"]}, "telepathic")


class TestConstruction:
    def test_unknown_mode_rejected(self, motd_state):
        inputs = (motd_app(), motd_state.trace, motd_state.advice)
        with pytest.raises(ValueError, match="scheduler"):
            Auditor(*inputs, scheduler="quantum")
        with pytest.raises(ValueError, match="partition"):
            Auditor(*inputs, partition="telepathic")
        with pytest.raises(ValueError, match="StaticHints"):
            Auditor(*inputs, partition="static")

    def test_jobs_defaults_to_cpu_count_and_clamps(self, motd_state):
        inputs = (motd_app(), motd_state.trace, motd_state.advice)
        assert Auditor(*inputs).parallelism == 1
        clamped = Auditor(*inputs, parallelism=0)
        assert clamped.parallelism == 1
        assert clamped.run().accepted and clamped.scheduler == "serial"


class TestWorkScale:
    def test_scale_changes_cost_not_determinism(self):
        baseline = cpu_work(64, "probe")
        assert work_scale() == 1.0
        with scaled_work(2.0):
            assert work_scale() == 2.0
            # A different effective iteration count produces a different
            # digest -- which is why serve and audit must share the scale.
            assert cpu_work(64, "probe") != baseline
            assert cpu_work(32, "probe") == baseline
        assert work_scale() == 1.0
        assert cpu_work(64, "probe") == baseline

    def test_scales_nest_and_restore(self):
        with scaled_work(3.0):
            with scaled_work(0.5):
                assert work_scale() == 0.5
            assert work_scale() == 3.0
        assert work_scale() == 1.0
