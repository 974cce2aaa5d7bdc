"""The audit engine's plan-level surface against the golden verdicts
(:mod:`tests.verdict_goldens`).

* single epochs: singleton plans (one reexec node per request -- the
  widest DAGs) under every scheduler backend, the post-run surface the
  tooling reads, and every tamper in the attack library;
* epoch streams: :class:`~repro.continuous.auditor.ContinuousAuditor`
  (one plan per epoch, chained through checkpoints) epoch for epoch
  against the golden stream fingerprints, including the rejection
  cascade.
"""

import pytest

from repro.attacks import ALL_ATTACKS
from repro.storage import MemoryBackend
from repro.verifier import STAGES, Auditor
from repro.verifier.dag import NodeJournal
from repro.verifier.dedup import Deduplicator, VerdictCache
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

JOBS = 2


@pytest.fixture(scope="module", params=list(vg.RUNS))
def served(request):
    return request.param


class TestHonestEquivalence:
    def test_dag_matches_sequential(self, served):
        for grouping in vg.GROUPINGS:
            got = vg.assert_golden(served, grouping)
            assert got["accepted"], got["reason"]

    def test_dag_matches_parallel(self, served):
        vg.assert_golden(served, "singleton", parallelism=JOBS)

    @pytest.mark.parametrize("scheduler", ["serial", "process"])
    def test_every_scheduler_matches(self, served, scheduler):
        vg.assert_golden(
            served, "singleton", scheduler=scheduler, parallelism=JOBS
        )

    def test_auditor_scheduler_flag_routes_to_dag(self, served):
        """The post-run surface: plan, merged executor, per-stage fold of
        the node spans."""
        trace, advice = vg.cases(served)["honest"]
        auditor = Auditor(vg.app_of(served)(), trace, advice)
        result = auditor.run()
        assert vg.fingerprint(result) == vg.expected(served, "grouped", "honest")
        assert auditor.scheduler == "serial"
        assert auditor.plan is not None and auditor.state is not None
        assert auditor.re_exec.groups_executed == result.stats["groups"]
        assert set(auditor.stage_seconds) == set(STAGES)
        assert len(auditor.node_seconds) == len(auditor.plan.nodes)

    def test_dedup_armed_dag_matches_dedup_pipeline(self, served):
        """Dedup hits rehydrate and misses re-execute in whatever order
        the ready queue pops them."""
        dedup = Deduplicator(VerdictCache())
        for _phase in ("cold", "warm"):
            vg.assert_golden(
                served, "singleton", order_key=vg.shuffled(served),
                dedup=dedup,
            )
        dedup.close()


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_equivalence(served, attack):
    """On every tamper the audit that journals every node (and its
    rejection site) must reproduce the golden fingerprint exactly.
    (Singleton plans under every tamper: test_verdict_golden.py.)"""
    if attack.name not in vg.cases(served):
        pytest.skip("no target")
    vg.assert_golden(
        served, case=attack.name, node_journal=NodeJournal(MemoryBackend())
    )


# -- epoch streams -------------------------------------------------------------


class TestStreamEquivalence:
    def test_stream_matches_continuous(self):
        for app in vg.APPS:
            got = vg.assert_stream_golden(app)
            assert all(accepted for _, accepted, _, _ in got), (app, got)

    def test_stream_rejection_cascade_matches_continuous(self):
        for app in vg.APPS:
            got = vg.assert_stream_golden(app, "tampered")
            reasons = [reason for _, _, reason, _ in got]
            assert reasons[0] == "accepted", (app, got)
            assert reasons[-1] == "predecessor-rejected", (app, got)

    @pytest.mark.parametrize("scheduler", ["process"])
    def test_stream_schedulers_match_serial(self, scheduler):
        for which in ("honest", "tampered"):
            vg.assert_stream_golden(
                "wiki", which, scheduler=scheduler, parallelism=JOBS
            )

    def test_continuous_auditor_delegates_per_epoch(self):
        """One node journal serves every epoch's plan in turn (a journal
        left by the previous epoch's plan is discarded, not trusted)."""
        for which in ("honest", "tampered"):
            vg.assert_stream_golden(
                "wiki", which, scheduler="serial",
                node_journal=NodeJournal(MemoryBackend()),
            )
