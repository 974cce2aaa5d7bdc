"""Deduplicated re-execution is invisible in the verdict (DESIGN.md §11).

Audits with the dedup barrier armed -- cold cache or warm cache -- must
reproduce the golden verdict fingerprints (:mod:`tests.verdict_goldens`), across

* apps x isolation levels x seeds (honest traces),
* every tamper in the attack library, audited against a cache warmed on
  the *honest* run -- the adversarial configuration, since a hit that
  failed to revalidate would mask the tamper, and
* single-epoch and continuous audits.
"""

import functools

import pytest

from repro.attacks import ALL_ATTACKS
from repro.verifier.dedup import Deduplicator, VerdictCache
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module", params=list(vg.RUNS))
def served(request):
    return request.param


class TestHonestEquivalence:
    def test_cold_and_warm_match_plain(self, served):
        dedup = Deduplicator(VerdictCache())
        cold = vg.assert_golden(served, dedup=dedup)
        assert cold["accepted"], cold["reason"]
        vg.assert_golden(served, dedup=dedup)  # warm

    def test_no_cache_batching_matches_plain(self, served):
        """A Deduplicator given no cache keeps a private one."""
        vg.assert_golden(served, dedup=Deduplicator(cache=None))

    def test_parallel_dedup_matches_plain(self, served):
        dedup = Deduplicator(VerdictCache())
        for _phase in ("cold", "warm"):
            vg.assert_golden(
                served, order_key=vg.shuffled(served), dedup=dedup
            )

    def test_singleton_groups_dedup_matches_plain(self, served):
        """Singleton grouping is where *within-run* batching materialises:
        digest-identical requests execute once and fan out via the cache."""
        vg.assert_golden(served, "singleton", dedup=Deduplicator(VerdictCache()))


@functools.lru_cache(maxsize=None)
def _warmed(run_name):
    """One cache per run, warmed on the honest pair."""
    dedup = Deduplicator(VerdictCache())
    honest = vg.audit_case(run_name, "grouped", "honest", dedup=dedup)
    assert honest["accepted"], ("priming run must accept", honest["reason"])
    return dedup


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_equivalence_warm_cache(served, attack):
    """Every tamper must produce the golden verdict with a cache warmed
    on the honest run -- the configuration where an unsound hit would
    mask the tamper."""
    if attack.name not in vg.cases(served):
        pytest.skip("no target")
    vg.assert_golden(served, case=attack.name, dedup=_warmed(served))


class TestContinuousEquivalence:
    def test_continuous_dedup_matches_plain(self):
        for app in vg.APPS:
            for which in ("honest", "tampered"):
                vg.assert_stream_golden(
                    app, which, dedup=Deduplicator(VerdictCache())
                )

    def test_continuous_warm_second_stream(self):
        """A second continuous audit sharing the Deduplicator replays the
        whole stream from the cache -- checkpoints included."""
        dedup = Deduplicator(VerdictCache())
        vg.assert_stream_golden("wiki", dedup=dedup)
        vg.assert_stream_golden("wiki", dedup=dedup)
