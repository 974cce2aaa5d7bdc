"""The audit engine under every worker-pool backend.

However re-execution groups are fanned out -- inline, over processes, or
absorbed in a shuffled order -- the engine must reproduce the
golden verdict fingerprints (:mod:`tests.verdict_goldens`: verdict,
reason, detail, stage, site, deterministic statistics), on honest traces
and under every tamper in the attack library, and agree with OOOAudit
(Lemma 1/3) on the verdict.
"""

import pytest

from repro.attacks import ALL_ATTACKS
from repro.verifier.oooaudit import ooo_audit
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

# CI default: 2 workers.
JOBS = 2


@pytest.fixture(scope="module", params=list(vg.RUNS))
def served(request):
    return request.param


class TestHonestEquivalence:
    def test_parallel_matches_sequential_and_ooo(self, served):
        """Two workers, backend left to the engine (processes: the
        bundled apps pickle)."""
        got = vg.assert_golden(served, parallelism=JOBS)
        assert got["accepted"], got["reason"]
        trace, advice = vg.cases(served)["honest"]
        assert ooo_audit(vg.app_of(served)(), trace, advice).accepted

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_every_executor_mode_matches(self, served, mode):
        vg.assert_golden(served, scheduler=mode, parallelism=JOBS)


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_equivalence(served, attack):
    """On every tamper the fanned-out audit must reproduce the golden
    fingerprint exactly.  (Agreement with OOOAudit on every tamper is
    pinned on the goldens themselves, in test_verdict_golden.py.)"""
    if attack.name not in vg.cases(served):
        pytest.skip("no target")
    # A shuffled serial ready queue keeps the 7 runs x 21 attacks sweep
    # fast: the delta -> out-of-order absorb -> canonical-merge path under
    # test is what a pool exercises (the process hand-off itself is
    # covered above and in test_worker_crash.py).
    vg.assert_golden(
        served, case=attack.name, order_key=vg.shuffled(attack.name)
    )
