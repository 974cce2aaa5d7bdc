"""Static hints are invisible in the verdict (DESIGN.md §12).

``StaticHints`` steers two performance layers -- conflict-driven wave
pre-partitioning of the plan and digest restriction/skip in the dedup
barrier -- and its contract is the same as dedup's.  Every configuration
here runs hints-on and must reproduce the golden verdict fingerprints
(:mod:`tests.verdict_goldens`, recorded hints-off), on honest traces and
under every tamper in the attack library.  A wrong hint may cost
parallelism or cache hits, never correctness.
"""

import pytest

from repro.verifier.dedup import Deduplicator, VerdictCache
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

RUN_OF = {"motd": "motd-s21", "stacks": "stacks-ser", "wiki": "wiki-ser",
          "feed": "feed-ser"}


@pytest.fixture(scope="module", params=list(RUN_OF))
def served(request):
    return RUN_OF[request.param]


def _configs(hints):
    """(context, engine kwargs) per hinted layer; dedup state is fresh
    per call."""
    yield "dedup", lambda: dict(
        dedup=Deduplicator(VerdictCache(), hints=hints)
    )
    yield "waves", lambda: dict(
        scheduler="thread", parallelism=2, partition="static", hints=hints
    )
    yield "waves+dedup", lambda: dict(
        scheduler="thread", parallelism=2, partition="static", hints=hints,
        dedup=Deduplicator(VerdictCache(), hints=hints),
    )


class TestHonestEquivalence:
    def test_hints_do_not_change_the_verdict(self, served):
        hints = vg.hints_of(served)
        for _context, engine in _configs(hints):
            for grouping in vg.GROUPINGS:
                got = vg.assert_golden(served, grouping, **engine())
                assert got["accepted"], got["reason"]


class TestAdversarialEquivalence:
    def test_every_attack_rejects_identically(self, served):
        hints = vg.hints_of(served)
        tampered = [case for case in vg.cases(served) if case != "honest"]
        assert tampered, "attack library found no target at all"
        for case in tampered:
            # Equivalence, not rejection: a tamper with no observable
            # consequence on this run legitimately still accepts, and it
            # must do so identically hints-on and hints-off.
            for _context, engine in _configs(hints):
                vg.assert_golden(served, case=case, **engine())
