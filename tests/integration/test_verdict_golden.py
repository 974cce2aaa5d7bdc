"""The audit engine reproduces the golden verdict fingerprints
(:mod:`tests.verdict_goldens`), and agrees with the straight-line
OOOAudit reference: on verdict and reason under singleton groups (the
same schedule), on verdict under the advice's grouping (a batched group
reports the batch's reason, e.g. ``reexec-crash`` where the singleton
replay pins ``write-mismatch``)."""

import json
import os

import pytest

from repro.verifier.oooaudit import ooo_audit
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


@pytest.mark.parametrize("app", sorted(vg.APPS))
def test_verdicts_match_golden(app):
    doc = vg.compute(app)
    path = vg.golden_path(app)
    if os.environ.get("KAROUSOS_REGEN_GOLDEN"):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"regenerated {path}")
    assert os.path.exists(path), (
        f"no golden for {app}; regenerate with KAROUSOS_REGEN_GOLDEN=1"
    )
    assert doc == vg.golden(app), (
        f"verdict fingerprints for {app} diverged from the golden"
    )


# merge-tags corrupts only the *grouping* advice: the batched audit
# rejects on divergence while OOOAudit, which ignores groups, correctly
# accepts (see test_oooaudit_equivalence.py).
_GROUPING_ONLY = {"merge-tags"}


@pytest.mark.parametrize("run_name", sorted(vg.RUNS))
def test_golden_verdicts_equal_the_ooo_reference(run_name):
    for case, (trace, advice) in vg.cases(run_name).items():
        ref = ooo_audit(vg.app_of(run_name)(), trace, advice)
        single = vg.expected(run_name, "singleton", case)
        assert (single["accepted"], single["reason"]) == (
            ref.accepted, ref.reason
        ), (run_name, case)
        if case not in _GROUPING_ONLY:
            grouped = vg.expected(run_name, "grouped", case)
            assert grouped["accepted"] == ref.accepted, (run_name, case)


# -- the engine's option matrix ------------------------------------------------

# One storeless and one store-backed (snapshot isolation) run.
_MATRIX_RUNS = ("motd-s21", "wiki-snap")
# The per-axis files sweep every tamper along one option each; the cross
# product takes one tamper per layer of the audit (response, variable
# log, tags, grouping, transaction log).
_CASES = ("honest", "tamper-response", "forge-write-value", "drop-tag",
          "merge-tags", "swap-tx-entries")
_PROCESS_CASES = _CASES[:2]


@pytest.mark.parametrize("dedup_state", ["off", "cold", "warm"])
@pytest.mark.parametrize("scheduler", ["serial", "shuffled", "process"])
def test_engine_options_reproduce_golden(scheduler, dedup_state):
    """Scheduler backend (or a shuffled ready queue) x dedup state:
    neither is visible in a fingerprint."""
    from repro.verifier.dedup import Deduplicator, VerdictCache

    for run_name in _MATRIX_RUNS:
        if scheduler == "shuffled":
            engine = dict(scheduler="serial", order_key=vg.shuffled(run_name))
        else:
            engine = dict(scheduler=scheduler, parallelism=2)
        if dedup_state == "warm":
            # One cache per run, primed on the honest pair: every tamper
            # then meets the hits an unsound revalidation would trust.
            engine["dedup"] = Deduplicator(VerdictCache())
            vg.audit_case(run_name, "grouped", "honest", **engine)
        # Process pools and digests are the slow parts: those rows take
        # fewer tampers.
        names = _CASES[:3] if dedup_state != "off" else _CASES
        if scheduler == "process":
            names = _PROCESS_CASES
        for case in names:
            if case not in vg.cases(run_name):
                continue  # no target in this run
            if dedup_state == "cold":
                engine["dedup"] = Deduplicator(VerdictCache())
            vg.assert_golden(run_name, case=case, **engine)
