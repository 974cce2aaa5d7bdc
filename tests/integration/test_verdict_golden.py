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
