"""End-to-end campaigns for the adversarial-advice fuzzer.

Three claims a property-based audit fuzzer must itself prove:

* **clean at budget** -- the shipped audit survives a full fixed-seed
  campaign (no guaranteed mutation accepted, no honest run rejected);
* **sensitive to weakening** -- deliberately weakening one audit check
  (the write-order extraction) makes the *same* campaign budget find an
  escape, shrink it to a minimal case, and persist it to the corpus.  A
  fuzzer that stays green against a broken audit proves nothing;
* **diagnosable** -- every fuzzer-found REJECT yields a divergence
  report that cites an actually-differing operation.
"""

import random

import pytest
from hypothesis import HealthCheck, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

import repro.verifier.isolation as isolation_mod
from repro.apps import make_app
from repro.fuzz import (
    APPS,
    MutationNotApplicable,
    mutation_cases,
    mutation_surface,
    read_corpus,
    run_fuzz,
)
from repro.continuous import Epoch
from repro.fuzz.driver import serve_case
from repro.verifier import Auditor, explain_rejection
from repro.verifier.preprocess import _tx_entry

pytestmark = pytest.mark.tier1

_OPS = {op.name: op for op in mutation_surface()}

WRITE_ORDER_OPS = [
    name for name in _OPS if name.endswith(":write_order") and _OPS[name].guaranteed
]

# Structural rejections that legitimately pin no single operation.
STRUCTURAL = {"malformed-advice"}


def test_full_campaign_is_clean_on_all_apps():
    """The acceptance budget: seed 0, 200 examples, all four apps."""
    for prop in ("soundness", "completeness"):
        report = run_fuzz(prop=prop, apps=APPS, seed=0, max_examples=200)
        assert report.clean, (prop, report.as_json())
        assert report.stats.examples == 200


def _lenient_write_order(state):
    """A deliberately broken replica of the write-order extraction: no
    count check, no duplicate check, no PUT/last-modification checks --
    whatever the advice claims becomes the per-key order."""
    per_key = {}
    for pos in state.advice.write_order:
        if not (isinstance(pos, tuple) and len(pos) == 3):
            continue
        rid, tid, i = pos
        try:
            op = _tx_entry(state, rid, tid, i)
        except Exception:
            continue
        if getattr(op, "key", None) is not None:
            per_key.setdefault(op.key, []).append(pos)
    return per_key


def test_weakened_write_order_check_is_caught(monkeypatch, tmp_path):
    """Weakening one audit check must flip the campaign verdict within
    the same budget, with the escape shrunk and persisted."""
    monkeypatch.setattr(
        isolation_mod, "_extract_write_order_per_key", _lenient_write_order
    )
    corpus = str(tmp_path / "corpus")
    report = run_fuzz(
        prop="soundness",
        apps=("stacks", "wiki", "feed"),
        seed=0,
        max_examples=200,
        ops=WRITE_ORDER_OPS,
        corpus_dir=corpus,
    )
    assert not report.clean, "a broken write-order check must be found"
    (finding,) = report.escapes
    case = finding["case"]
    assert case["op"] in WRITE_ORDER_OPS
    # Hypothesis shrinks toward the smallest workload that still escapes.
    assert case["workload"]["n"] == 4
    assert case["workload"]["concurrency"] == 1
    # The reproducer is on disk, and a later campaign replays it first.
    stored = read_corpus(corpus, "soundness")
    assert len(stored) == 1
    replay = run_fuzz(
        prop="soundness",
        apps=("stacks",),
        seed=1,
        max_examples=0,
        ops=WRITE_ORDER_OPS,
        corpus_dir=corpus,
    )
    assert replay.corpus_replayed == 1
    assert replay.corpus_failures, "the stored escape must still reproduce"


def test_unweakened_audit_rejects_the_write_order_ops():
    """Control for the weakening test: the same operators against the
    intact audit reject everywhere the mutation applies."""
    report = run_fuzz(
        prop="soundness",
        apps=("stacks", "wiki", "feed"),
        seed=0,
        max_examples=60,
        ops=WRITE_ORDER_OPS,
    )
    assert report.clean, report.as_json()
    assert report.stats.rejects


@hypothesis_seed(11)
@hypothesis_settings(
    max_examples=40,
    deadline=None,
    database=None,
    print_blob=False,
    suppress_health_check=list(HealthCheck),
)
@given(mutation_cases(max_requests=8))
def test_every_fuzzer_reject_yields_a_divergence_report(case):
    """Time-travel diagnosis keeps up with the fuzzer: whatever lie it
    invents, a REJECT explains itself with a non-empty report citing an
    operation coordinate."""
    trace, advice = serve_case(case.workload)
    try:
        tampered_trace, tampered_advice = _OPS[case.op].apply(
            random.Random(case.mutation_seed), trace, advice
        )
    except MutationNotApplicable:
        return
    app = make_app(case.workload.app)
    result = Auditor(app, tampered_trace, tampered_advice).run()
    if result.accepted:
        return
    report = explain_rejection(
        app, Epoch(0, tampered_trace, tampered_advice), None, result
    )
    assert report is not None, result.reason
    assert report.reason
    assert report.stage
    if report.reason in STRUCTURAL:
        return
    assert not report.empty, (case.op, report.as_json())
