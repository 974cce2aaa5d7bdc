"""Seeded schedule fuzz: verdict invariance over random ready-queue
orders.

Lemma 1 (the paper, via :mod:`repro.verifier.oooaudit`) states all
well-formed op schedules are audit-equivalent.  The engine's observable
content of that lemma: whatever order the ready queue drains re-execution
nodes in -- shuffled through ``order_key``, over singleton or advice
groups -- the verdict, reason,
detail, site and deterministic stats must equal the canonical-order
run's, and the verdict must equal OOOAudit's.  The failing fuzz seed is
printed on assertion failure so the exact order reproduces.
"""

import random

import pytest

from repro.apps import motd_app, stackdump_app
from repro.attacks import ALL_ATTACKS
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.oooaudit import ooo_audit
from repro.workload import motd_workload, stacks_workload
from tests.verdict_goldens import fingerprint

pytestmark = pytest.mark.tier1

N_ORDERS = 4


def _fuzz(app_fn, trace, advice, fuzz_seed, context, check_ooo=True):
    rng = random.Random(fuzz_seed)
    for singleton in (False, True):
        want = fingerprint(
            Auditor(app_fn(), trace, advice, singleton_groups=singleton).run()
        )
        for trial in range(N_ORDERS):
            rank = {}
            got = Auditor(
                app_fn(), trace, advice, singleton_groups=singleton,
                order_key=lambda n: rank.setdefault(n.node_id, rng.random()),
            ).run()
            assert fingerprint(got) == want, (
                f"{context}: fuzz_seed={fuzz_seed} singleton={singleton} "
                f"trial={trial}"
            )
    if check_ooo:
        assert want["accepted"] == ooo_audit(app_fn(), trace, advice).accepted


def _runs():
    yield "motd", motd_app, motd_workload(16, mix="mixed", seed=41), None
    yield "stacks", stackdump_app, stacks_workload(16, mix="mixed", seed=42), (
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
        scheduler=RandomScheduler(2),
        concurrency=5,
    )
    return name, app_fn, run


def test_honest_plan_invariance(served):
    name, app_fn, run = served
    _fuzz(app_fn, run.trace, run.advice, fuzz_seed=100, context=f"{name}/honest")


@pytest.mark.parametrize(
    "attack",
    [a for a in ALL_ATTACKS if a.guaranteed],
    ids=lambda a: a.name,
)
def test_tampered_plan_invariance(served, attack):
    """Rejections must also be order-invariant: the canonical-order merge
    pins the observed conflict regardless of which node found it."""
    name, app_fn, run = served
    try:
        trace, advice = attack.apply(run.trace, run.advice)
    except LookupError:
        pytest.skip("no target")
    _fuzz(app_fn, trace, advice, fuzz_seed=200, context=f"{name}/{attack.name}",
          check_ooo=attack.name != "merge-tags")  # grouping-only tamper
