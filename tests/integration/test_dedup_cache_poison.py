"""Soundness of the verdict cache under persisted-record poisoning.

The property under test is the cache trust model (DESIGN.md §11): a
poisoned persisted cache stream -- whatever the corruption -- never
changes an audit's verdict, reason, or deterministic stats.  Records
that fail load-time validation are skipped; entries that load but fail
hit-time revalidation fall back; in every case the affected groups
re-execute for real and the audit is byte-identical to cache-off.

Every operator in :data:`repro.fuzz.cache.POISON_OPS` runs against every
storage backend flavour (memory / file / gzip) in both the sequential
and the parallel driver, on honest *and* tampered advice.
"""

import pytest

from repro.apps import stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.fuzz.cache import POISON_OPS, poison
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import backend_for
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.dedup import Deduplicator, VerdictCache
from repro.workload import stacks_workload, wiki_workload
from tests.verdict_goldens import run_ordered, shuffled

pytestmark = pytest.mark.tier1

BACKENDS = ("memory", "file", "gzip")


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _assert_matches(got, want, context=()):
    __tracebackhide__ = True
    assert got.accepted == want.accepted, (*context, got.reason, want.reason)
    assert got.reason == want.reason, (*context, got.reason, want.reason)
    assert got.detail == want.detail, (*context, got.detail, want.detail)
    assert _strip(got.stats) == _strip(want.stats), (*context,)


@pytest.fixture(scope="module")
def served():
    run = run_server(
        wiki_app(),
        wiki_workload(14, seed=51),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=5,
    )
    return wiki_app, run


def _backend(flavour, tmp_path):
    if flavour == "memory":
        return backend_for("memory", None)
    return backend_for(flavour, str(tmp_path / flavour))


def _primed_backend(flavour, tmp_path, app_fn, run):
    """Build a cache stream by auditing the honest run once."""
    backend = _backend(flavour, tmp_path)
    dedup = Deduplicator(VerdictCache(backend))
    result = Auditor(app_fn(), run.trace, run.advice, dedup=dedup).run()
    assert result.accepted, result.reason
    dedup.close()
    return backend


@pytest.mark.parametrize("flavour", BACKENDS)
@pytest.mark.parametrize("op", POISON_OPS, ids=lambda o: o.name)
def test_poisoned_cache_never_changes_verdict(served, op, flavour, tmp_path):
    app_fn, run = served
    plain = Auditor(app_fn(), run.trace, run.advice).run()
    backend = _primed_backend(flavour, tmp_path, app_fn, run)
    op.apply(backend, "verdicts")
    poisoned = Deduplicator(VerdictCache(backend))
    got = Auditor(app_fn(), run.trace, run.advice, dedup=poisoned).run()
    _assert_matches(got, plain, context=(op.name, flavour))
    assert got.accepted, (op.name, flavour, got.reason)


@pytest.mark.parametrize("op", POISON_OPS, ids=lambda o: o.name)
def test_poisoned_cache_parallel_driver(served, op, tmp_path):
    app_fn, run = served
    plain = Auditor(app_fn(), run.trace, run.advice).run()
    backend = _primed_backend("file", tmp_path, app_fn, run)
    op.apply(backend, "verdicts")
    poisoned = Deduplicator(VerdictCache(backend))
    got = run_ordered(
        Auditor(app_fn(), run.trace, run.advice, dedup=poisoned),
        shuffled(op.name),
    )
    _assert_matches(got, plain, context=(op.name, "parallel"))


@pytest.mark.parametrize("op", POISON_OPS, ids=lambda o: o.name)
def test_poisoned_cache_on_tampered_advice(op, tmp_path):
    """The adversarial pairing: tampered advice audited against a
    poisoned cache must reject exactly like the cache-off audit."""
    run = run_server(
        stackdump_app(),
        stacks_workload(14, mix="mixed", seed=52),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=5,
    )
    tampered = None
    for attack in ALL_ATTACKS:
        try:
            tampered = attack.apply(run.trace, run.advice)
        except LookupError:
            continue
        plain = Auditor(stackdump_app(), *tampered).run()
        if not plain.accepted:
            break
    assert tampered is not None and not plain.accepted
    backend = _primed_backend(
        "file", tmp_path / op.name, lambda: stackdump_app(), run
    )
    op.apply(backend, "verdicts")
    poisoned = Deduplicator(VerdictCache(backend))
    got = Auditor(stackdump_app(), *tampered, dedup=poisoned).run()
    _assert_matches(got, plain, context=(op.name, "tampered"))
    assert not got.accepted


def _verify_counts(cache):
    rows = cache.verify()
    ok = sum(1 for row in rows if row["status"] == "ok")
    return ok, len(rows) - ok


def test_verify_reports_poisoned_entries(served, tmp_path):
    """`VerdictCache.verify` (the `repro cache verify` backend) flags
    re-signed semantic tampering as bad entries."""
    app_fn, run = served
    backend = _primed_backend("file", tmp_path, app_fn, run)
    ok_before, bad_before = _verify_counts(VerdictCache(backend))
    assert ok_before > 0 and bad_before == 0
    poison(backend, "tamper-effect")
    ok_after, bad_after = _verify_counts(VerdictCache(backend))
    assert bad_after == ok_before
    assert ok_after == 0
