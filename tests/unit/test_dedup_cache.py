"""Unit tests for the in-memory verdict cache and the hit-time
revalidation of its entries (DESIGN.md §11)."""

import pytest

from repro.apps import wiki_app
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.storage.records import canonical_json
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.dedup import Deduplicator, VerdictCache
from repro.verifier.dedup.cache import effect_sum, make_entry
from repro.workload import wiki_workload

pytestmark = pytest.mark.tier1


def _entry(key="k" * 64, members=2, handlers=3):
    effect = {"journal": [["handlers", handlers]], "executed": []}
    return make_entry(key, members, handlers, "o" * 64, effect, canonical_json(effect))


class TestRoundtrip:
    def test_no_backend_is_process_local(self):
        cache = VerdictCache()
        entry = _entry()
        cache.put(entry)
        assert len(cache) == 1
        assert entry["key"] in cache
        assert cache.get(entry["key"]) is entry
        assert VerdictCache().get(entry["key"]) is None

    def test_first_entry_per_key_is_kept(self):
        cache = VerdictCache()
        first, second = _entry(handlers=3), _entry(handlers=4)
        cache.put(first)
        cache.put(second)
        assert len(cache) == 1
        assert cache.get(first["key"]) is first

    def test_takes_no_backend(self):
        with pytest.raises(TypeError):
            VerdictCache(None)

    def test_close_is_a_noop(self):
        cache = VerdictCache()
        cache.put(_entry())
        cache.close()
        assert len(cache) == 1

    def test_deduplicator_owns_one_store(self):
        shared = VerdictCache()
        assert Deduplicator(shared).cache is shared
        assert isinstance(Deduplicator().cache, VerdictCache)
        assert not hasattr(Deduplicator(), "memo")


# -- hit-time revalidation -----------------------------------------------------


def _flip_verdict(entry):
    entry["verdict"] = "reject"


def _stale_output(entry):
    entry["output_digest"] = "0" * 64


def _tamper_effect(entry):
    entry["effect"] = dict(entry["effect"], executed=[])


def _wrong_members(entry):
    entry["members"] += 1


def _foreign_spec(entry):
    entry["spec"] = "repro.digest/0"


def _unreplayable(entry):
    """Passes validation (its effect digest is recomputed) but does not
    rehydrate against the current advice."""
    entry["effect"] = dict(entry["effect"], journal=[["bogus"]])
    entry["effect_digest"] = effect_sum(entry["effect"])


POISONS = [_flip_verdict, _stale_output, _tamper_effect, _wrong_members,
           _foreign_spec, _unreplayable]


@pytest.fixture(scope="module")
def served():
    return run_server(
        wiki_app(),
        wiki_workload(14, seed=51),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(1),
        concurrency=5,
    )


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


@pytest.mark.parametrize("poison", POISONS, ids=lambda f: f.__name__.strip("_"))
def test_a_damaged_entry_falls_back_to_execution(served, poison):
    """Every entry that fails revalidation or rehydration re-executes its
    group: the verdict and stats equal the dedup-off audit, and no hit
    is served."""
    plain = Auditor(wiki_app(), served.trace, served.advice).run()
    dedup = Deduplicator()
    primed = Auditor(wiki_app(), served.trace, served.advice, dedup=dedup).run()
    assert primed.accepted, primed.reason
    assert len(dedup.cache) > 0
    for key in list(dedup.cache._entries):
        poison(dedup.cache._entries[key])
    metrics = MetricsRegistry()
    got = Auditor(
        wiki_app(), served.trace, served.advice, dedup=dedup, metrics=metrics
    ).run()
    assert (got.accepted, got.reason, got.detail) == (
        plain.accepted, plain.reason, plain.detail
    )
    assert _strip(got.stats) == _strip(plain.stats)
    counters = metrics.snapshot()["counters"]
    assert counters.get("reexec.dedup_groups", 0) == 0
    assert counters["reexec.cache_fallbacks"] > 0
