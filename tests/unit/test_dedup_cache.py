"""Unit tests for the in-memory verdict cache, its lazily normalised
entries and the hit-time revalidation of them (DESIGN.md §11)."""

import pytest

from repro.apps import wiki_app
from repro.continuous import ContinuousAuditor
from repro.kem.scheduler import RandomScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.dedup import Deduplicator, VerdictCache, executor, group_digest
from repro.verifier.dedup.cache import effect_sum, make_entry
from repro.verifier.parallel import GroupDelta, execute_group, merge_delta
from repro.verifier.preprocess import preprocess
from repro.verifier.reexec import ReExecutor
from repro.workload import wiki_workload
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


def _entry(key="k" * 64, members=2, handlers=3):
    source = (["r1", "r2"], {}, GroupDelta(tag="g"))
    return make_entry(key, members, handlers, "o" * 64, source)


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
# The poisons of what an entry holds from its store on, before any hit.
STORED_POISONS = [_flip_verdict, _stale_output, _wrong_members, _foreign_spec]


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


def _audit(served, dedup=None, metrics=None):
    return Auditor(
        wiki_app(), served.trace, served.advice, dedup=dedup, metrics=metrics
    ).run()


def _hits_and_fallbacks(metrics):
    counters = metrics.snapshot()["counters"]
    return counters.get("reexec.dedup_groups", 0), counters.get("reexec.cache_fallbacks", 0)


def _primed(served, hit):
    """A cache primed by one audit, and by a second one that hit every
    entry (which normalises its effect) when ``hit``."""
    dedup = Deduplicator()
    primed = _audit(served, dedup)
    assert primed.accepted, primed.reason
    entries = list(dedup.cache._entries.values())
    assert entries
    if hit:
        metrics = MetricsRegistry()
        assert _audit(served, dedup, metrics).accepted
        assert _hits_and_fallbacks(metrics) == (len(entries), 0)
    assert all(("effect" in e) is hit and ("source" in e) is not hit for e in entries)
    return dedup, entries


def _assert_falls_back(served, dedup):
    plain = _audit(served)
    metrics = MetricsRegistry()
    got = _audit(served, dedup, metrics)
    assert (got.accepted, got.reason, got.detail) == (
        plain.accepted, plain.reason, plain.detail
    )
    assert _strip(got.stats) == _strip(plain.stats)
    hits, fallbacks = _hits_and_fallbacks(metrics)
    assert hits == 0 and fallbacks > 0


@pytest.mark.parametrize("poison", POISONS, ids=lambda f: f.__name__.strip("_"))
def test_a_damaged_entry_falls_back_to_execution(served, poison):
    """Every entry that fails revalidation or rehydration re-executes its
    group: the verdict and stats equal the dedup-off audit, and no hit
    is served.  The entries are damaged after a hit normalised their
    effects, so the effect poisons have a document to damage."""
    dedup, entries = _primed(served, hit=True)
    for entry in entries:
        poison(entry)
    _assert_falls_back(served, dedup)


@pytest.mark.parametrize("poison", STORED_POISONS, ids=lambda f: f.__name__.strip("_"))
def test_a_damaged_stored_entry_falls_back_to_execution(served, poison):
    """The same, for entries never hit: their first hit must revalidate
    before it normalises the effect, and the damage still shows."""
    dedup, entries = _primed(served, hit=False)
    for entry in entries:
        poison(entry)
    _assert_falls_back(served, dedup)
    assert all("source" in e and "effect" not in e for e in entries)


def test_an_entry_whose_effect_cannot_be_normalised_is_dropped(served):
    """A stored snapshot that does not normalise is dropped at its first
    hit, and its group is a plain miss: no hit and no fallback, as if
    the group had never been stored."""
    plain = _audit(served)
    dedup, entries = _primed(served, hit=False)
    for entry in entries:
        entry["source"][2].journal.append(("bogus",))
    metrics = MetricsRegistry()
    got = _audit(served, dedup, metrics)
    assert (got.accepted, got.reason, got.detail) == (
        plain.accepted, plain.reason, plain.detail
    )
    assert _strip(got.stats) == _strip(plain.stats)
    assert _hits_and_fallbacks(metrics) == (0, 0)
    assert all(dedup.cache.get(e["key"]) is not e for e in entries)


# -- lazy normalisation --------------------------------------------------------


@pytest.fixture
def normalised(monkeypatch):
    """The effects normalised so far, as ``(rids, tokens)`` per call."""
    calls = []
    real = executor.normalize_effect

    def counting(rids, delta, tokens):
        calls.append((tuple(rids), dict(tokens)))
        return real(rids, delta, tokens)

    monkeypatch.setattr(executor, "normalize_effect", counting)
    return calls


def test_an_all_miss_stream_normalises_no_effect(normalised):
    dedup, metrics = Deduplicator(), MetricsRegistry()
    verdicts = ContinuousAuditor(wiki_app(), dedup=dedup, metrics=metrics).run(
        vg.streams("wiki")["honest"]
    )
    assert verdicts and all(v.accepted for v in verdicts)
    assert len(dedup.cache) > 0 and _hits_and_fallbacks(metrics) == (0, 0)
    assert normalised == []
    assert all("source" in e and "effect" not in e for e in dedup.cache._entries.values())


def test_the_first_hit_normalises_an_effect_and_later_hits_reuse_it(served, normalised):
    dedup = Deduplicator()
    assert _audit(served, dedup).accepted
    stored = len(dedup.cache)
    assert stored > 0 and normalised == []
    metrics = MetricsRegistry()
    assert _audit(served, dedup, metrics).accepted
    assert _hits_and_fallbacks(metrics) == (stored, 0)
    assert len(normalised) == stored
    effects = {key: e["effect"] for key, e in dedup.cache._entries.items()}
    metrics = MetricsRegistry()
    assert _audit(served, dedup, metrics).accepted
    assert _hits_and_fallbacks(metrics) == (stored, 0)
    assert len(normalised) == stored
    assert all(dedup.cache.get(key)["effect"] is effect for key, effect in effects.items())


def _rehydrated(delta):
    return (delta.journal, delta.executed, delta.outputs, delta.var_dicts,
            delta.read_observers, delta.consumed, delta.plain_values)


def test_a_merge_after_store_does_not_change_what_a_hit_rehydrates(served):
    """The stored snapshot is the group's delta as it merged: writes the
    merge target later appends, and observers it later adds, to the maps
    it shares with that delta stay out of every later hit."""
    state = preprocess(wiki_app(), served.trace, served.advice)
    tag, rids = max(served.advice.groups().items(), key=lambda item: len(item[1]))
    digest = group_digest(state, rids)
    assert digest is not None
    delta = execute_group(state, tag, rids)
    want = Deduplicator()
    assert want.store(state, rids, digest, execute_group(state, tag, rids))
    dedup = Deduplicator()
    target = ReExecutor(state)
    merge_delta(target, delta)
    assert dedup.store(state, rids, digest, delta)
    assert delta.var_dicts and delta.read_observers
    for var_id, var_dict in delta.var_dicts.items():
        for writes in var_dict.values():
            writes.append((10_000, "later"))
        target.vars[var_id].var_dict.clear()
    for var_id, observers in delta.read_observers.items():
        for readers in observers.values():
            readers.add(("r-later", None, 0))
        target.vars[var_id].read_observers.clear()
    for keys in delta.consumed.values():
        keys.add(("r-later", None, 0))
    for values in delta.plain_values.values():
        values["r-later"] = "later"
    delta.journal.append(("handlers", 1))
    delta.executed.add(("r-later", None))
    _, got = dedup.fetch(state, tag, rids)
    _, expected = want.fetch(state, tag, rids)
    assert got is not None and expected is not None
    assert _rehydrated(got) == _rehydrated(expected)
