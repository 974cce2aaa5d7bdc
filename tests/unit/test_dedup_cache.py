"""Unit tests for the persistent verdict cache (DESIGN.md §11)."""

import pytest

from repro.obs import MetricsRegistry
from repro.storage import backend_for
from repro.storage.records import canonical_json
from repro.verifier.dedup import VerdictCache
from repro.verifier.dedup.cache import (
    RT_CACHE_ENTRY,
    STREAM_KIND,
    effect_sum,
    entry_sum,
    make_entry,
)

pytestmark = pytest.mark.tier1


def _entry(key="k" * 64, members=2, handlers=3):
    effect = {"journal": [["handlers", handlers]], "executed": []}
    return make_entry(key, members, handlers, "o" * 64, effect, canonical_json(effect))


def _put(cache, entry):
    cache.put(entry, canonical_json(entry["effect"]))


@pytest.fixture(params=["memory", "file", "gzip"])
def backend(request, tmp_path):
    if request.param == "memory":
        return backend_for("memory", None)
    return backend_for(request.param, str(tmp_path / request.param))


class TestRoundtrip:
    def test_put_get_reload(self, backend):
        cache = VerdictCache(backend)
        entry = _entry()
        _put(cache, entry)
        assert cache.get(entry["key"]) == entry
        cache.close()
        fresh = VerdictCache(backend)
        assert fresh.loaded == 1
        assert fresh.get(entry["key"]) == entry

    def test_put_is_idempotent_per_key(self, backend):
        cache = VerdictCache(backend)
        entry = _entry()
        _put(cache, entry)
        _put(cache, dict(entry))
        cache.close()
        fresh = VerdictCache(backend)
        assert fresh.loaded == 1 and len(fresh) == 1

    def test_appends_across_sessions(self, backend):
        first = VerdictCache(backend)
        _put(first, _entry(key="a" * 64))
        first.close()
        second = VerdictCache(backend)
        _put(second, _entry(key="b" * 64))
        second.close()
        third = VerdictCache(backend)
        assert third.loaded == 2
        assert {"a" * 64, "b" * 64} <= set(third._entries)

    def test_no_backend_is_process_local(self):
        cache = VerdictCache()
        _put(cache, _entry())
        assert len(cache) == 1
        assert cache.stats()["backend"] is None


class TestValidation:
    def test_bad_entry_skipped_good_prefix_kept(self, backend):
        cache = VerdictCache(backend)
        _put(cache, _entry(key="a" * 64))
        cache.close()
        writer = backend.append("verdicts", STREAM_KIND)
        writer.append(RT_CACHE_ENTRY, b'{"entry": {"key": "x"}, "sum": "nope"}')
        writer.seal()
        later = VerdictCache(backend)
        _put(later, _entry(key="b" * 64))
        later.close()
        fresh = VerdictCache(backend)
        assert fresh.loaded == 2
        assert fresh.skipped == 1

    def test_tampered_sum_rejected(self, backend):
        cache = VerdictCache(backend)
        entry = _entry()
        _put(cache, entry)
        cache.close()
        bad = dict(entry, members=entry["members"] + 1)
        assert entry_sum(bad) != entry_sum(entry)

    def test_effect_digest_must_match_effect(self, backend):
        """A re-signed record whose effect digest no longer covers its
        effect document fails load-time validation."""
        entry = _entry()
        entry["effect"] = {"journal": [], "executed": [["t", "h"]]}
        assert entry["effect_digest"] != effect_sum(entry["effect"])
        record = {"entry": entry, "sum": entry_sum(entry)}  # re-signed
        writer = backend.create("verdicts", STREAM_KIND)
        writer.append(RT_CACHE_ENTRY, canonical_json(record).encode("utf-8"))
        writer.seal()
        fresh = VerdictCache(backend)
        assert fresh.loaded == 0
        assert fresh.skipped == 1

    def test_verify_rows(self, backend):
        cache = VerdictCache(backend)
        _put(cache, _entry())
        cache.close()
        rows = VerdictCache(backend).verify()
        assert [row["status"] for row in rows] == ["ok"]


class TestMaintenance:
    def test_stats_shape(self, backend):
        cache = VerdictCache(backend)
        _put(cache, _entry(members=3, handlers=5))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["members"] == 3
        assert stats["handlers"] == 5
        assert stats["spec"] == "repro.digest/1"
        assert stats["backend"] == backend.scheme

    def test_clear_drops_stream(self, backend):
        cache = VerdictCache(backend)
        _put(cache, _entry())
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not backend.exists("verdicts")
        assert VerdictCache(backend).loaded == 0

    def test_write_failure_degrades_to_memory(self):
        class ExplodingBackend:
            scheme = "boom"

            def exists(self, name):
                return False

            def append(self, name, kind):
                raise OSError("disk full")

        metrics = MetricsRegistry()
        cache = VerdictCache.__new__(VerdictCache)
        cache.backend = ExplodingBackend()
        cache.name = "verdicts"
        cache.metrics = metrics
        cache._writer = None
        cache._entries = {}
        cache.loaded = 0
        cache.skipped = 0
        entry = _entry()
        _put(cache, entry)  # must not raise
        assert cache.get(entry["key"]) == entry
        assert cache.backend is None
        assert metrics.counter("cache.write_failures").value == 1
