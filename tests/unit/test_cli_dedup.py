"""CLI surface of the dedup subsystem: `audit --dedup/--cache-dir/
--no-cache` and the `repro cache` maintenance command (DESIGN.md §11)."""

import json

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.obs import validate_metrics_doc

pytestmark = pytest.mark.tier1


@pytest.fixture()
def served(served_store):
    return served_store(
        "stacks", "--requests", "20", "--seed", "7", "--concurrency", "4"
    )


def _audit(store, *extra, app="stacks"):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


def _metrics(path):
    doc = json.loads(path.read_text())
    validate_metrics_doc(doc)
    return doc


class TestAuditFlags:
    def test_dedup_accepts_and_reports_counters(self, served, tmp_path):
        out = tmp_path / "metrics.json"
        code = _audit(served, "--dedup", "--metrics-out", str(out))
        assert code == EXIT_OK
        counters = _metrics(out)["counters"]
        assert counters["reexec.cache_misses"] > 0
        assert "reexec.dedup_groups" in counters
        assert "reexec.cache_hits" in counters

    def test_cache_dir_warm_start(self, served, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_out, warm_out = tmp_path / "cold.json", tmp_path / "warm.json"
        assert _audit(served, "--cache-dir", str(cache_dir),
                      "--metrics-out", str(cold_out)) == EXIT_OK
        assert _audit(served, "--cache-dir", str(cache_dir),
                      "--metrics-out", str(warm_out)) == EXIT_OK
        cold = _metrics(cold_out)["counters"]
        warm = _metrics(warm_out)["counters"]
        assert cold["reexec.cache_hits"] == 0
        assert warm["reexec.cache_hits"] == cold["cache.entries_written"]
        assert warm["reexec.cache_hits"] > 0
        assert warm["reexec.cache_misses"] == cold["reexec.cache_misses"] - (
            warm["reexec.cache_hits"]
        )
        assert warm["cache.entries_loaded"] == cold["cache.entries_written"]

    def test_dedup_verdict_matches_plain(self, served, tmp_path, capsys):

        def verdict(*extra):
            code = _audit(served, "--format", "json", *extra)
            doc = json.loads(capsys.readouterr().out)
            stats = {
                k: v for k, v in doc["stats"].items() if k != "elapsed_seconds"
            }
            return code, doc["accepted"], doc["reason"], stats

        plain = verdict()
        cache_dir = str(tmp_path / "cache")
        assert verdict("--dedup") == plain
        assert verdict("--cache-dir", cache_dir) == plain
        assert verdict("--cache-dir", cache_dir) == plain  # warm
        assert verdict("--dedup", "--no-cache") == plain

    def test_dedup_with_epochs(self, served, tmp_path, capsys):
        code = _audit(served, "--epochs", "3", "--dedup",
                      "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True

    def test_usage_errors(self, served, tmp_path):
        assert _audit(served, "--no-cache") == EXIT_USAGE
        assert _audit(served, "--dedup", "--no-cache",
                      "--cache-dir", str(tmp_path / "c")) == EXIT_USAGE


class TestCacheCommand:
    @pytest.fixture()
    def cache_dir(self, served, tmp_path):
        path = tmp_path / "cache"
        assert _audit(served, "--cache-dir", str(path)) == EXIT_OK
        return path

    def test_stats(self, cache_dir, capsys):
        code = main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] > 0
        assert doc["spec"] == "repro.digest/1"

    def test_verify_clean(self, cache_dir, capsys):
        code = main(["cache", "verify", "--cache-dir", str(cache_dir)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert ", 0 bad" in out

    def test_verify_poisoned(self, cache_dir, capsys):
        from repro.fuzz.cache import poison
        from repro.storage import backend_for

        poison(backend_for("file", str(cache_dir)), "break-sum")
        code = main(["cache", "verify", "--cache-dir", str(cache_dir),
                     "--format", "json"])
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["bad"] > 0 and doc["ok"] == 0

    def test_clear(self, cache_dir, capsys):
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == EXIT_OK
        assert "cleared" in capsys.readouterr().out
        code = main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["entries"] == 0
