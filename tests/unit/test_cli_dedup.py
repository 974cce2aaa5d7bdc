"""CLI surface of the dedup subsystem: `audit --dedup` (DESIGN.md §11)."""

import json
import shutil

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.obs import validate_metrics_doc

pytestmark = pytest.mark.tier1


@pytest.fixture()
def served(served_store):
    return served_store(
        "stacks", "--requests", "20", "--seed", "7", "--concurrency", "4"
    )


def _audit(store, *extra, app="stacks"):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


def _copy(store, tmp_path, name):
    """A fresh copy of the served store: a re-run audit of one store
    resumes from its journal and re-executes nothing."""
    copy = tmp_path / name
    shutil.copytree(store, copy)
    return copy


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
        assert "reexec.cache_fallbacks" in counters

    def test_dedup_verdict_matches_plain(self, served, tmp_path, capsys):

        def verdict(copy, *extra):
            code = _audit(_copy(served, tmp_path, copy), "--format", "json", *extra)
            doc = json.loads(capsys.readouterr().out)
            stats = {
                k: v for k, v in doc["stats"].items() if not k.endswith("_seconds")
            }
            return code, doc["accepted"], doc["reason"], stats

        plain = verdict("plain")
        assert verdict("dedup", "--dedup") == plain
        assert verdict("dedup-jobs", "--dedup", "--jobs", "2") == plain

    def test_dedup_with_epochs(self, served_store, capsys):
        sealed = served_store(
            "stacks", "--requests", "20", "--seed", "7", "--concurrency", "4",
            "--seal-every", "3",
        )
        capsys.readouterr()  # serve's own output
        code = _audit(sealed, "--dedup", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert len(doc["epochs"]) > 1

    def test_usage_errors(self, served):
        assert _audit(served, "--dedup", "--jobs", "0") == EXIT_USAGE
