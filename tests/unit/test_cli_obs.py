"""CLI observability surface: `audit --format json`, `--metrics-out`, and
`serve --metrics-out` (machine-readable verdicts and schema-valid metrics)."""

import json

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, main
from repro.obs import validate_metrics_doc

pytestmark = pytest.mark.tier1


@pytest.fixture()
def served(served_store):
    return served_store(
        "motd", "--requests", "20", "--seed", "7", "--concurrency", "4"
    )


def _audit(store, *extra, app="motd"):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


class TestJsonFormat:
    def test_accepted_verdict_json(self, served, capsys):
        code = _audit(served, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert doc["reason"] == "accepted"
        assert set(doc) == {
            "accepted", "reason", "detail", "stats", "resumed_epochs", "epochs",
        }
        assert doc["stats"]["handlers_executed"] > 0
        assert [e["epoch"] for e in doc["epochs"]] == [0]

    def test_rejected_verdict_json(self, served, capsys):
        code = _audit(served, "--format", "json", app="wiki")
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is False
        assert doc["reason"]
        assert isinstance(doc["detail"], str)

    def test_input_format_error_json(self, served, capsys):
        (served / "epoch-0.rec").write_bytes(b"{}")
        code = _audit(served, "--format", "json")
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is False
        assert doc["reason"] == "input-format"

    def test_continuous_verdict_json(self, served_store, capsys):
        sealed = served_store(
            "motd", "--requests", "20", "--seed", "7", "--concurrency", "4",
            "--seal-every", "3",
        )
        capsys.readouterr()  # serve's own output
        code = _audit(sealed, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepted"] is True
        assert isinstance(doc["epochs"], list) and doc["epochs"]
        first = doc["epochs"][0]
        assert set(first) == {
            "epoch", "accepted", "reason", "detail", "checkpoint_digest",
        }


class TestMetricsOut:
    def test_audit_metrics_out(self, served, tmp_path):
        out = tmp_path / "metrics.json"
        code = _audit(served, "--metrics-out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["pipeline.accepts"] == 1
        assert "pipeline.stage.reexec.seconds" in doc["histograms"]

    def test_parallel_audit_metrics_out(self, served, tmp_path):
        out = tmp_path / "metrics.json"
        code = _audit(served, "--jobs", "2", "--metrics-out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)

    def test_rejected_audit_records_diagnostic(self, served, tmp_path):
        out = tmp_path / "metrics.json"
        code = _audit(served, "--metrics-out", str(out), app="wiki")
        assert code == EXIT_REJECTED
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["pipeline.rejects"] == 1
        assert doc["diagnostics"], "rejection must leave a structured diagnostic"
        assert doc["diagnostics"][0]["reason"]

    def test_serve_metrics_out(self, served_store, tmp_path):
        out = tmp_path / "metrics.json"
        served_store("motd", "--requests", "10", "--metrics-out", str(out))
        doc = json.loads(out.read_text())
        validate_metrics_doc(doc)
        assert doc["counters"]["kem.requests"] == 10
        assert doc["counters"]["kem.responses"] == 10

    def test_progress_flag_prints_stages(self, served, capsys):
        code = _audit(served, "--progress")
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "progress: epoch[0].reexec" in err
