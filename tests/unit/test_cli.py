"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main


@pytest.fixture()
def served(served_store):
    return served_store(
        "motd", "--requests", "25", "--seed", "4", "--concurrency", "5"
    )


class TestServe:
    def test_serve_writes_files(self, served):
        assert (served / "trace.rec").stat().st_size > 0
        assert (served / "advice.rec").stat().st_size > 0

    def test_unmodified_server_has_no_advice(self, served_store):
        store = served_store("motd", "--requests", "5", "--server", "unmodified")
        assert (store / "trace.rec").exists()
        assert not (store / "advice.rec").exists()
        # Nothing to audit against: a usage error, not a verdict.
        code = main(["audit", "--app", "motd", "--store-path", str(store)])
        assert code == EXIT_USAGE

    def test_threaded_serving(self, served_store):
        store = served_store(
            "stacks", "--requests", "15", "--threads", "3",
            "--isolation", "snapshot",
        )
        code = main(["audit", "--app", "stacks", "--store-path", str(store)])
        assert code == EXIT_OK


class TestAudit:
    def test_honest_accepts(self, served, capsys):
        code = main(["audit", "--app", "motd", "--store-path", str(served)])
        assert code == EXIT_OK
        assert "ACCEPT" in capsys.readouterr().out

    def test_singleton_groups_mode(self, served):
        code = main(["audit", "--app", "motd", "--store-path", str(served),
                     "--singleton-groups"])
        assert code == EXIT_OK

    def test_wrong_app_rejects(self, served, capsys):
        code = main(["audit", "--app", "wiki", "--store-path", str(served)])
        assert code == EXIT_REJECTED
        assert "REJECT" in capsys.readouterr().out


class TestAttack:
    def test_guaranteed_attack_caught(self, served, capsys):
        code = main(["attack", "--app", "motd", "--store-path", str(served),
                     "--name", "tamper-response"])
        assert code == EXIT_OK, "caught attack = success exit"
        assert "REJECT" in capsys.readouterr().out

    def test_attack_without_target_is_usage_error(self, served):
        # MOTD has no transactions: tx attacks have no target.
        code = main(["attack", "--app", "motd", "--store-path", str(served),
                     "--name", "tamper-put-value"])
        assert code == EXIT_USAGE


class TestAnalyze:
    def test_analyze_prints_table(self, capsys):
        assert main(["analyze", "--app", "wiki"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config" in out and "read-only" in out
        assert "can-skip-logging" in out

    def test_list_attacks(self, capsys):
        assert main(["list-attacks"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tamper-response" in out
        assert "guaranteed" in out
