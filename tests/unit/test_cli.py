"""Unit tests for the command-line interface."""

import json
import shutil

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

    def test_negative_epochs_is_usage_error(self, served, capsys):
        """Epochs come from the sealer alone: no count is accepted."""
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--app", "motd", "--store-path", str(served),
                  "--epochs", "-1"])
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("copy", ["epoch-1", "epoch-00"])
    def test_copied_epoch_stream_is_input_format(
        self, served_store, capsys, copy
    ):
        """A stream is the epoch its name spells: epoch 0 copied under
        the next index, or under its own index with a leading zero, is
        malformed input, never a second audit of epoch 0."""
        store = served_store("motd", "--requests", "12", "--seal-every", "4")
        for extra in store.glob("epoch-*.rec"):
            if extra.name != "epoch-0.rec":
                extra.unlink()
        shutil.copy(store / "epoch-0.rec", store / f"{copy}.rec")
        capsys.readouterr()
        code = main(["audit", "--app", "motd", "--store-path", str(store),
                     "--format", "json"])
        assert code == EXIT_REJECTED
        assert json.loads(capsys.readouterr().out)["reason"] == "input-format"


class TestServeAudit:
    def test_unknown_tenant_app_is_usage_error(self, tmp_path, capsys):
        code = main(["serve-audit", "--tenant", f"app=nope,store={tmp_path}",
                     "--state-dir", str(tmp_path / "state"), "--once"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown tenant app 'nope'" in err and "wiki" in err

    def test_negative_poll_interval_is_usage_error(self, tmp_path, capsys):
        code = main(["serve-audit", "--tenant",
                     f"app=motd,store={tmp_path / 'epochs'}",
                     "--state-dir", str(tmp_path / "state"), "--once",
                     "--poll-interval", "-1"])
        assert code == EXIT_USAGE
        assert "poll interval must be >= 0" in capsys.readouterr().err


class TestPlan:
    def test_negative_epochs_is_usage_error(self, served, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "--app", "motd", "--store-path", str(served),
                  "--epochs", "-2"])
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --epochs" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags", [["--conflicts"], ["--format", "json"]])
    def test_effect_options_are_gone(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--app", "wiki", *flags])
        assert exit_info.value.code == EXIT_USAGE

    def test_list_attacks(self, capsys):
        assert main(["list-attacks"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tamper-response" in out
        assert "guaranteed" in out
