"""Unit tests for the command-line interface."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.storage import backend_for


@pytest.fixture()
def served(served_store):
    return served_store(
        "motd", "--requests", "25", "--seed", "4", "--concurrency", "5"
    )


def _corrupt_epoch(served_store, stream):
    """A sealed two-epoch motd store in which ``stream`` is not a record
    stream at all."""
    store = served_store("motd", "--requests", "20", "--seal-every", "5")
    (store / f"{stream}.rec").write_bytes(b"garbage")
    return store


class TestServe:
    def test_serve_writes_files(self, served):
        assert (served / "epoch-0.rec").stat().st_size > 0

    @pytest.mark.parametrize(
        "serve_args",
        [(), ("--threads", "3", "--isolation", "snapshot"),
         ("--server", "unmodified")],
        ids=["default", "threads", "unmodified"],
    )
    def test_serve_stores_only_sealed_epochs(self, served_store, serve_args):
        """A served run has one stored form: its sealed epochs (the whole
        run as epoch 0 without --seal-every) next to the store's binlog."""
        store = served_store("stacks", "--requests", "12", *serve_args)
        streams = backend_for("file", str(store)).list_streams()
        assert sorted(streams) == ["binlog", "epoch-0"]

    def test_unmodified_server_has_no_advice(self, served_store, capsys):
        store = served_store("motd", "--requests", "5", "--server", "unmodified")
        assert sorted(os.listdir(store)) == ["epoch-0.rec"]
        capsys.readouterr()
        # An epoch without advice cannot be audited: a verdict, not a crash.
        code = main(["audit", "--app", "motd", "--store-path", str(store)])
        assert code == EXIT_REJECTED
        assert "REJECT  reason=input-format" in capsys.readouterr().out

    def test_epoch_without_advice_is_input_format(self, served_store, capsys):
        """``has_advice`` is server-written: a sealed epoch that carries no
        advice rejects as malformed input, and so does every epoch after."""
        store = served_store("motd", "--requests", "10", "--server",
                             "unmodified", "--seal-every", "5")
        capsys.readouterr()
        code = main(["audit", "--app", "motd", "--store-path", str(store),
                     "--format", "json", "--explain"])
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"] == "input-format"
        assert doc["epochs"][0]["detail"] == "epoch 0 carries no advice"
        assert doc["explain"]["localized"] is False
        # Such an epoch has no plan either.
        plan = ["plan", "--app", "motd", "--store-path", str(store)]
        assert main(plan) == EXIT_USAGE

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


    def test_explain_localizes_a_rejected_later_epoch(self, served_store, capsys):
        """``--explain`` replays the rejected epoch from its parent
        checkpoint with singleton groups: the report names the first
        diverging operation of epoch 1."""
        from repro.attacks.tamper import tamper_response
        from repro.continuous import Epoch, iter_epochs_stored, write_epoch_stored

        store = served_store("wiki", "--requests", "12", "--seed", "6",
                             "--concurrency", "2", "--seal-every", "3")
        backend = backend_for("file", str(store))
        epoch = list(iter_epochs_stored(backend))[1]
        trace, advice = tamper_response(epoch.trace, epoch.advice)
        write_epoch_stored(backend, Epoch(1, trace, advice, epoch.binlog_range))
        capsys.readouterr()
        code = main(["audit", "--app", "wiki", "--store-path", str(store),
                     "--explain", "--format", "json"])
        assert code == EXIT_REJECTED
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"] == "output-mismatch"
        assert doc["explain"]["localized"] is True
        assert doc["explain"]["epoch"] == 1
        assert doc["explain"]["rid"] in trace.request_ids()

    def test_closed_stdout_exits_without_a_traceback(self, served):
        """A reader that closes stdout early (``| head``) ends the audit
        with exit 1 and nothing on stderr but what it chose to say."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")]
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "audit", "--app", "motd",
             "--store-path", str(served), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE, err
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


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


    def test_corrupt_epoch_stream_is_a_usage_error(self, served_store, capsys):
        store = _corrupt_epoch(served_store, "epoch-1")
        capsys.readouterr()
        code = main(["plan", "--app", "motd", "--store-path", str(store)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: epoch stream epoch-1 is unreadable: ")
        assert err.count("\n") == 1


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

    @pytest.mark.parametrize("stream", ["epoch-0", "epoch-1"])
    def test_corrupt_epoch_stream_is_a_usage_error(self, served_store, capsys,
                                                   stream):
        """Whether the damaged stream is where the attack looks for its
        target or after it (read only by the in-memory audit)."""
        store = _corrupt_epoch(served_store, stream)
        capsys.readouterr()
        code = main(["attack", "--app", "motd", "--store-path", str(store),
                     "--name", "tamper-response"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: epoch stream {stream} is unreadable: ")
        assert captured.err.count("\n") == 1


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
