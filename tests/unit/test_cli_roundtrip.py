"""CLI round-trips: serve -> store -> audit for every app, honest and
tampered, in both monolithic and continuous (epoch) modes."""

import json

import pytest

from repro.advice.codec import read_advice, write_advice
from repro.attacks import ALL_ATTACKS
from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.storage import backend_for
from repro.trace.codec import read_trace

pytestmark = pytest.mark.tier1

APPS = ["motd", "stacks", "wiki"]

SERVE = ("--requests", "10", "--seed", "6", "--concurrency", "2")


@pytest.fixture(params=APPS)
def served_app(request, served_store):
    return request.param, served_store(request.param, *SERVE)


def _tamper(store):
    """Apply the first applicable guaranteed attack to the stored pair."""
    backend = backend_for("file", str(store))
    trace = read_trace(backend, "trace")
    advice = read_advice(backend, "advice")
    for attack in ALL_ATTACKS:
        if not attack.guaranteed:
            continue
        try:
            t2, tampered = attack.apply(trace, advice)
        except LookupError:
            continue
        if t2 == trace and tampered != advice:
            write_advice(backend, "advice", tampered)
            return attack.name
    raise AssertionError("no applicable advice tamper")


def _audit(app, store, *extra):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


class TestMonolithicRoundtrip:
    def test_honest_accepts(self, served_app):
        assert _audit(*served_app) == EXIT_OK

    def test_tampered_rejects(self, served_app):
        app, store = served_app
        _tamper(store)
        assert _audit(app, store) == EXIT_REJECTED


class TestContinuousRoundtrip:
    @pytest.fixture()
    def sealed(self, served_store):
        """A wiki store holding sealed epoch streams next to the whole
        trace and advice."""
        return "wiki", served_store("wiki", *SERVE, "--seal-every", "2")

    def test_epochs_dir_honest_accepts(self, sealed, capsys):
        assert _audit(*sealed) == EXIT_OK
        assert "epoch 0: ACCEPT" in capsys.readouterr().out

    def test_epochs_dir_resumes(self, sealed, capsys):
        # Checkpoints and journal live in the store: a re-run resumes.
        assert _audit(*sealed) == EXIT_OK
        capsys.readouterr()
        assert _audit(*sealed) == EXIT_OK
        assert "resumed" in capsys.readouterr().out

    def test_offline_epochs_honest_accepts(self, sealed):
        assert _audit(*sealed, "--epochs", "2") == EXIT_OK

    def test_offline_epochs_tampered_rejects(self, sealed, capsys):
        app, store = sealed
        _tamper(store)
        assert _audit(app, store, "--epochs", "2") == EXIT_REJECTED
        assert "REJECT" in capsys.readouterr().out


class TestContinuousUsageErrors:
    def test_seal_every_rejected_with_threads(self, tmp_path):
        code = main(["serve", "--app", "motd", "--requests", "4",
                     "--threads", "2", "--seal-every", "2",
                     "--store-path", str(tmp_path / "store")])
        assert code == EXIT_USAGE

    def test_trace_required_without_epochs_dir(self):
        """No store named: there is nowhere to read a trace from."""
        for command in ("serve", "audit", "plan"):
            assert main([command, "--app", "motd"]) == EXIT_USAGE
        assert main(["attack", "--app", "motd",
                     "--name", "tamper-response"]) == EXIT_USAGE

    def test_empty_epochs_dir_is_usage_error(self, tmp_path):
        """A store with neither epoch streams nor a trace/advice pair."""
        empty = tmp_path / "none"
        empty.mkdir()
        for command in ("audit", "plan"):
            code = main([command, "--app", "motd", "--store-path", str(empty)])
            assert code == EXIT_USAGE


class TestEngineFlags:
    def test_resume_requires_node_journal(self, tmp_path):
        code = main(["audit", "--app", "motd", "--store-path", str(tmp_path),
                     "--resume"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags", [["--parallel-mode", "thread"], ["--scheduler", "pipeline"],
                  ["--scheduler", "thread"], ["--static-hints"]]
    )
    def test_engine_selecting_flags_are_gone(self, tmp_path, flags):
        """There is one audit engine; nothing selects another."""
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--app", "motd", "--store-path", str(tmp_path),
                  *flags])
        assert exit_info.value.code == EXIT_USAGE

    def test_plan_and_fleet_lost_them_too(self, tmp_path):
        here = str(tmp_path)
        for argv in (
            ["plan", "--app", "motd", "--store-path", here, "--static-hints"],
            ["serve-audit", "--tenant", f"app=motd,store={here}",
             "--state-dir", here, "--scheduler", "thread"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == EXIT_USAGE, argv


REMOVED_FLAGS = {
    "serve": ["--out-trace", "--out-advice", "--out-epochs"],
    "audit": ["--trace", "--advice", "--epochs-dir", "--checkpoint-dir",
              "--journal"],
    "plan": ["--trace", "--advice", "--epochs-dir"],
    "attack": ["--trace", "--advice"],
}


class TestOneStore:
    """One persistence path: a store directory, and nothing that selects
    another format or location."""

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c, flags in sorted(REMOVED_FLAGS.items()) for f in flags],
    )
    def test_format_and_location_flags_are_gone(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--app", "motd", "--store-path", str(tmp_path),
                  flag, str(tmp_path / "x")])
        assert exit_info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("scheme", ["json", "memory"])
    def test_store_schemes_are_backends_only(self, tmp_path, scheme):
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--app", "motd", "--store", scheme,
                  "--store-path", str(tmp_path)])
        assert exit_info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", sorted(REMOVED_FLAGS))
    def test_help_lists_the_two_store_options(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        out = capsys.readouterr().out
        assert "--store {file,gzip}" in out and "--store-path DIR" in out
        for flag in set(sum(REMOVED_FLAGS.values(), [])):
            assert flag + " " not in out


class TestDamagedAuditorState:
    """The auditor's own checkpoints and journal are evidence too: a
    CRC-valid but malformed record in either is a rejection through the
    CLI, never a traceback; a torn tail is a crash artefact and resumes."""

    @pytest.fixture()
    def audited(self, served_store):
        store = served_store(
            "motd", "--requests", "12", "--seal-every", "3", "--concurrency", "1"
        )
        assert _audit("motd", store) == EXIT_OK
        return store

    @staticmethod
    def _append(store, name, kind, payload):
        with backend_for("file", str(store)).append(name, kind) as writer:
            writer.append(1, payload)

    @pytest.mark.parametrize(
        "name,kind,payload",
        [
            ("journal", "journal", b"[1,2]"),
            ("journal", "journal", b'{"event":"verified"}'),
            ("checkpoints", "checkpoint", b'{"epoch":0}'),
        ],
        ids=["journal-not-an-object", "journal-no-epoch", "checkpoint-partial"],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_malformed_record_rejects(self, audited, capsys, name, kind,
                                      payload, fmt):
        self._append(audited, name, kind, payload)
        capsys.readouterr()
        assert _audit("motd", audited, "--format", fmt) == EXIT_REJECTED
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["accepted"] is False and doc["reason"] == "input-format"
        else:
            assert "REJECT  reason=input-format" in out

    @pytest.mark.parametrize(
        "torn", [("journal",), ("checkpoints", "journal")],
        ids=["mid-journal-append", "mid-checkpoint-append"],
    )
    def test_torn_tail_still_resumes(self, audited, capsys, torn):
        """A crash tears the record being appended: the journal's final
        ``verified``, or the checkpoint written just before it."""
        for name in torn:
            path = audited / f"{name}.rec"
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 3)
        capsys.readouterr()
        assert _audit("motd", audited) == EXIT_OK
        # Only the epoch whose records tore is re-audited.
        assert "resumed: 3 epochs already verified" in capsys.readouterr().out
