"""CLI round-trips: serve -> store -> audit for every app, honest and
tampered, unsealed (the whole run as one epoch) and sealed every N
responses."""

import json

import pytest

from repro.attacks import ALL_ATTACKS
from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.continuous import Epoch, iter_epochs_stored, write_epoch_stored
from repro.storage import backend_for

pytestmark = pytest.mark.tier1

APPS = ["motd", "stacks", "wiki"]

SERVE = ("--requests", "10", "--seed", "6", "--concurrency", "2")


@pytest.fixture(params=APPS)
def served_app(request, served_store):
    return request.param, served_store(request.param, *SERVE)


def _advice_tamper(trace, advice):
    """The first applicable guaranteed attack that alters only advice."""
    for attack in ALL_ATTACKS:
        if not attack.guaranteed:
            continue
        try:
            t2, tampered = attack.apply(trace, advice)
        except LookupError:
            continue
        if t2 == trace and tampered != advice:
            return tampered
    raise AssertionError("no applicable advice tamper")


def _tamper_epoch(store, index):
    """Tamper with the advice of the stored epoch ``index``."""
    backend = backend_for("file", str(store))
    epoch = list(iter_epochs_stored(backend))[index]
    tampered = _advice_tamper(epoch.trace, epoch.advice)
    write_epoch_stored(
        backend, Epoch(index, epoch.trace, tampered, epoch.binlog_range)
    )


def _audit(app, store, *extra):
    return main(["audit", "--app", app, "--store-path", str(store), *extra])


class TestMonolithicRoundtrip:
    """An unsealed serve stores the whole run as epoch 0."""

    def test_honest_accepts(self, served_app):
        assert _audit(*served_app) == EXIT_OK

    def test_tampered_rejects(self, served_app):
        app, store = served_app
        _tamper_epoch(store, 0)
        assert _audit(app, store) == EXIT_REJECTED


class TestContinuousRoundtrip:
    @pytest.fixture()
    def sealed(self, served_store):
        """A wiki store holding an epoch stream per two responses."""
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

    @pytest.fixture()
    def sealed3(self, served_store):
        return "wiki", served_store("wiki", *SERVE, "--seal-every", "3")

    def test_offline_epochs_honest_accepts(self, sealed3, capsys):
        """After serving, ``audit`` takes the epochs as they were sealed."""
        assert _audit(*sealed3) == EXIT_OK
        out = capsys.readouterr().out
        assert "epoch 1: ACCEPT" in out and "REJECT" not in out

    def test_offline_epochs_tampered_rejects(self, sealed3, capsys):
        app, store = sealed3
        _tamper_epoch(store, 1)
        assert _audit(app, store) == EXIT_REJECTED
        out = capsys.readouterr().out
        assert "epoch 0: ACCEPT" in out and "epoch 1: REJECT" in out


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
        """A store without epoch streams has nothing to audit or plan."""
        empty = tmp_path / "none"
        empty.mkdir()
        for command in ("audit", "plan"):
            code = main([command, "--app", "motd", "--store-path", str(empty)])
            assert code == EXIT_USAGE


class TestEngineFlags:
    def test_resume_flag_is_gone(self, tmp_path):
        """``--node-journal`` alone resumes; no flag asks for it."""
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--app", "motd", "--store-path", str(tmp_path),
                  "--node-journal", str(tmp_path / "nodes"), "--resume"])
        assert exit_info.value.code == EXIT_USAGE

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
    "audit": ["--trace", "--advice", "--epochs", "--epochs-dir",
              "--checkpoint-dir", "--journal", "--singleton-groups"],
    "plan": ["--trace", "--advice", "--epochs", "--epochs-dir",
             "--singleton-groups"],
    "attack": ["--trace", "--advice"],
}


class TestOneStore:
    """One persistence path: a store directory, and nothing that selects
    another format or location."""

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c, flags in sorted(REMOVED_FLAGS.items()) for f in flags],
    )
    def test_format_and_location_flags_are_gone(
        self, tmp_path, capsys, command, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--app", "motd", "--store-path", str(tmp_path),
                  flag, str(tmp_path / "x")])
        assert exit_info.value.code == EXIT_USAGE
        # argparse names an option it knows ("argument --x: invalid ...").
        assert f"argument {flag}" not in capsys.readouterr().err

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


# Flags of the on-disk verdict cache and of the worker-pool backend.
CACHE_AND_SCHEDULER_ARGV = {
    "audit --cache-dir": ["audit", "--app", "motd", "--store-path", "{s}",
                          "--cache-dir", "{s}/cache"],
    "audit --no-cache": ["audit", "--app", "motd", "--store-path", "{s}",
                         "--dedup", "--no-cache"],
    "audit --scheduler": ["audit", "--app", "motd", "--store-path", "{s}",
                          "--scheduler", "serial"],
    "serve-audit --cache-dir": ["serve-audit", "--tenant", "app=motd,store={s}",
                                "--state-dir", "{s}/state", "--once",
                                "--cache-dir", "{s}/cache"],
    "serve-audit --scheduler": ["serve-audit", "--tenant", "app=motd,store={s}",
                                "--state-dir", "{s}/state", "--once",
                                "--scheduler", "serial"],
    "cache stats": ["cache", "stats", "--cache-dir", "{s}/cache"],
}


class TestOneCacheTier:
    """The verdict cache lives in memory only, and ``--jobs`` alone picks
    the worker pool: no flag names a cache directory or a backend."""

    @pytest.mark.parametrize("case", sorted(CACHE_AND_SCHEDULER_ARGV))
    def test_cache_and_scheduler_flags_are_gone(self, served_store, capsys, case):
        store = str(served_store("motd", *SERVE))
        argv = [a.replace("{s}", store) for a in CACHE_AND_SCHEDULER_ARGV[case]]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err, err

    @pytest.mark.parametrize("command", ["audit", "serve-audit"])
    def test_help_names_no_cache_or_scheduler_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        out = capsys.readouterr().out
        for flag in ("--cache-dir", "--no-cache", "--scheduler"):
            assert flag not in out


class TestWorkerFlags:
    @pytest.fixture()
    def store(self, served_store):
        return str(served_store("motd", *SERVE))

    def _serve_audit(self, store, tmp_path, *extra):
        return main(["serve-audit", "--tenant", f"app=motd,store={store}",
                     "--state-dir", str(tmp_path / "state"), "--once", *extra])

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_audit_jobs_below_one_is_usage_error(self, store, capsys, jobs):
        assert _audit("motd", store, "--jobs", jobs) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_serve_audit_jobs_below_one_is_usage_error(self, store, tmp_path, jobs):
        assert self._serve_audit(store, tmp_path, "--jobs", jobs) == EXIT_USAGE

    def test_negative_torn_limit_is_usage_error(self, store, tmp_path, capsys):
        code = self._serve_audit(store, tmp_path, "--torn-limit", "-1")
        assert code == EXIT_USAGE
        assert "torn" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs,backend", [("1", "serial"), ("2", "process")])
    def test_serve_audit_jobs_picks_the_pool(
        self, store, tmp_path, monkeypatch, jobs, backend
    ):
        from repro.service import AuditService

        pools = []

        def run(service, once=False):
            pools.append(service.pool)
            return 0

        monkeypatch.setattr(AuditService, "run", run)
        assert self._serve_audit(store, tmp_path, "--jobs", jobs) == EXIT_OK
        (pool,) = pools
        assert (pool.name, pool.jobs) == (backend, int(jobs))
        assert pool.parallel is (jobs != "1")


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
