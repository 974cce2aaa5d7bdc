"""CLI round-trips: serve -> files -> audit for every app, honest and
tampered, in both monolithic and continuous (epoch) modes."""

import pytest

from repro.advice.codec import decode_advice, encode_advice
from repro.attacks import ALL_ATTACKS
from repro.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from repro.trace.codec import decode_trace

pytestmark = pytest.mark.tier1

APPS = ["motd", "stacks", "wiki"]


@pytest.fixture(params=APPS)
def served_app(request, tmp_path):
    app = request.param
    trace = tmp_path / "trace.json"
    advice = tmp_path / "advice.json"
    code = main(
        [
            "serve", "--app", app, "--requests", "10", "--seed", "6",
            "--concurrency", "2",
            "--out-trace", str(trace), "--out-advice", str(advice),
        ]
    )
    assert code == EXIT_OK
    return app, trace, advice


def _tamper(trace_path, advice_path):
    """Apply the first applicable guaranteed attack to the on-disk pair."""
    trace = decode_trace(trace_path.read_text())
    advice = decode_advice(advice_path.read_text())
    for attack in ALL_ATTACKS:
        if not attack.guaranteed:
            continue
        try:
            t2, tampered = attack.apply(trace, advice)
        except LookupError:
            continue
        if t2 == trace and tampered != advice:
            advice_path.write_text(encode_advice(tampered))
            return attack.name
    raise AssertionError("no applicable advice tamper")


class TestMonolithicRoundtrip:
    def test_honest_accepts(self, served_app):
        app, trace, advice = served_app
        code = main(["audit", "--app", app, "--trace", str(trace),
                     "--advice", str(advice)])
        assert code == EXIT_OK

    def test_tampered_rejects(self, served_app):
        app, trace, advice = served_app
        _tamper(trace, advice)
        code = main(["audit", "--app", app, "--trace", str(trace),
                     "--advice", str(advice)])
        assert code == EXIT_REJECTED


class TestContinuousRoundtrip:
    @pytest.fixture()
    def sealed(self, tmp_path, request):
        app = getattr(request, "param", "wiki")
        epochs = tmp_path / "epochs"
        trace = tmp_path / "trace.json"
        advice = tmp_path / "advice.json"
        code = main(
            [
                "serve", "--app", app, "--requests", "10", "--seed", "6",
                "--concurrency", "2", "--seal-every", "2",
                "--out-epochs", str(epochs),
                "--out-trace", str(trace), "--out-advice", str(advice),
            ]
        )
        assert code == EXIT_OK
        return app, epochs, trace, advice

    def test_epochs_dir_honest_accepts(self, sealed, tmp_path, capsys):
        app, epochs, _, _ = sealed
        code = main(["audit", "--app", app, "--epochs-dir", str(epochs),
                     "--checkpoint-dir", str(tmp_path / "cps"),
                     "--journal", str(tmp_path / "j.jsonl")])
        assert code == EXIT_OK
        assert "ACCEPT" in capsys.readouterr().out

    def test_epochs_dir_resumes(self, sealed, tmp_path, capsys):
        app, epochs, _, _ = sealed
        args = ["audit", "--app", app, "--epochs-dir", str(epochs),
                "--checkpoint-dir", str(tmp_path / "cps"),
                "--journal", str(tmp_path / "j.jsonl")]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert "resumed" in capsys.readouterr().out

    def test_offline_epochs_honest_accepts(self, sealed):
        app, _, trace, advice = sealed
        code = main(["audit", "--app", app, "--trace", str(trace),
                     "--advice", str(advice), "--epochs", "2"])
        assert code == EXIT_OK

    def test_offline_epochs_tampered_rejects(self, sealed, capsys):
        app, _, trace, advice = sealed
        _tamper(trace, advice)
        code = main(["audit", "--app", app, "--trace", str(trace),
                     "--advice", str(advice), "--epochs", "2"])
        assert code == EXIT_REJECTED
        assert "REJECT" in capsys.readouterr().out


class TestContinuousUsageErrors:
    def test_seal_every_rejected_with_threads(self):
        code = main(["serve", "--app", "motd", "--requests", "4",
                     "--threads", "2", "--seal-every", "2"])
        assert code == EXIT_USAGE

    def test_out_epochs_requires_seal_every(self, tmp_path):
        code = main(["serve", "--app", "motd", "--requests", "4",
                     "--out-epochs", str(tmp_path / "eps")])
        assert code == EXIT_USAGE

    def test_epochs_and_epochs_dir_exclusive(self, tmp_path):
        code = main(["audit", "--app", "motd", "--epochs", "2",
                     "--epochs-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_trace_required_without_epochs_dir(self):
        code = main(["audit", "--app", "motd"])
        assert code == EXIT_USAGE

    def test_empty_epochs_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["audit", "--app", "motd", "--epochs-dir", str(empty)])
        assert code == EXIT_USAGE


class TestEngineFlags:
    def test_resume_requires_node_journal(self, tmp_path):
        code = main(["audit", "--app", "motd", "--trace", str(tmp_path / "t"),
                     "--advice", str(tmp_path / "a"), "--resume"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags", [["--parallel-mode", "thread"], ["--scheduler", "pipeline"]]
    )
    def test_engine_selecting_flags_are_gone(self, tmp_path, flags):
        """There is one audit engine; nothing selects another."""
        with pytest.raises(SystemExit) as exit_info:
            main(["audit", "--app", "motd", "--trace", str(tmp_path / "t"),
                  "--advice", str(tmp_path / "a"), *flags])
        assert exit_info.value.code == EXIT_USAGE
