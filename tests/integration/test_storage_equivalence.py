"""The storage layer is transparent to the audit (DESIGN.md §8).

An audit must be a pure function of the *logical* trace+advice pair:
writing it to a record store as an epoch stream and reading it back --
on any backend --
must never change the verdict, the rejection reason, the rejection site
or the deterministic statistics.  Proven here against the golden verdict
fingerprints (:mod:`tests.verdict_goldens`) on all four bundled apps,
honest and under every tamper in the attack library, plus the CLI
surface (``--store file|gzip``).
"""

import pytest

from repro.cli import EXIT_OK, EXIT_REJECTED, main
from repro.continuous import Epoch
from repro.continuous.codec import read_epoch_stream, write_epoch_stored
from repro.storage import MemoryBackend, backend_for
from repro.verifier import Auditor
from repro.verifier.dag.plan import epoch_digest
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

BACKENDS = ["memory", "file", "gzip"]

# The golden run each app's pairs come from.
RUN_OF = {
    "motd": "motd-s21",
    "stacks": "stacks-ser",
    "wiki": "wiki-ser",
    "feed": "feed-ser",
}


def _backend(scheme, tmp_path):
    if scheme == "memory":
        return MemoryBackend()
    return backend_for(scheme, str(tmp_path / scheme))


def _assert_stored_audit_is_golden(backend, app, case):
    """Write the case's pair as one epoch stream, read it back, audit the
    copy: the golden fingerprint of the pair that never touched storage
    must come out."""
    run_name = RUN_OF[app]
    trace, advice = vg.cases(run_name)[case]
    name = write_epoch_stored(backend, Epoch(0, trace, advice))
    with backend.reader(name) as reader:
        stored = read_epoch_stream(reader, name)
    got = vg.fingerprint(
        Auditor(vg.app_of(run_name)(), stored.trace, stored.advice).run()
    )
    assert got == vg.expected(run_name, "grouped", case), (app, case)
    return got


@pytest.mark.parametrize("scheme", BACKENDS)
@pytest.mark.parametrize("app", list(RUN_OF))
def test_honest_verdicts_identical(app, scheme, tmp_path):
    got = _assert_stored_audit_is_golden(_backend(scheme, tmp_path), app, "honest")
    assert got["accepted"], got["reason"]  # the honest run must accept


@pytest.mark.parametrize(
    "app,case",
    [
        pytest.param(app, case, id=f"{app}-{case}")
        for app, run_name in RUN_OF.items()
        for case in vg.cases(run_name)
        if case != "honest"
    ],
)
def test_tampered_verdicts_identical(app, case):
    """Every tamper that finds a target in the app's golden run.  One
    backend (memory) keeps the apps x attacks sweep fast; byte-identical
    framing across backends is covered by the honest sweep and the unit
    suite."""
    _assert_stored_audit_is_golden(MemoryBackend(), app, case)


@pytest.mark.parametrize("scheme", BACKENDS)
def test_epoch_digest_survives_storage(scheme, tmp_path):
    """The plan's epoch digest is over the frames at rest, so a sealed
    epoch digests the same before it is written and after it is read."""
    backend = _backend(scheme, tmp_path)
    for epoch in vg.streams("wiki")["honest"]:
        before = epoch_digest(epoch.trace, epoch.advice)
        with backend.reader(write_epoch_stored(backend, epoch)) as reader:
            stored = read_epoch_stream(reader)
        assert epoch_digest(stored.trace, stored.advice) == before


# -- the CLI surface -----------------------------------------------------------


APPS = ["motd", "stacks", "wiki", "feed"]


SERVE = ("--requests", "12", "--seed", "7", "--concurrency", "3")


@pytest.mark.parametrize("app", APPS)
def test_cli_file_store_roundtrip(app, served_store):
    out = served_store(app, *SERVE)
    assert main(["audit", "--app", app, "--store", "file",
                 "--store-path", str(out)]) == EXIT_OK


@pytest.mark.parametrize("app", APPS)
def test_cli_gzip_epoch_store_resumes(app, served_store):
    out = served_store(app, *SERVE, "--seal-every", "4", "--store", "gzip")
    argv = ["audit", "--app", app, "--store", "gzip", "--store-path", str(out)]
    assert main(argv) == EXIT_OK
    # Checkpoints + journal persisted into the same store: re-running
    # resumes (all epochs already verified) instead of re-auditing.
    assert main(argv) == EXIT_OK
    from repro.continuous import AuditJournal

    journal = AuditJournal(backend=backend_for("gzip", str(out)))
    assert journal.last_verified() >= 0


def test_cli_corrupt_store_rejected(served_store):
    out = served_store("wiki", *SERVE)
    blob = (out / "epoch-0.rec").read_bytes()
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0xFF
    (out / "epoch-0.rec").write_bytes(bytes(flipped))
    assert main(["audit", "--app", "wiki", "--store", "file",
                 "--store-path", str(out)]) == EXIT_REJECTED
