"""The safety net under the two-barrier commit protocol (DESIGN.md §8):
a power loss after any append, a seeded cut of every stream at or past
its last barrier, a restart -- and the final per-epoch fingerprints
``(epoch, accepted, reason, checkpoint_digest)`` must equal the
fault-free run's.  No honest crash may read back as
``checkpoint-chain-forged``, ``input_corrupt`` or a ``NodeJournalError``,
every sealed epoch ends up audited, and a tampered stream still rejects
at the same epoch.

This is the tier-1 slice (a stride through the append boundaries);
``python -m tests.powerloss`` sweeps every boundary under several cut
seeds and runs in the CI ``fuzz`` job.  Not covered: ENOSPC, EIO, short
writes, a failing ``fsync``, and directory-entry durability (ROADMAP 5d).
"""

import pytest

from repro.storage import FileBackend, MemoryBackend
from tests import powerloss
from tests import verdict_goldens as goldens

pytestmark = pytest.mark.tier1


# -- the fault model itself ----------------------------------------------------


@pytest.mark.parametrize("make", [MemoryBackend, None], ids=["memory", "file"])
def test_crash_keeps_what_a_barrier_covered(tmp_path, make):
    for seed in range(12):
        inner = make() if make else FileBackend(str(tmp_path / str(seed)))
        machine = powerloss.Machine(seed=seed)
        backend = machine.wrap(inner)
        writer = backend.append("s", "kind")
        writer.append(1, b"covered")
        writer.sync()
        writer.append(2, b"exposed" * 9)
        fresh = backend.append("fresh", "kind")
        fresh.append(1, b"never barriered")
        machine.crash()
        records = inner.load_tolerant("s", "kind")
        assert records in ([(1, b"covered")],
                           [(1, b"covered"), (2, b"exposed" * 9)])
        assert inner.load_tolerant("fresh", "kind") in (
            [], [(1, b"never barriered")]
        )
        # Whatever survived reopens for append, torn header included.
        with inner.append("fresh", "kind") as again:
            again.append(3, b"next life")
        assert inner.load_tolerant("fresh", "kind")[-1] == (3, b"next life")


def test_fuse_blows_after_the_nth_append_and_silences_the_rest():
    machine = powerloss.Machine(crash_after=2)
    inner = MemoryBackend()
    writer = machine.wrap(inner).append("s", "kind")
    writer.append(1, b"a")
    with pytest.raises(powerloss.PowerLoss):
        writer.append(2, b"b")
    writer.append(3, b"c")  # the machine is off
    writer.seal()
    assert machine.barriers == 0
    assert inner.load_tolerant("s", "kind") == [(1, b"a"), (2, b"b")]


# -- the sweep, strided ---------------------------------------------------------


@pytest.mark.parametrize("which", ["honest", "tampered"])
@pytest.mark.parametrize("app", sorted(goldens.APPS))
def test_solo_restart_equals_fault_free(app, which):
    _, want = powerloss.fault_free(app, which)
    if which == "tampered":
        assert [row[1] for row in want[:2]] == [True, False]  # rejects at 1
    offset = sorted(goldens.APPS).index(app)
    assert powerloss.check_solo(
        app, which, powerloss.memory_backends, stride=5, seed=offset
    ) >= 4


def test_solo_restart_equals_fault_free_on_files(tmp_path):
    places = powerloss.file_backends(str(tmp_path))
    assert powerloss.check_solo("wiki", "honest", places, stride=8) >= 6


def test_two_tenant_service_restart_equals_fault_free(tmp_path):
    assert powerloss.check_service(str(tmp_path), stride=16) >= 6


# -- the net is not vacuous ------------------------------------------------------


def test_sweep_catches_a_verified_that_outlives_its_checkpoint(monkeypatch):
    """Take the checkpoint barrier away: some crash now keeps
    ``verified k`` and loses checkpoint k, and the restart reads it as a
    forged chain."""
    real_sync = powerloss._Writer.sync
    monkeypatch.setattr(
        powerloss._Writer, "sync",
        lambda self: None if self._name == "checkpoints" else real_sync(self),
    )
    with pytest.raises(AssertionError) as caught:
        for seed in range(8):
            powerloss.check_solo(
                "motd", "honest", powerloss.memory_backends, seed=seed
            )
    assert "checkpoint-chain-forged" in str(caught.value)
