"""Power-loss fault injection for the durability protocol (DESIGN.md §8).

The storage layer's stated failure model is *a crash only ever tears the
tail*: what a barrier (:meth:`RecordWriter.sync` / ``seal``) covered
survives, everything appended since may be lost whole, kept in part, or
cut mid-record.  :class:`PowerLossBackend` wraps a ``FileBackend`` or
``MemoryBackend`` and remembers, per stream, the length its last barrier
covered; :meth:`Machine.crash` then cuts every stream at a seeded offset
at or past that length.  Creating and deleting a stream are taken as
durable at once (directory-entry durability is not modelled), so a
freshly created stream can be cut anywhere from byte 0 -- inside its
header included.

:func:`sweep` crashes a durable audit after the N-th append and
restarts it on what survived; :func:`check_solo` and
:func:`check_service` compare the per-epoch fingerprints each restarted
run ends with against the fault-free run.  ``python -m tests.powerloss`` runs the exhaustive
sweep (every append of every golden stream and of the two-tenant
service); tests/integration/test_power_loss.py runs a strided slice.
"""

import contextlib
import itertools
import os
import random
import tempfile

import repro.service.tenant as tenant_module
from repro.continuous import ContinuousAuditor
from repro.continuous.checkpoint import CheckpointStore
from repro.continuous.codec import write_epoch_stored
from repro.continuous.journal import AuditJournal
from repro.service import AuditService, TenantConfig
from repro.storage import MemoryBackend, backend_for
from repro.storage.backend import RecordWriter, StorageBackend
from repro.verifier.dag import NodeJournal
from tests import verdict_goldens as goldens


class PowerLoss(Exception):
    """The machine lost power right after an append reached the OS."""


class Machine:
    """The power supply the wrapped backends of one run share: counts
    appends across all of them, pulls the plug after ``crash_after``."""

    def __init__(self, seed=0, crash_after=None):
        self.rng = random.Random(seed)
        self.crash_after = crash_after
        self.appends = 0
        self.barriers = 0
        self.dead = False
        self.backends = []

    def wrap(self, inner):
        backend = PowerLossBackend(inner, self)
        self.backends.append(backend)
        return backend

    def appended(self):
        self.appends += 1
        if self.appends == self.crash_after:
            self.dead = True
            raise PowerLoss(f"power lost after append {self.appends}")

    def crash(self):
        """Cut every stream of every backend to what could have survived."""
        self.dead = True
        for backend in self.backends:
            backend.cut(self.rng)


class _Writer(RecordWriter):
    """Forwards to the real writer; once the machine is dead nothing
    reaches storage (the code still running is the test unwinding)."""

    def __init__(self, backend, name, inner):
        self._backend, self._name, self._inner = backend, name, inner
        self.kind = inner.kind

    def append(self, rtype, payload):
        if not self._backend.machine.dead:
            self._inner.append(rtype, payload)
            self._backend.machine.appended()

    def sync(self):
        if not self._backend.machine.dead:
            self._inner.sync()
            self._backend.covered(self._name)

    def close(self):
        self._inner.close()


class PowerLossBackend(StorageBackend):
    def __init__(self, inner, machine):
        self.inner, self.machine = inner, machine
        self.scheme, self.metrics = inner.scheme, inner.metrics
        self._durable = {}  # stream -> bytes its last barrier covered
        self._writers = []

    # -- sizes, on either wrapped backend ----------------------------------

    def _size(self, name):
        if hasattr(self.inner, "raw"):
            return len(self.inner.raw(name))
        return os.path.getsize(self.inner._path(name))

    def _truncate(self, name, length):
        if hasattr(self.inner, "raw"):
            del self.inner.raw(name)[length:]
        else:
            os.truncate(self.inner._path(name), length)

    def covered(self, name):
        self.machine.barriers += 1
        self._durable[name] = self._size(name)

    def cut(self, rng):
        for writer in self._writers:
            writer.close()
        for name in self.inner.list_streams():
            size = self._size(name)
            # A stream this life never opened survived an earlier one whole.
            floor = min(self._durable.get(name, size), size)
            keep = rng.choice((floor, size, rng.randint(floor, size)))
            self._truncate(name, keep)

    # -- StorageBackend ----------------------------------------------------

    def _wrap(self, name, inner):
        writer = _Writer(self, name, inner)
        self._writers.append(writer)
        return writer

    def create(self, name, kind):
        writer = self._wrap(name, self.inner.create(name, kind))
        self._durable[name] = 0
        return writer

    def append(self, name, kind):
        existed = self.inner.exists(name)
        writer = self._wrap(name, self.inner.append(name, kind))
        # What was on disk when this life opened the stream had survived;
        # torn-tail recovery may just have shortened it.
        size = self._size(name)
        self._durable[name] = (
            min(self._durable.get(name, size), size) if existed else 0
        )
        return writer

    def reader(self, name):
        return self.inner.reader(name)

    def exists(self, name):
        return self.inner.exists(name)

    def list_streams(self, prefix=""):
        return self.inner.list_streams(prefix)

    def delete(self, name):
        self.inner.delete(name)
        self._durable.pop(name, None)


# -- what a run ends with -------------------------------------------------------


def final_fingerprints(auditor, epochs):
    """``[epoch, accepted, reason, checkpoint_digest]`` for every sealed
    epoch: from this life's verdict, or -- for an epoch an earlier life
    verified -- from the journal and the checkpoint it names.  Fails if
    any epoch has neither (audited epochs == sealed epochs)."""
    recorded = auditor.journal.verified_digests()
    out = []
    for index in range(epochs):
        verdict = auditor.verdicts.get(index)
        if verdict is not None:
            out.append([index, verdict.accepted, verdict.result.reason,
                        verdict.checkpoint_digest])
            continue
        assert index < auditor._next_index, f"epoch {index} was never audited"
        assert auditor.checkpoints.get(index).digest == recorded[index]
        out.append([index, True, "accepted", recorded[index]])
    return out


# -- solo: durable ContinuousAuditor with a node journal -------------------------


def solo_life(app, epochs, state, nodes, machine):
    """One life of a durable auditor over ``epochs``; returns it (closed).
    Raises :class:`PowerLoss` when the machine's fuse blows."""
    audit, journal = machine.wrap(state), machine.wrap(nodes)
    auditor = ContinuousAuditor(
        app,
        checkpoints=CheckpointStore(backend=audit),
        journal=AuditJournal(backend=audit),
        node_journal=NodeJournal(journal),
    )
    try:
        auditor.run(epochs)
    finally:
        auditor.checkpoints.close()
        auditor.journal.close()
    return auditor


def sweep(life, places, stride=1, seed=0):
    """Crash after every ``stride``-th append, then restart on what
    survived.  ``life(place, machine)`` runs one life of an audit whose
    state lives at ``place`` (fresh from ``places()``) and returns what
    the caller fingerprints.  Yields ``(point, restarted life)``."""
    dry = Machine()
    life(places(), dry)
    for point in range(1 + seed % stride, dry.appends + 1, stride):
        place = places()
        machine = Machine(seed=seed * 100_003 + point, crash_after=point)
        try:
            life(place, machine)
        except PowerLoss:
            machine.crash()
        else:
            raise AssertionError(f"append {point} never happened")
        yield point, life(place, Machine())


def file_backends(root):
    """A ``places()`` for :func:`solo_life` on files: fresh
    ``(state, nodes)`` backends under ``root`` at every call."""
    fresh = (os.path.join(root, str(n)) for n in itertools.count())

    def places():
        place = next(fresh)
        return (backend_for("file", os.path.join(place, "audit")),
                backend_for("file", os.path.join(place, "nodejournal")))

    return places


# -- fleet: AuditService over per-tenant state directories -----------------------


@contextlib.contextmanager
def tenant_state_on(machine):
    """Every backend a ``TenantStream`` builds for its own state (audit
    journal, checkpoints, node journal) runs on ``machine``."""
    real = tenant_module.backend_for
    tenant_module.backend_for = lambda *a, **kw: machine.wrap(real(*a, **kw))
    try:
        yield
    finally:
        tenant_module.backend_for = real


def service_life(tenants, state_dir, machine):
    """One ``run(once=True)`` life of the fleet daemon; returns it."""
    with tenant_state_on(machine):
        # Batch mode sleeps one poll interval before it sees it is done.
        service = AuditService(tenants, state_dir=state_dir, poll_interval=0.001)
        service.run(once=True)
    return service


def service_fingerprints(service, epochs):
    out = {}
    for name, count in epochs.items():
        stream = service._by_name[name].stream
        assert stream.state_error == "", (name, stream.state_error)
        out[name] = final_fingerprints(stream, count)
    return out


# -- the golden cases, shared by the tier-1 slice and the exhaustive run ---------


def fault_free(app, which):
    """``(epochs, fingerprints)`` of a golden stream audited in memory."""
    epochs = goldens.streams(app)[which]
    auditor = ContinuousAuditor(goldens.APPS[app]())
    return epochs, goldens.stream_fingerprint(auditor.run(epochs))


def check_solo(app, which, places, stride=1, seed=0):
    """Sweep one golden stream through a durable ``ContinuousAuditor``
    with a node journal; ``places()`` returns fresh ``(state, nodes)``
    backends.  Returns the number of crash points."""
    epochs, want = fault_free(app, which)

    def life(place, machine):
        return solo_life(goldens.APPS[app](), epochs, *place, machine)

    points = 0
    for point, restarted in sweep(life, places, stride, seed):
        got = final_fingerprints(restarted, len(epochs))
        assert got == want, (app, which, point, got, want)
        points += 1
    return points


def check_service(root, stride=1, seed=0, apps=("wiki", "feed")):
    """Sweep a two-tenant ``AuditService.run(once=True)`` over the honest
    golden streams of ``apps``; epoch stores and state under ``root``."""
    tenants, counts, want = [], {}, {}
    for app in apps:
        epochs, want[app] = fault_free(app, "honest")
        store = os.path.join(root, f"epochs-{app}")
        backend = backend_for("file", store)
        for epoch in epochs:
            write_epoch_stored(backend, epoch)
        tenants.append(TenantConfig(app=app, store=store, quota=2))
        counts[app] = len(epochs)
    fresh = (os.path.join(root, f"state-{n}") for n in itertools.count())

    def life(state_dir, machine):
        return service_life(tenants, state_dir, machine)

    points = 0
    for point, restarted in sweep(life, lambda: next(fresh), stride, seed):
        got = service_fingerprints(restarted, counts)
        assert got == want, (point, got, want)
        points += 1
    return points


def memory_backends():
    return MemoryBackend(), MemoryBackend()


def main(seeds=(0, 1, 2)):
    """The exhaustive sweep: every append boundary, several cut seeds."""
    total = 0
    for seed in seeds:
        for app in goldens.APPS:
            for which in ("honest", "tampered"):
                total += check_solo(app, which, memory_backends, seed=seed)
        with tempfile.TemporaryDirectory() as root:
            total += check_solo(
                "wiki", "honest",
                file_backends(os.path.join(root, "solo")), seed=seed,
            )
            total += check_service(root, seed=seed)
    print(f"power-loss sweep: {total} crash points, every restart equals "
          "the fault-free run")


if __name__ == "__main__":
    main()
