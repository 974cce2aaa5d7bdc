"""Differential equivalence and tamper localization for continuous audits.

The epoch-sealed streaming audit (repro.continuous) must be
observationally equivalent to the monolithic Auditor on honest runs --
every epoch accepted, summed deterministic work identical -- across apps
x isolation levels x epoch sizes (one request, small batches, the whole
trace), whether epochs are sealed online during serving or sliced
offline from a recorded trace.

On tampered runs the continuous audit must *localize*: writing D for the
set of epoch indices whose sliced trace/advice differ from the honest
slicing, no epoch before min(D) may reject (earlier epochs saw only
honest data), and for attacks whose lie survives slicing the rejection
must land exactly on min(D).  Two attacks are exempt from the exact
claim:

* ``merge-tags`` corrupts only grouping advice; slicing can separate the
  merged victims into different epochs, leaving every epoch's grouping
  consistent -- acceptance is then sound (OOOAudit accepts this tamper
  on the whole trace for the same reason).
* ``redirect-dictating-put`` can point a read at a put in an *earlier*
  epoch; slicing rewrites the cross-epoch precedence to the carry-in
  read, which the verified checkpoint satisfies with the same value --
  the lie is neutralized, not missed.

Checkpoint hand-off is attacked directly as well: forged stored
checkpoints (with and without recomputed digests) must refuse to resume.
"""

import json

import pytest

from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.attacks import ALL_ATTACKS
from repro.continuous import (
    AuditJournal,
    Checkpoint,
    CheckpointStore,
    ContinuousAuditor,
    EpochSealer,
    slice_epochs,
)
from repro.continuous.checkpoint import RT_CHECKPOINT, RT_DELTA
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import FileBackend
from repro.store import IsolationLevel, KVStore
from repro.verifier import audit
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

pytestmark = pytest.mark.tier1

N_REQUESTS = 14

# (id, app factory, workload factory, store factory)
RUNS = [
    ("motd", motd_app, lambda: motd_workload(N_REQUESTS, mix="mixed", seed=21), None),
    (
        "stacks-ser",
        stackdump_app,
        lambda: stacks_workload(N_REQUESTS, mix="mixed", seed=22),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    (
        "stacks-rc",
        stackdump_app,
        lambda: stacks_workload(N_REQUESTS, mix="read-heavy", seed=32),
        lambda: KVStore(IsolationLevel.READ_COMMITTED),
    ),
    (
        "wiki-ser",
        wiki_app,
        lambda: wiki_workload(N_REQUESTS, seed=23),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    (
        "wiki-snap",
        wiki_app,
        lambda: wiki_workload(N_REQUESTS, seed=33),
        lambda: KVStore(IsolationLevel.SNAPSHOT),
    ),
    (
        "feed-ser",
        feed_app,
        lambda: feed_workload(N_REQUESTS, mix="mixed", seed=24),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
]

# (seal_every, concurrency): one-request epochs need concurrency 1 --
# quiescent cut points only occur when the admission window drains.
SEALINGS = [(1, 1), (3, 4)]


def _serve(app_fn, workload_fn, store_fn, seal_every, concurrency):
    sealer = EpochSealer(seal_every)
    run = run_server(
        app_fn(),
        workload_fn(),
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(1),
        concurrency=concurrency,
        sealer=sealer,
    )
    return run, sealer.epochs


@pytest.fixture(
    scope="module",
    params=[(r, s) for r in RUNS for s in SEALINGS],
    ids=lambda p: f"{p[0][0]}-every{p[1][0]}c{p[1][1]}",
)
def served(request):
    (name, app_fn, workload_fn, store_fn), (seal_every, concurrency) = request.param
    run, epochs = _serve(app_fn, workload_fn, store_fn, seal_every, concurrency)
    return app_fn, run, epochs, seal_every


def _continuous(app_fn, epochs, **kw):
    auditor = ContinuousAuditor(app_fn(), **kw)
    verdicts = auditor.run(epochs)
    return auditor, verdicts


def _handlers(stats):
    return stats.get("handlers_executed", 0)


class TestHonestEquivalence:
    def test_online_epochs_match_monolithic(self, served):
        app_fn, run, epochs, seal_every = served
        mono = audit(app_fn(), run.trace, run.advice)
        assert mono.accepted, mono.reason
        auditor, verdicts = _continuous(app_fn, epochs)
        assert all(v.accepted for v in verdicts), [
            (v.epoch, v.result.reason) for v in verdicts
        ]
        assert auditor.accepted
        # Per-epoch work sums to exactly the monolithic audit's work.
        assert auditor.stats()["handlers_executed"] == _handlers(mono.stats)
        if seal_every == 1:
            # Concurrency 1: every request drains the window, so every
            # epoch holds exactly one request.
            assert len(epochs) == N_REQUESTS
            assert all(e.request_count == 1 for e in epochs)
        else:
            assert len(epochs) >= 2
        assert sum(e.request_count for e in epochs) == N_REQUESTS

    @pytest.mark.parametrize("size", [1, 4, 10_000], ids=["one", "small", "whole"])
    def test_offline_slicing_matches_monolithic(self, served, size):
        app_fn, run, _, _ = served
        mono = audit(app_fn(), run.trace, run.advice)
        epochs = slice_epochs(run.trace, run.advice, size)
        auditor, verdicts = _continuous(app_fn, epochs)
        assert all(v.accepted for v in verdicts), [
            (v.epoch, v.result.reason) for v in verdicts
        ]
        assert auditor.stats()["handlers_executed"] == _handlers(mono.stats)
        if size >= 10_000:
            assert len(epochs) == 1
        assert sum(e.request_count for e in epochs) == N_REQUESTS

    def test_checkpoint_digests_deterministic(self, served):
        """Two independent continuous audits of the same epochs must
        produce identical checkpoint chains (digests are canonical)."""
        app_fn, _, epochs, _ = served
        a1, v1 = _continuous(app_fn, epochs)
        a2, v2 = _continuous(app_fn, epochs)
        assert [v.checkpoint_digest for v in v1] == [
            v.checkpoint_digest for v in v2
        ]
        assert a1.checkpoints.latest().digest == a2.checkpoints.latest().digest


class TestStreamingSink:
    def test_sealer_feeds_auditor_during_serving(self):
        """Verification overlaps serving: the sealer's sink submits each
        epoch as it seals, and backpressure bounds the pending queue."""
        name, app_fn, workload_fn, store_fn = RUNS[3]  # wiki-ser
        auditor = ContinuousAuditor(app_fn(), max_pending=2)
        sealer = EpochSealer(2, sink=auditor.submit)
        run = run_server(
            app_fn(),
            workload_fn(),
            KarousosPolicy(),
            store=store_fn(),
            scheduler=RandomScheduler(1),
            concurrency=2,
            sealer=sealer,
        )
        verdicts = auditor.drain()
        assert len(verdicts) == len(sealer.epochs) >= 2
        assert all(v.accepted for v in verdicts)
        assert auditor.peak_pending <= 2
        mono = audit(app_fn(), run.trace, run.advice)
        assert auditor.stats()["handlers_executed"] == _handlers(mono.stats)


# Attacks whose lie does not survive slicing intact (see module
# docstring): only the weak claim -- no rejection before min(D) -- holds.
WEAK = {"merge-tags", "redirect-dictating-put"}

ATTACK_EPOCH_SIZE = 3


def _differing_epochs(honest, tampered):
    """Epoch indices whose sliced (trace, advice) differ from honest."""
    diff = set()
    for i in range(max(len(honest), len(tampered))):
        if i >= len(honest) or i >= len(tampered):
            diff.add(i)
        elif (
            honest[i].trace != tampered[i].trace
            or honest[i].advice != tampered[i].advice
        ):
            diff.add(i)
    return sorted(diff)


@pytest.mark.parametrize(
    "run_spec", [RUNS[0], RUNS[1], RUNS[3]], ids=lambda r: r[0]
)
@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_attack_rejected_in_the_epoch_containing_the_tamper(run_spec, attack):
    name, app_fn, workload_fn, store_fn = run_spec
    run, _ = _serve(app_fn, workload_fn, store_fn, ATTACK_EPOCH_SIZE, 4)
    try:
        trace, advice = attack.apply(run.trace, run.advice)
    except LookupError:
        pytest.skip("no target")
    honest = slice_epochs(run.trace, run.advice, ATTACK_EPOCH_SIZE)
    tampered = slice_epochs(trace, advice, ATTACK_EPOCH_SIZE)
    d = _differing_epochs(honest, tampered)
    auditor, verdicts = _continuous(app_fn, tampered)
    rejection = auditor.first_rejection
    if not d:
        # Slicing erased the lie entirely -- the epochs are bit-identical
        # to the honest ones, so acceptance is the only sound verdict.
        assert rejection is None, (rejection.epoch, rejection.result.reason)
        return
    # Soundness floor for every attack: epochs before the first tampered
    # one saw only honest data and must all accept.
    if rejection is not None:
        assert rejection.epoch >= min(d), (
            attack.name,
            rejection.epoch,
            d,
            rejection.result.reason,
        )
    for v in verdicts:
        if v.epoch < min(d):
            assert v.accepted, (attack.name, v.epoch, v.result.reason)
    # Localization: a guaranteed attack whose lie survives slicing is
    # caught in exactly the first epoch that contains it.
    if attack.guaranteed and attack.name not in WEAK:
        assert rejection is not None, (attack.name, d)
        assert rejection.epoch == min(d), (
            attack.name,
            rejection.epoch,
            d,
            rejection.result.reason,
        )


class TestCrashResume:
    def _epochs(self):
        name, app_fn, workload_fn, store_fn = RUNS[3]
        run, epochs = _serve(app_fn, workload_fn, store_fn, 3, 4)
        return app_fn, epochs

    @staticmethod
    def _auditor(app_fn, backend):
        return ContinuousAuditor(
            app_fn(),
            checkpoints=CheckpointStore(backend=backend),
            journal=AuditJournal(backend=backend),
        )

    def _crashed_store(self, tmp_path):
        """A store whose first run "crashed" after verifying two epochs."""
        app_fn, epochs = self._epochs()
        backend = FileBackend(str(tmp_path / "state"))
        a1 = self._auditor(app_fn, backend)
        for epoch in epochs[:2]:
            a1.submit(epoch)
        assert all(v.accepted for v in a1.drain())
        a1.checkpoints.close()
        a1.journal.close()
        return app_fn, epochs, backend

    @staticmethod
    def _rewrite(backend, name, edit):
        """Replace stream ``name`` with ``edit(rtype, payload)`` of each of
        its records -- what an attacker with write access to the auditor's
        state can do (every frame re-CRCed, so only content checks fire)."""
        with backend.reader(name) as reader:
            kind, records = reader.kind, list(reader)
        with backend.create(name, kind) as writer:
            for rtype, payload in records:
                writer.append(rtype, edit(rtype, payload))

    def test_resume_skips_verified_prefix(self, tmp_path):
        app_fn, epochs, backend = self._crashed_store(tmp_path)
        # A fresh auditor over the same store resumes after epoch 1.
        a2 = self._auditor(app_fn, backend)
        verdicts = a2.run(epochs)
        assert a2.skipped_resumed == 2
        assert sorted(a2.verdicts) == [e.index for e in epochs[2:]]
        assert all(v.accepted for v in verdicts)
        # The resumed chain equals a from-scratch audit's chain.
        scratch, _ = _continuous(app_fn, epochs)
        assert (
            a2.checkpoints.latest().digest == scratch.checkpoints.latest().digest
        )

    def _forge(self, cp: Checkpoint, recompute: bool) -> Checkpoint:
        vars, kv = dict(cp.vars), dict(cp.kv)
        target = vars if vars else kv
        key = sorted(target)[0]
        target[key] = ["forged-state"]
        if recompute:
            return Checkpoint.make(cp.epoch, cp.parent_digest, vars, kv)
        return Checkpoint(cp.epoch, cp.parent_digest, vars, kv, cp.digest)

    @pytest.mark.parametrize("recompute", [False, True], ids=["stale", "rehashed"])
    def test_forged_checkpoint_refuses_resume(self, tmp_path, recompute):
        """Tampering with a stored checkpoint -- whether or not the forger
        recomputes its digest, whether it is stored whole or as a delta
        -- must poison resumption: the journal anchors each verified
        epoch to the digest recorded at verification time."""
        for record in (RT_DELTA, RT_CHECKPOINT):
            app_fn, epochs, backend = self._crashed_store(tmp_path / str(record))
            honest = CheckpointStore(backend=backend)
            # Rewrite the stream the way the auditor writes it, every
            # frame re-CRCed: one writer session stores checkpoint 1 as a
            # delta against checkpoint 0, a session per checkpoint stores
            # both whole.
            with backend.create("checkpoints", "checkpoint"):
                pass
            forged = CheckpointStore(backend=backend)
            for cp in (honest.get(0), self._forge(honest.get(1), recompute)):
                forged.put(cp)
                if record == RT_CHECKPOINT:
                    forged.close()
            forged.close()
            with backend.reader("checkpoints") as reader:
                assert [rtype for rtype, _ in reader] == [RT_CHECKPOINT, record]
            a2 = self._auditor(app_fn, backend)
            verdicts = a2.run(epochs)
            assert not a2.accepted
            assert all(not v.accepted for v in verdicts)
            assert verdicts[0].result.reason == "checkpoint-chain-forged"

    def test_forged_journal_digest_refuses_resume(self, tmp_path):
        """Rewriting the journal's recorded digest cannot help a forger:
        it then disagrees with the (honest or forged) stored chain."""
        app_fn, epochs, backend = self._crashed_store(tmp_path)

        def forge(rtype, payload):
            entry = json.loads(payload)
            if entry["event"] == "verified" and entry["epoch"] == 1:
                entry["digest"] = "0" * 64
            return json.dumps(entry).encode()

        self._rewrite(backend, "journal", forge)
        a2 = self._auditor(app_fn, backend)
        verdicts = a2.run(epochs)
        assert not a2.accepted
        assert verdicts[0].result.reason == "checkpoint-chain-forged"

    def test_missing_parent_checkpoint_rejects(self):
        app_fn, epochs = self._epochs()
        auditor = ContinuousAuditor(app_fn())
        verdicts = auditor.run(epochs[1:])
        assert not verdicts[0].accepted
        assert verdicts[0].result.reason == "missing-checkpoint"
