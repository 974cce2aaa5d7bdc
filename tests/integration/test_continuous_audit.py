"""Differential equivalence and tamper localization for continuous audits.

The epoch-sealed streaming audit (repro.continuous) must be
observationally equivalent to the monolithic Auditor on honest runs --
every epoch accepted, summed deterministic work identical -- across apps
x isolation levels x epoch sizes (one request, small batches), with
epochs sealed online during serving: the sealer is the only producer of
epochs, and an audit takes each one exactly as it was sealed.

On tampered runs the continuous audit must *localize*.  Each attack is
applied to one sealed epoch that offers it a target (the first after
genesis, else epoch 0), as the verdict goldens forge their tampered
stream; writing k for that epoch, no epoch before k may reject (earlier
epochs saw only honest data), and a guaranteed attack must be rejected
exactly at k.

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
    Epoch,
    EpochSealer,
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


ATTACK_EPOCH_SIZE = 3


def _tampered_stream(epochs, attack):
    """The sealed stream with ``attack`` applied to one epoch, the way
    :func:`tests.verdict_goldens.streams` forges epoch 1: ``(that epoch's
    index, the stream)``, or None when no epoch offers a target.  The
    victim is the first epoch after genesis that offers one -- so the
    tampered epoch audits from an honest predecessor's checkpoint --
    and epoch 0 only when no later epoch does."""
    for victim in list(epochs[1:]) + list(epochs[:1]):
        try:
            trace, advice = attack.apply(victim.trace, victim.advice)
        except LookupError:
            continue
        forged = Epoch(victim.index, trace, advice, victim.binlog_range)
        stream = list(epochs)
        stream[victim.index] = forged
        return victim.index, stream
    return None


@pytest.mark.parametrize(
    "run_spec", [RUNS[0], RUNS[1], RUNS[3]], ids=lambda r: r[0]
)
@pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: a.name)
def test_attack_rejected_in_the_epoch_containing_the_tamper(run_spec, attack):
    name, app_fn, workload_fn, store_fn = run_spec
    _, epochs = _serve(app_fn, workload_fn, store_fn, ATTACK_EPOCH_SIZE, 4)
    assert len(epochs) >= 2
    tampered = _tampered_stream(epochs, attack)
    if tampered is None:
        pytest.skip("no target")
    k, stream = tampered
    auditor, verdicts = _continuous(app_fn, stream)
    rejection = auditor.first_rejection
    # Soundness floor for every attack: epochs before the tampered one
    # saw only honest data and must all accept.
    for v in verdicts:
        if v.epoch < k:
            assert v.accepted, (attack.name, v.epoch, k, v.result.reason)
    # Localization: a guaranteed attack is caught in exactly the epoch
    # that carries it.
    if attack.guaranteed:
        assert rejection is not None, (attack.name, k)
        assert rejection.epoch == k, (
            attack.name,
            rejection.epoch,
            k,
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
