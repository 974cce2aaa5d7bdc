"""Property tests for the ready-queue loop (repro.verifier.dag.scheduler)
and the engine's crash/resume contract (DESIGN.md §5).

Two determinism properties license every scheduler:

* *schedule independence*: any ready-queue ordering (here: seeded random
  shuffles injected through ``order_key``) yields byte-identical
  verdicts, reasons, and deterministic statistics -- because completions
  are only absorbed by the scheduler and merged in canonical group order
  later;
* *crash independence*: killing the run at every journal-write boundary
  and resuming from the node journal yields the same bytes as an unkilled
  run, with only the frontier re-executed.
"""

import random

import pytest

from repro.apps import motd_app
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import MemoryBackend
from repro.verifier import Auditor
from repro.verifier.audit import SimulatedKill
from repro.verifier.dag import NodeJournal, Scheduler
from repro.verifier.oooaudit import ooo_audit
from repro.workload import motd_workload, wiki_workload
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


def _strip(stats):
    return {k: v for k, v in stats.items() if k != "elapsed_seconds"}


def _fingerprint(result):
    return (result.accepted, result.reason, result.detail, _strip(result.stats))


@pytest.fixture(scope="module")
def served():
    run = run_server(
        motd_app(),
        motd_workload(12, mix="mixed", seed=41),
        KarousosPolicy(),
        scheduler=RandomScheduler(2),
        concurrency=4,
    )
    return run


# -- the scheduler in isolation ------------------------------------------------


class _FakeNode:
    def __init__(self, node_id):
        self.node_id = node_id


def _in_worker(node_id):  # module-level: the pool pickles it by name
    return ("worker", node_id)


class _RecordingRunner:
    """Runs nothing; records the order the scheduler drains nodes in and
    which of them came back from a pool worker."""

    def __init__(self, pooled=()):
        self.pooled = set(pooled)
        self.order = []
        self.remote = set()

    def parallel_safe(self, node):
        return node.node_id in self.pooled

    def execute(self, node):
        return node.node_id

    def absorb(self, node, result):
        self.order.append(node.node_id)
        if result == ("worker", node.node_id):
            self.remote.add(node.node_id)

    def remote_spec(self, node):
        return _in_worker, (node.node_id,)

    def on_worker_failure(self, node):
        return node.node_id


def _diamond():
    nodes = [_FakeNode(n) for n in ("a", "b", "c", "d")]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return nodes, edges


class TestSchedulerKahn:
    def test_serial_drains_in_canonical_order(self):
        nodes, edges = _diamond()
        runner = _RecordingRunner()
        Scheduler("serial").execute(nodes, edges, runner)
        assert runner.order == ["a", "b", "c", "d"]

    def test_shuffled_order_still_topological(self):
        nodes, edges = _diamond()
        for seed in range(8):
            rng = random.Random(seed)
            perm = {}
            runner = _RecordingRunner()
            Scheduler(
                "serial",
                order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
            ).execute(nodes, edges, runner)
            pos = {nid: i for i, nid in enumerate(runner.order)}
            assert len(runner.order) == 4
            for src, dst in edges:
                assert pos[src] < pos[dst], (seed, runner.order)

    def test_process_pool_respects_edges(self):
        """The hand-off is generic: whatever ``(fn, args)`` the runner
        names runs in a worker and its return value is the outcome."""
        nodes, edges = _diamond()
        runner = _RecordingRunner(pooled={"b", "c"})
        Scheduler("process", jobs=2).execute(nodes, edges, runner)
        assert runner.remote == {"b", "c"}
        pos = {nid: i for i, nid in enumerate(runner.order)}
        for src, dst in edges:
            assert pos[src] < pos[dst], runner.order

    def test_unknown_backend_rejected(self):
        for name in ("thread", "quantum"):
            with pytest.raises(ValueError, match="scheduler"):
                Scheduler(name)

    def test_cycle_deadlocks_loudly(self):
        nodes = [_FakeNode("a"), _FakeNode("b")]
        edges = [("a", "b"), ("b", "a")]
        with pytest.raises(RuntimeError, match="deadlock"):
            Scheduler("serial").execute(nodes, edges, _RecordingRunner())

    def test_wide_plan_drains_in_canonical_order(self):
        """2 000 nodes ready at once (root -> 1 998 leaves -> sink): the
        ready heap hands them out in canonical index order."""
        names = ["root"] + [f"leaf{i:04d}" for i in range(1998)] + ["sink"]
        nodes = [_FakeNode(n) for n in names]
        edges = [("root", n) for n in names[1:-1]]
        edges += [(n, "sink") for n in names[1:-1]]
        runner = _RecordingRunner()
        Scheduler("serial").execute(nodes, edges, runner)
        assert runner.order == names
        # Reversed keys drain the leaves in reverse, edges still respected.
        rank = {n: -i for i, n in enumerate(names)}
        runner = _RecordingRunner()
        Scheduler(
            "serial", order_key=lambda n: rank[n.node_id]
        ).execute(nodes, edges, runner)
        assert runner.order == ["root"] + names[-2:0:-1] + ["sink"]

    def test_singleton_plan_over_600_requests_drains_in_plan_order(self):
        """One reexec node per request: the serial schedule is exactly
        the plan's canonical node order."""
        from repro.apps import wiki_app
        from repro.store import IsolationLevel, KVStore

        run = run_server(
            wiki_app(),
            wiki_workload(600, seed=5),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(5),
            concurrency=8,
        )
        drained = []
        auditor = Auditor(
            wiki_app(), run.trace, run.advice, singleton_groups=True,
            progress=lambda stage, seconds: drained.append(stage),
        )
        result = auditor.run()
        assert result.accepted, (result.reason, result.detail)
        assert result.stats["groups"] == 600
        assert [
            (e, stage, group) for e, stage, group, _ in auditor.node_seconds
        ] == [(n.epoch, n.stage, n.group) for n in auditor.plan.ordered_nodes()]
        assert drained == [n.stage for n in auditor.plan.ordered_nodes()]


# -- schedule independence -----------------------------------------------------


class TestConstruction:
    def test_unknown_mode_rejected(self, served):
        inputs = (motd_app(), served.trace, served.advice)
        for name in ("quantum", "thread"):
            with pytest.raises(ValueError, match="scheduler"):
                Auditor(*inputs, scheduler=name)

    def test_jobs_defaults_to_cpu_count_and_clamps(self, served):
        inputs = (motd_app(), served.trace, served.advice)
        assert Auditor(*inputs).parallelism == 1
        clamped = Auditor(*inputs, parallelism=0)
        assert clamped.parallelism == 1
        assert clamped.run().accepted and clamped.scheduler == "serial"


class TestScheduleIndependence:
    def test_shuffled_ready_queues_are_byte_identical(self):
        """52 shuffled ready-queue orders over two golden runs, singleton
        groups (the widest ready sets): every one reproduces the golden
        fingerprint."""
        for run_name in ("motd-s21", "wiki-ser"):
            for seed in range(26):
                rng = random.Random(seed)
                perm = {}
                got = vg.assert_golden(
                    run_name, "singleton",
                    order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
                )
                assert got["accepted"], (run_name, seed)

    def test_shuffled_rejecting_runs_are_byte_identical(self):
        for case in ("tamper-response", "forge-write-value", "drop-tag"):
            for seed in range(6):
                rng = random.Random(seed)
                perm = {}
                got = vg.assert_golden(
                    "motd-s21", "singleton", case,
                    order_key=lambda n: perm.setdefault(n.node_id, rng.random()),
                )
                assert not got["accepted"], (case, seed)

    def test_dag_matches_sequential_audit(self, served):
        """The engine equals the straight-line reference on everything
        but wall-clock, when both run singleton groups."""
        ref = ooo_audit(motd_app(), served.trace, served.advice)
        got = Auditor(
            motd_app(), served.trace, served.advice, singleton_groups=True
        ).run()
        assert _fingerprint(got) == _fingerprint(ref)


# -- crash independence (kill at every journal record) -------------------------


class TestCrashResume:
    def _run(self, served, journal, resume=False, kill_after=None):
        auditor = Auditor(
            motd_app(), served.trace, served.advice,
            node_journal=journal, resume=resume, kill_after=kill_after,
        )
        return auditor, auditor.run()

    def test_kill_at_every_record_then_resume_is_identical(self, served):
        backend = MemoryBackend()
        full, baseline_result = self._run(served, NodeJournal(backend))
        baseline = _fingerprint(baseline_result)
        total_writes = full._journal_writes
        assert total_writes > 2
        for kill_at in range(1, total_writes + 1):
            backend = MemoryBackend()
            with pytest.raises(SimulatedKill):
                self._run(
                    served, NodeJournal(backend), kill_after=kill_at
                )
            resumed, result = self._run(
                served, NodeJournal(backend), resume=True
            )
            assert _fingerprint(result) == baseline, kill_at
            # Only the frontier re-executes: every reexec completion that
            # made it into the journal replays instead.
            groups = len(served.advice.groups())
            assert resumed.resumed_nodes + resumed.executed_nodes <= groups
            if resumed.skipped_resumed:
                # The whole epoch verdict was journaled: nothing re-runs.
                assert resumed.executed_nodes == 0

    def test_resume_without_journal_is_refused(self, served):
        from repro.verifier.dag import NodeJournalError

        with pytest.raises(NodeJournalError, match="no node journal"):
            self._run(served, NodeJournal(MemoryBackend()), resume=True)

    def test_resume_against_different_inputs_is_refused(self, served):
        from repro.verifier.dag import NodeJournalError

        backend = MemoryBackend()
        self._run(served, NodeJournal(backend))
        other = run_server(
            motd_app(),
            motd_workload(8, mix="mixed", seed=99),
            KarousosPolicy(),
            scheduler=RandomScheduler(2),
            concurrency=4,
        )
        with pytest.raises(NodeJournalError, match="refusing to resume"):
            Auditor(
                motd_app(), other.trace, other.advice,
                node_journal=NodeJournal(backend), resume=True,
            ).run()

    def test_resumed_counters_surface_in_metrics(self, served):
        from repro.obs import MetricsRegistry

        backend = MemoryBackend()
        # Kill mid-reexec: after enough records to journal some deltas.
        with pytest.raises(SimulatedKill):
            self._run(served, NodeJournal(backend), kill_after=4)
        metrics = MetricsRegistry()
        auditor = Auditor(
            motd_app(), served.trace, served.advice,
            node_journal=NodeJournal(backend), resume=True, metrics=metrics,
        )
        result = auditor.run()
        assert result.accepted
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters.get("reexec.nodes_resumed", 0) == auditor.resumed_nodes
        assert counters.get("reexec.nodes_executed", 0) == auditor.executed_nodes
        assert auditor.resumed_nodes > 0


    def test_auto_dismisses_a_foreign_journal_from_its_header_alone(
        self, served, tmp_path
    ):
        """Every epoch after the first finds its predecessor's journal:
        one record read says so, and none of its chain is verified."""
        from repro.obs import MetricsRegistry
        from repro.storage import FileBackend

        other = run_server(
            motd_app(),
            motd_workload(8, mix="mixed", seed=99),
            KarousosPolicy(),
            scheduler=RandomScheduler(2),
            concurrency=4,
        )
        Auditor(
            motd_app(), other.trace, other.advice,
            node_journal=NodeJournal(FileBackend(str(tmp_path))),
        ).run()
        reads = MetricsRegistry()
        auditor, result = self._run(
            served, NodeJournal(FileBackend(str(tmp_path), metrics=reads)),
            resume="auto",
        )
        assert result.accepted and auditor.resumed_nodes == 0
        assert reads.snapshot()["counters"]["storage.file.records_read"] == 1

    def test_auto_on_the_same_plan_still_replays_every_journaled_delta(
        self, served, tmp_path
    ):
        from repro.obs import MetricsRegistry
        from repro.storage import FileBackend

        groups = len(served.advice.groups())
        # header + decode/preprocess/isolation + every reexec delta
        with pytest.raises(SimulatedKill):
            self._run(
                served, NodeJournal(FileBackend(str(tmp_path))),
                kill_after=3 + groups,
            )
        reads = MetricsRegistry()
        auditor, result = self._run(
            served, NodeJournal(FileBackend(str(tmp_path), metrics=reads)),
            resume="auto",
        )
        assert result.accepted
        assert (auditor.resumed_nodes, auditor.executed_nodes) == (groups, 0)
        # the header peek, then the whole chain: header + 3 + groups records
        assert reads.snapshot()["counters"]["storage.file.records_read"] == (
            1 + 1 + 3 + groups
        )

    def test_auto_discards_a_damaged_journal_of_the_same_plan(self, served):
        backend = MemoryBackend()
        with pytest.raises(SimulatedKill):
            self._run(served, NodeJournal(backend), kill_after=5)
        raw = backend.raw("nodes")
        # Corrupt a mid-stream record body, keep the header record whole.
        raw[len(raw) // 2] ^= 0xFF
        auditor, result = self._run(served, NodeJournal(backend), resume="auto")
        assert result.accepted and auditor.resumed_nodes == 0


class TestJournalPayloads:
    """Nothing is serialized for a journal that is not there."""

    @pytest.fixture
    def encodes(self, monkeypatch):
        import importlib

        from repro.continuous import checkpoint as checkpoint_mod

        audit_mod = importlib.import_module("repro.verifier.audit")
        calls = {"delta": 0, "checkpoint": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            audit_mod, "encode_delta",
            counting("delta", audit_mod.encode_delta),
        )
        monkeypatch.setattr(
            checkpoint_mod, "encode_checkpoint",
            counting("checkpoint", checkpoint_mod.encode_checkpoint),
        )
        return calls

    def test_no_journal_no_encoding(self, served, encodes):
        result = Auditor(
            motd_app(), served.trace, served.advice, checkpoint_index=0
        ).run()
        assert result.accepted
        assert encodes == {"delta": 0, "checkpoint": 0}

    def test_journal_records_every_delta_and_the_checkpoint(self, served, encodes):
        backend = MemoryBackend()
        auditor = Auditor(
            motd_app(), served.trace, served.advice, checkpoint_index=0,
            node_journal=NodeJournal(backend),
        )
        assert auditor.run().accepted
        groups = len(served.advice.groups())
        assert encodes == {"delta": groups, "checkpoint": 1}
        state = NodeJournal(backend).load()
        kinds = [kind for kind, _ in state.completed.values()]
        assert kinds.count("delta") == groups
        assert kinds.count("checkpoint") == 1
