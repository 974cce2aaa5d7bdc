"""Unit tests for grouped re-execution internals (Figures 18-19)."""

import copy

import pytest

from repro.apps import motd_app, stackdump_app
from repro.kem.scheduler import FifoScheduler, RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import Auditor, audit
from repro.verifier.reexec import materialize
from repro.core.multivalue import Multivalue
from repro.workload import motd_workload, stacks_workload


class TestMaterialize:
    RIDS = ("r1", "r2")

    def test_scalar_passthrough(self):
        assert materialize(7, "r1") == 7

    def test_multivalue_resolved(self):
        mv = Multivalue(self.RIDS, [1, 2])
        assert materialize(mv, "r2") == 2

    def test_nested_structures(self):
        mv = Multivalue(self.RIDS, ["a", "b"])
        payload = {"x": mv, "y": [mv, 3], "z": (mv,)}
        assert materialize(payload, "r1") == {"x": "a", "y": ["a", 3], "z": ("a",)}

    def test_dict_keys_untouched(self):
        assert materialize({"k": 1}, "r1") == {"k": 1}

    def test_plain_payload_returned_itself(self):
        payload = {"a": [1, ("x", None)], "b": {"c": 2.5}}
        assert materialize(payload, "r1") is payload

    def test_changed_payload_rebuilt_around_unchanged_parts(self):
        mv = Multivalue(self.RIDS, ["a", "b"])
        same = {"c": 1}
        payload = {"p": same, "q": [mv, (mv, [mv])], "r": [mv]}
        got = materialize(payload, "r2")
        assert got == {"p": {"c": 1}, "q": ["b", ("b", ["b"])], "r": ["b"]}
        assert got is not payload and got["p"] is same
        assert type(got["q"][1]) is tuple

    def test_subclass_becomes_base_type(self):
        class Tagged(list):
            pass

        got = materialize({"t": Tagged([1])}, "r1")
        assert type(got["t"]) is list and got == {"t": [1]}


class TestGroupChecks:
    def run_motd(self, n=10, seed=0):
        return run_server(
            motd_app(),
            motd_workload(n, mix="mixed", seed=seed),
            KarousosPolicy(),
            scheduler=RandomScheduler(seed),
            concurrency=4,
        )

    def test_group_stats_reported(self):
        run = self.run_motd()
        auditor = Auditor(motd_app(), run.trace, run.advice)
        result = auditor.run()
        assert result.accepted
        assert result.stats["groups"] >= 1
        assert result.stats["handlers_executed"] >= 10

    def test_mixed_route_group_rejected(self):
        run = self.run_motd(n=20, seed=1)
        advice = copy.deepcopy(run.advice)
        # Find a get and a set request and force them into one group.
        get_rid = next(r for r in advice.tags if run.trace.request(r).route == "get")
        set_rid = next(r for r in advice.tags if run.trace.request(r).route == "set")
        advice.tags[set_rid] = advice.tags[get_rid]
        result = audit(motd_app(), run.trace, advice)
        assert not result.accepted
        assert result.reason in ("group-mismatch", "divergence", "unreported-handler")

    def test_foreign_rid_tag_rejected(self):
        run = self.run_motd()
        advice = copy.deepcopy(run.advice)
        advice.tags["ghost"] = next(iter(advice.tags.values()))
        result = audit(motd_app(), run.trace, advice)
        assert not result.accepted
        assert result.reason == "unknown-request"

    def test_nondet_advice_missing_rejected(self):
        """An app that uses ctx.nondet cannot be replayed without the
        recorded values."""

        def handle(ctx, req):
            v = ctx.nondet(lambda: 42)
            ctx.respond({"v": v})

        def init(ic):
            ic.register_route("n", "handle")

        from repro.kem import AppSpec

        app = AppSpec("nondet", {"handle": handle}, init)
        run = run_server(app, [Request.make("r0", "n")], KarousosPolicy())
        assert run.trace.response("r0") == {"v": 42}
        assert run.advice.nondet, "value must be recorded"
        ok = audit(app, run.trace, run.advice)
        assert ok.accepted

        advice = copy.deepcopy(run.advice)
        advice.nondet.clear()
        result = audit(app, run.trace, advice)
        assert not result.accepted
        assert result.reason == "missing-nondet"

    def test_nondet_replay_feeds_recorded_value(self):
        calls = []

        def handle(ctx, req):
            v = ctx.nondet(lambda: calls.append(1) or "fresh")
            ctx.respond({"v": v})

        def init(ic):
            ic.register_route("n", "handle")

        from repro.kem import AppSpec

        app = AppSpec("nondet2", {"handle": handle}, init)
        run = run_server(app, [Request.make("r0", "n")], KarousosPolicy())
        advice = copy.deepcopy(run.advice)
        key = next(iter(advice.nondet))
        advice.nondet[key] = "recorded"
        # Replaying must use the recorded value, so outputs now mismatch.
        result = audit(app, run.trace, advice)
        assert not result.accepted
        assert result.reason == "output-mismatch"
        # And the verifier never ran the nondeterministic function itself.
        assert len(calls) == 1, "only the original server execution called it"


class TestStateOpChecks:
    def serve(self, n=15, seed=0):
        return run_server(
            stackdump_app(),
            stacks_workload(n, mix="mixed", seed=seed),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=FifoScheduler(),
            concurrency=3,
        )

    def test_get_key_mismatch_rejected(self):
        run = self.serve()
        advice = copy.deepcopy(run.advice)
        from repro.advice.records import TxLogEntry

        for key, log in advice.tx_logs.items():
            for i, e in enumerate(log):
                if e.optype == "GET":
                    log[i] = TxLogEntry(e.hid, e.opnum, e.optype, "dump:wrong", e.opcontents)
                    result = audit(stackdump_app(), run.trace, advice)
                    assert not result.accepted
                    assert result.reason == "state-op-mismatch"
                    return
        pytest.skip("no GET entries")

    def test_tx_entry_moved_between_logs_rejected(self):
        run = self.serve()
        advice = copy.deepcopy(run.advice)
        keys = sorted(advice.tx_logs, key=repr)
        if len(keys) < 2:
            pytest.skip("need two transactions")
        src, dst = keys[0], keys[1]
        advice.tx_logs[dst].append(advice.tx_logs[src].pop())
        result = audit(stackdump_app(), run.trace, advice)
        assert not result.accepted
