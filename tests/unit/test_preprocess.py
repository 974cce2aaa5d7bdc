"""Unit tests for audit preprocessing (Figures 14-16)."""

import copy
from types import SimpleNamespace

import pytest

from repro.advice.records import HandlerOpEntry, TxLogEntry
from repro.apps import motd_app, stackdump_app
from repro.core.ids import HandlerId
from repro.errors import AuditRejected
from repro.kem.scheduler import FifoScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request, Trace, TraceEvent, REQ, RESP
from repro.verifier.execgraph import ExecutionGraph
from repro.verifier.nodes import node_end, node_op, node_req, node_resp
from repro.verifier.preprocess import _create_time_precedence_graph, preprocess
from repro.workload import stacks_workload


@pytest.fixture(scope="module")
def motd_run():
    return run_server(
        motd_app(),
        [Request.make(f"r{i}", "get", day="mon") for i in range(3)],
        KarousosPolicy(),
        scheduler=FifoScheduler(),
        concurrency=1,
    )


@pytest.fixture(scope="module")
def stacks_run():
    return run_server(
        stackdump_app(),
        stacks_workload(15, mix="mixed", seed=9),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=FifoScheduler(),
        concurrency=4,
    )


class TestGraphConstruction:
    def test_nodes_for_every_request_and_handler(self, motd_run):
        state = preprocess(motd_app(), motd_run.trace, motd_run.advice)
        g = state.graph
        hid = HandlerId("handle_get", None, 0)
        for rid in ("r0", "r1", "r2"):
            assert node_req(rid) in g
            assert node_resp(rid) in g
            assert node_op(rid, hid, 0) in g
            assert node_end(rid, hid) in g

    def test_sequential_trace_chains_requests(self, motd_run):
        state = preprocess(motd_app(), motd_run.trace, motd_run.advice)
        # c=1 FIFO: r0's response precedes r1's arrival.
        assert node_req("r1") in state.graph.reachable_from(node_resp("r0"))

    def test_program_edges_are_a_chain(self, motd_run):
        state = preprocess(motd_app(), motd_run.trace, motd_run.advice)
        hid = HandlerId("handle_get", None, 0)
        count = motd_run.advice.opcounts[("r0", hid)]
        reach = state.graph.reachable_from(node_op("r0", hid, 0))
        assert node_end("r0", hid) in reach
        assert all(node_op("r0", hid, i) in reach for i in range(1, count + 1))

    def test_activation_edges_for_io_children(self, stacks_run):
        state = preprocess(stackdump_app(), stacks_run.trace, stacks_run.advice)
        child = next(
            hid for (_rid, hid) in stacks_run.advice.opcounts if hid.parent is not None
        )
        rid = next(
            rid for (rid, hid) in stacks_run.advice.opcounts if hid == child
        )
        parent_node = node_op(rid, child.parent, child.opnum)
        assert state.graph.has_edge(parent_node, node_op(rid, child, 0))

    def test_response_boundary_edges(self, motd_run):
        state = preprocess(motd_app(), motd_run.trace, motd_run.advice)
        hid, opnum = motd_run.advice.response_emitted_by["r0"]
        assert state.graph.has_edge(node_op("r0", hid, opnum), node_resp("r0"))


class TestRejections:
    def test_unbalanced_trace(self, motd_run):
        trace = Trace()
        trace.append(TraceEvent(REQ, "r0", motd_run.trace.request("r0")))
        with pytest.raises(AuditRejected) as exc:
            preprocess(motd_app(), trace, motd_run.advice)
        assert exc.value.reason == "unbalanced-trace"

    @pytest.mark.parametrize(
        "kinds", [(RESP, REQ), (REQ, REQ)], ids=["response-first", "repeated-request"]
    )
    def test_graph_rejects_an_unordered_trace(self, motd_run, kinds):
        """G's own guard, behind the balance check: a response must follow
        its request, and a request arrives once."""
        data = {REQ: motd_run.trace.request("r0"), RESP: motd_run.trace.response("r0")}
        trace = Trace()
        for kind in kinds:
            trace.append(TraceEvent(kind, "r0", data[kind]))
        state = SimpleNamespace(trace=trace, graph=ExecutionGraph())
        with pytest.raises(AuditRejected) as exc:
            _create_time_precedence_graph(state)
        assert exc.value.reason == "unbalanced-trace"
        assert exc.value.site == {"rid": "r0"}

    def test_opcounts_for_unknown_request(self, motd_run):
        advice = copy.deepcopy(motd_run.advice)
        hid = HandlerId("handle_get", None, 0)
        advice.opcounts[("ghost", hid)] = 3
        with pytest.raises(AuditRejected) as exc:
            preprocess(motd_app(), motd_run.trace, advice)
        assert exc.value.reason == "unknown-request"

    def test_negative_opcount_is_malformed(self, motd_run):
        advice = copy.deepcopy(motd_run.advice)
        key = next(iter(advice.opcounts))
        advice.opcounts[key] = -1
        with pytest.raises(AuditRejected):
            preprocess(motd_app(), motd_run.trace, advice)

    def test_missing_response_emitter(self, motd_run):
        advice = copy.deepcopy(motd_run.advice)
        del advice.response_emitted_by["r1"]
        with pytest.raises(AuditRejected) as exc:
            preprocess(motd_app(), motd_run.trace, advice)
        assert exc.value.reason == "bad-response-emitter"

    def test_out_of_range_tx_log_opnum(self, stacks_run):
        advice = copy.deepcopy(stacks_run.advice)
        key = next(iter(advice.tx_logs))
        entry = advice.tx_logs[key][0]
        advice.tx_logs[key][0] = TxLogEntry(
            entry.hid, 99_999, entry.optype, entry.key, entry.opcontents
        )
        with pytest.raises(AuditRejected) as exc:
            preprocess(stackdump_app(), stacks_run.trace, advice)
        assert exc.value.reason == "bad-opnum"

    def test_duplicate_log_position(self, stacks_run):
        advice = copy.deepcopy(stacks_run.advice)
        key = next(iter(advice.tx_logs))
        advice.tx_logs[key].append(advice.tx_logs[key][0])
        with pytest.raises(AuditRejected) as exc:
            preprocess(stackdump_app(), stacks_run.trace, advice)
        assert exc.value.reason == "duplicate-op"

    def test_get_referencing_nonexistent_put(self, stacks_run):
        advice = copy.deepcopy(stacks_run.advice)
        for key, log in advice.tx_logs.items():
            for i, entry in enumerate(log):
                if entry.optype == "GET" and entry.opcontents is not None:
                    log[i] = TxLogEntry(
                        entry.hid, entry.opnum, entry.optype, entry.key,
                        (key[0], key[1], 10_000),
                    )
                    with pytest.raises(AuditRejected) as exc:
                        preprocess(stackdump_app(), stacks_run.trace, advice)
                    assert exc.value.reason == "bad-tx-reference"
                    return
        pytest.skip("no GET with a dictating write in this run")

    def test_register_of_unknown_function(self, stacks_run):
        advice = copy.deepcopy(stacks_run.advice)
        rid = next(r for r, log in advice.handler_logs.items() if log)
        entry = advice.handler_logs[rid][0]
        assert entry.optype == "register"
        advice.handler_logs[rid][0] = HandlerOpEntry(
            entry.hid, entry.opnum, entry.optype, entry.event, "no_such_fn"
        )
        with pytest.raises(AuditRejected) as exc:
            preprocess(stackdump_app(), stacks_run.trace, advice)
        assert exc.value.reason == "unknown-function"

    def test_wrong_advice_type_is_malformed(self, motd_run):
        with pytest.raises(AuditRejected):
            preprocess(motd_app(), motd_run.trace, {"not": "advice"})
