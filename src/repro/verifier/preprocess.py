"""Audit preprocessing (paper Figures 14-16).

Builds the execution graph G's static part and the bookkeeping maps that
re-execution consumes:

* time-precedence edges from the trusted trace (response of r1 observed
  before arrival of r2 => r1's work precedes r2's);
* program edges (consecutive operations within a handler) and boundary
  edges (request arrival -> request handlers; response-emitting operation
  -> response delivery);
* handler-log edges (log order, plus activation edges from emits to the
  handlers they activate) and the ``activatedHandlers`` map;
* external-state bookkeeping: OpMap positions, read-from edges between
  PUTs and GETs, the Committed set, ReadMap, and lastModification.

Every REJECT in the figures maps to an :class:`AuditRejected` raise here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.verifier.carry import CarryIn

from repro.advice.records import (
    Advice,
    EMIT,
    REGISTER,
    TX_ABORT,
    TX_COMMIT,
    TX_GET,
    TX_PUT,
    TX_START,
    UNREGISTER,
)
from repro.core.graph import Digraph
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError, AuditRejected
from repro.kem.program import AppSpec, InitContext
from repro.trace.trace import REQ, RESP, Trace, TraceLike
from repro.verifier.nodes import node_end, node_op, node_req, node_resp

# OpMap values: ("handler_log", rid, index) or ("tx_log", rid, tid, index).
OpMapEntry = Tuple


@dataclass
class AuditState:
    """Everything Preprocess hands to ReExec and Postprocess."""

    app: AppSpec
    trace: Trace
    advice: Advice
    init_ctx: InitContext
    graph: Digraph = field(default_factory=Digraph)
    op_map: Dict[Tuple[str, HandlerId, int], OpMapEntry] = field(default_factory=dict)
    activated_handlers: Dict[Tuple[str, HandlerId, int], List[HandlerId]] = field(
        default_factory=dict
    )
    committed: Set[Tuple[str, TxId]] = field(default_factory=set)
    # Dictating PUT position -> GET positions that read from it.
    read_map: Dict[Tuple[str, TxId, int], List[Tuple[str, TxId, int]]] = field(
        default_factory=dict
    )
    # Reads of the initial (never-written) store state, per key.
    initial_readers: Dict[str, List[Tuple[str, TxId, int]]] = field(default_factory=dict)
    last_modification: Dict[Tuple[str, TxId, str], int] = field(default_factory=dict)
    trace_rids: Set[str] = field(default_factory=set)
    # Committed KV state carried in from the previous epoch's verified
    # checkpoint (continuous auditing); empty for a genesis audit, where a
    # GET of "initial state" means the never-written store.
    initial_kv: Dict[str, object] = field(default_factory=dict)


def preprocess(
    app: AppSpec,
    trace: "TraceLike",
    advice: Advice,
    carry: Optional["CarryIn"] = None,
) -> AuditState:
    if not isinstance(advice, Advice):
        raise AdviceFormatError("advice bundle has wrong type")
    # Accept a lazy event iterator (storage record stream) anywhere a
    # Trace is expected; drained once into a frozen snapshot.
    trace = Trace.from_events(trace)
    if not trace.is_balanced():
        site = None
        pending, seen_resp = set(), set()
        for e in trace.events:
            if e.kind == REQ:
                if e.rid in pending or e.rid in seen_resp:
                    site = {"rid": e.rid}
                    break
                pending.add(e.rid)
            elif e.kind == RESP:
                if e.rid not in pending or e.rid in seen_resp:
                    site = {"rid": e.rid}
                    break
                seen_resp.add(e.rid)
            else:
                break
        if site is None and pending - seen_resp:
            site = {"rid": sorted(pending - seen_resp)[0]}
        raise AuditRejected("unbalanced-trace", "trace is not balanced", site=site)
    state = AuditState(app, trace, advice, app.run_init())
    if carry is not None:
        # The previous epoch's verified end state replaces the genesis
        # values; only declared variables can be carried (a checkpoint
        # naming an unknown variable would be a forgery, but it is inert
        # here because re-execution only consults declared variables).
        for var_id, value in carry.vars.items():
            if var_id in state.init_ctx.initial_vars:
                state.init_ctx.initial_vars[var_id] = value
        state.initial_kv = dict(carry.kv)
    state.trace_rids = set(trace.request_ids())
    _check_advice_shape(state)
    _create_time_precedence_graph(state)
    _add_program_edges(state)
    _add_boundary_edges(state)
    _add_handler_related_edges(state)
    _add_external_state_edges(state)
    return state


def _check_advice_shape(state: AuditState) -> None:
    """Structural sanity of the untrusted advice (types and bounds)."""
    advice = state.advice
    for rid, tag in advice.tags.items():
        if rid not in state.trace_rids:
            raise AuditRejected(
                "unknown-request",
                f"tag for unknown request {rid}",
                site={"rid": rid},
            )
        if not isinstance(tag, str):
            raise AdviceFormatError(f"tag for {rid} is not a string")
    # Sorted so the rejection witness is deterministic across runs
    # (trace_rids is a set; its raw order varies with hash randomization).
    for rid in sorted(state.trace_rids):
        if rid not in advice.tags:
            raise AuditRejected(
                "missing-tag",
                f"request {rid} has no grouping tag",
                site={"rid": rid},
            )
    for key, count in advice.opcounts.items():
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], HandlerId)):
            raise AdviceFormatError(f"bad opcounts key {key!r}")
        if not isinstance(count, int) or count < 0:
            raise AdviceFormatError(f"bad opcount {count!r} for {key!r}")


# -- time precedence (Orochi's CreateTimePrecedenceGraph + SplitNodes) -----


def _create_time_precedence_graph(state: AuditState) -> None:
    """Encode the trusted external order: if r1's response was observed
    before r2's arrival, everything r1 did precedes r2's arrival.

    Implementation note: instead of the quadratic "edge from every earlier
    response to every later request", responses are chained (their trace
    order is ground truth) and each request links from the latest earlier
    response; reachability is identical.
    """
    g = state.graph
    last_resp: Optional[str] = None
    for event in state.trace:
        if event.kind == REQ:
            g.add_node(node_req(event.rid))
            g.add_node(node_resp(event.rid))
            if last_resp is not None:
                g.add_edge(node_resp(last_resp), node_req(event.rid))
        elif event.kind == RESP:
            if last_resp is not None:
                g.add_edge(node_resp(last_resp), node_resp(event.rid))
            last_resp = event.rid
    for rid in state.trace_rids:
        g.add_edge(node_req(rid), node_resp(rid))


# -- program edges (Figure 14, AddProgramEdges) ------------------------------


def _add_program_edges(state: AuditState) -> None:
    g = state.graph
    for (rid, hid), count in state.advice.opcounts.items():
        if rid not in state.trace_rids:
            raise AuditRejected(
                "unknown-request",
                f"opcounts mentions unknown request {rid}",
                site={"rid": rid, "handler": hid},
            )
        g.add_node(node_op(rid, hid, 0))
        g.add_node(node_end(rid, hid))
        for i in range(1, count + 1):
            g.add_edge(node_op(rid, hid, i - 1), node_op(rid, hid, i))
        g.add_edge(node_op(rid, hid, count), node_end(rid, hid))
    # Activation edges implied by structural handler ids: a non-request
    # handler (fid, parent, opnum) starts only after its parent's op number
    # ``opnum`` (the emit or the I/O request whose completion activated
    # it).  Emit activations also get this edge from the handler log
    # (Figure 16); store-callback activations have no log entry, so this
    # is where their A-order reaches the graph.
    for (rid, hid) in state.advice.opcounts:
        if hid.parent is None:
            continue
        parent_count = state.advice.opcounts.get((rid, hid.parent))
        if parent_count is None:
            raise AuditRejected(
                "unknown-handler",
                f"handler {(rid, hid)} has unreported parent {hid.parent!r}",
                site={"rid": rid, "handler": hid},
            )
        if not 1 <= hid.opnum <= parent_count:
            raise AuditRejected(
                "bad-opnum",
                f"handler {(rid, hid)} activated by out-of-range op {hid.opnum}",
                site={"rid": rid, "handler": hid, "opnum": hid.opnum,
                      "claimed": parent_count},
            )
        g.add_edge(node_op(rid, hid.parent, hid.opnum), node_op(rid, hid, 0))


# -- boundary edges (Figure 15) -------------------------------------------------


def _add_boundary_edges(state: AuditState) -> None:
    g = state.graph
    advice = state.advice
    for (rid, hid) in advice.opcounts:
        if hid.parent is None:
            g.add_edge(node_req(rid), node_op(rid, hid, 0))
    for rid in state.trace_rids:
        emitted = advice.response_emitted_by.get(rid)
        if (
            emitted is None
            or not isinstance(emitted, tuple)
            or len(emitted) != 2
            or not isinstance(emitted[0], HandlerId)
            or not isinstance(emitted[1], int)
        ):
            raise AuditRejected(
                "bad-response-emitter",
                f"responseEmittedBy invalid for {rid}",
                site={"rid": rid, "claimed": emitted},
            )
        hid_r, opnum_r = emitted
        if node_op(rid, hid_r, opnum_r) not in g:
            raise AuditRejected(
                "bad-response-emitter",
                f"response emitter op {(rid, hid_r, opnum_r)} not in graph",
                site={"rid": rid, "handler": hid_r, "opnum": opnum_r},
            )
        g.add_edge(node_op(rid, hid_r, opnum_r), node_resp(rid))
        if opnum_r == advice.opcounts[(rid, hid_r)]:
            g.add_edge(node_resp(rid), node_end(rid, hid_r))
        else:
            g.add_edge(node_resp(rid), node_op(rid, hid_r, opnum_r + 1))


# -- handler-log edges (Figure 16, AddHandlerRelatedEdges) -------------------------


def _check_op_is_valid(state: AuditState, rid: str, hid: HandlerId, opnum: int) -> None:
    """CheckOpIsValid (Figure 16 lines 58-61)."""
    count = state.advice.opcounts.get((rid, hid))
    if count is None:
        raise AuditRejected(
            "unknown-handler",
            f"log entry for handler {(rid, hid)} not in opcounts",
            site={"rid": rid, "handler": hid, "opnum": opnum},
        )
    if opnum < 1 or opnum > count:
        raise AuditRejected(
            "bad-opnum",
            f"log entry opnum {opnum} out of range for {(rid, hid)}",
            site={"rid": rid, "handler": hid, "opnum": opnum, "claimed": count},
        )
    if (rid, hid, opnum) in state.op_map:
        raise AuditRejected(
            "duplicate-op",
            f"operation {(rid, hid, opnum)} appears twice in logs",
            site={"rid": rid, "handler": hid, "opnum": opnum},
        )


def _add_handler_related_edges(state: AuditState) -> None:
    g = state.graph
    advice = state.advice
    global_handlers = list(state.init_ctx.global_handlers)
    for rid, log in advice.handler_logs.items():
        if rid not in state.trace_rids:
            raise AuditRejected(
                "unknown-request",
                f"handler log for unknown request {rid}",
                site={"rid": rid},
            )
        registered: List[Tuple[str, str]] = []
        prev_node = None
        for i, op in enumerate(log):
            _check_op_is_valid(state, rid, op.hid, op.opnum)
            state.op_map[(rid, op.hid, op.opnum)] = ("handler_log", rid, i)
            this_node = node_op(rid, op.hid, op.opnum)
            if prev_node is not None:
                g.add_edge(prev_node, this_node)
            prev_node = this_node
            if op.optype == REGISTER:
                if op.function_id not in state.app.functions:
                    raise AuditRejected(
                        "unknown-function",
                        f"register of unknown function {op.function_id!r}",
                        site={"rid": rid, "handler": op.hid, "opnum": op.opnum,
                              "claimed": op.function_id},
                    )
                if (op.event, op.function_id) in registered or (
                    op.event,
                    op.function_id,
                ) in global_handlers:
                    raise AuditRejected(
                        "double-register",
                        f"{op.function_id!r} registered twice for {op.event!r}",
                        site={"rid": rid, "handler": op.hid, "opnum": op.opnum},
                    )
                registered.append((op.event, op.function_id))
            elif op.optype == UNREGISTER:
                if (op.event, op.function_id) not in registered:
                    raise AuditRejected(
                        "invalid-unregister",
                        f"unregister without register: {op.function_id!r}/{op.event!r}",
                        site={"rid": rid, "handler": op.hid, "opnum": op.opnum},
                    )
                registered.remove((op.event, op.function_id))
            elif op.optype == EMIT:
                activated: List[HandlerId] = []
                for event, fid in global_handlers + registered:
                    if event != op.event:
                        continue
                    hid_child = HandlerId.intern(fid, op.hid, op.opnum)
                    if (rid, hid_child) not in advice.opcounts:
                        raise AuditRejected(
                            "unreported-handler",
                            f"emit activates {hid_child!r} absent from opcounts",
                            site={"rid": rid, "handler": hid_child},
                        )
                    activated.append(hid_child)
                    g.add_edge(this_node, node_op(rid, hid_child, 0))
                state.activated_handlers[(rid, op.hid, op.opnum)] = activated
            else:
                raise AdviceFormatError(f"unknown handler op type {op.optype!r}")


# -- external-state edges (Figure 16, AddExternalStateEdges) -----------------------


def _tx_entry(state: AuditState, rid: str, tid: TxId, index: int):
    log = state.advice.tx_logs.get((rid, tid))
    if log is None or not 0 <= index < len(log):
        raise AuditRejected(
            "bad-tx-reference",
            f"tx log position {(rid, tid, index)} does not exist",
            site={"rid": rid, "tx": (rid, tid, index)},
        )
    return log[index]


def _add_external_state_edges(state: AuditState) -> None:
    g = state.graph
    advice = state.advice
    for (rid, tid), log in advice.tx_logs.items():
        if rid not in state.trace_rids:
            raise AuditRejected(
                "unknown-request",
                f"tx log for unknown request {rid}",
                site={"rid": rid},
            )
        if not log:
            raise AdviceFormatError(f"empty transaction log for {(rid, tid)}")
        if log[-1].optype == TX_COMMIT:
            state.committed.add((rid, tid))
        my_writes: Dict[str, Tuple[str, TxId, int]] = {}
        for i, op in enumerate(log):
            _check_op_is_valid(state, rid, op.hid, op.opnum)
            state.op_map[(rid, op.hid, op.opnum)] = ("tx_log", rid, tid, i)
            if op.optype == TX_GET:
                if op.opcontents is None:
                    # Read of the initial store state.
                    if op.key in my_writes:
                        raise AuditRejected(
                            "own-write-skipped",
                            f"tx {(rid, tid)} read initial state after writing {op.key!r}",
                            site={"rid": rid, "handler": op.hid,
                                  "opnum": op.opnum, "tx": (rid, tid, i),
                                  "key": op.key},
                        )
                    state.initial_readers.setdefault(op.key, []).append((rid, tid, i))
                else:
                    if not (
                        isinstance(op.opcontents, tuple) and len(op.opcontents) == 3
                    ):
                        raise AdviceFormatError(
                            f"GET opcontents malformed at {(rid, tid, i)}"
                        )
                    rid_w, tid_w, i_w = op.opcontents
                    op_w = _tx_entry(state, rid_w, tid_w, i_w)
                    if op_w.optype != TX_PUT or op_w.key != op.key:
                        raise AuditRejected(
                            "bad-dictating-write",
                            f"GET at {(rid, tid, i)} reads from a non-PUT or "
                            f"different key",
                            site={"rid": rid, "handler": op.hid,
                                  "opnum": op.opnum, "tx": (rid, tid, i),
                                  "key": op.key, "prec": op.opcontents},
                        )
                    # Read-from edge: the PUT's op precedes the GET's op.
                    g.add_edge(
                        node_op(rid_w, op_w.hid, op_w.opnum),
                        node_op(rid, op.hid, op.opnum),
                    )
                    state.read_map.setdefault((rid_w, tid_w, i_w), []).append(
                        (rid, tid, i)
                    )
                    # Transactions must observe their own writes.
                    if op.key in my_writes and my_writes[op.key] != (rid_w, tid_w, i_w):
                        raise AuditRejected(
                            "own-write-skipped",
                            f"tx {(rid, tid)} did not read its own last write "
                            f"of {op.key!r}",
                            site={"rid": rid, "handler": op.hid,
                                  "opnum": op.opnum, "tx": (rid, tid, i),
                                  "key": op.key,
                                  "expected": my_writes[op.key],
                                  "claimed": (rid_w, tid_w, i_w)},
                        )
            elif op.optype == TX_PUT:
                my_writes[op.key] = (rid, tid, i)
                if (rid, tid) in state.committed:
                    state.last_modification[(rid, tid, op.key)] = i
            elif op.optype not in (TX_START, TX_COMMIT, TX_ABORT):
                raise AdviceFormatError(f"unknown tx op type {op.optype!r}")
