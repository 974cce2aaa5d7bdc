"""Grouped re-execution with SIMD-on-demand (paper Figures 18-19).

Requests with equal tags re-execute together: each handler function runs
*once per group*, with request inputs lifted into
:class:`~repro.core.multivalue.Multivalue` slots.  Per-operation checks
run per request (this matches the paper: e.g. MOTD's hashmap accesses are
not deduplicated, section 6.2), but dispatch, bookkeeping, and collapsed
computation are shared across the group -- the source of the verifier's
speedup.

Checks implemented (Figure 18-19 REJECTs, plus the log-consumption
accounting described in DESIGN.md):

* grouped requests must have identical request-handler sets and must not
  diverge in control flow;
* every handler operation and state operation must match the advice entry
  at its exact position (CheckHandlerOp / CheckStateOp);
* emits must activate identical handler sets across the group;
* every handler must issue exactly the advertised number of operations;
* responses must be emitted where responseEmittedBy claims, and re-executed
  outputs must equal the trace's responses;
* every handler in opcounts must be re-executed, and every variable-log
  entry must be produced by some re-executed operation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.advice.records import (
    EMIT,
    REGISTER,
    TX_ABORT,
    TX_COMMIT,
    TX_GET,
    TX_PUT,
    TX_START,
    UNREGISTER,
)
from repro.core.ids import HandlerId, TxId
from repro.core.multivalue import (
    DivergenceError,
    Multivalue,
    mv_apply,
    require_scalar,
)
from repro.errors import AuditRejected
from repro.kem.program import request_event
from repro.verifier.preprocess import AuditState
from repro.verifier.state import PlainVarState, VarState


def materialize(obj: object, rid: str) -> object:
    """Resolve all multivalues in a payload to their per-request value."""
    if isinstance(obj, Multivalue):
        return materialize(obj.get(rid), rid)
    if isinstance(obj, dict):
        return {k: materialize(v, rid) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(materialize(v, rid) for v in obj)
    if isinstance(obj, list):
        return [materialize(v, rid) for v in obj]
    return obj


class ReExecutor:
    """Re-executes every group in the advice against the trace.

    ``singleton_groups`` ignores the advice's tags and re-executes each
    request alone (the OOOAudit of Figure 22, modulo schedule choice --
    Lemma 1 makes all well-formed schedules equivalent).
    ``reverse_groups`` processes groups in the opposite order, exercising
    the schedule-independence the lemma claims.
    """

    def __init__(
        self,
        state: AuditState,
        singleton_groups: bool = False,
        reverse_groups: bool = False,
        journal: Optional[List[Tuple]] = None,
    ):
        self.state = state
        self.advice = state.advice
        self._singleton_groups = singleton_groups
        self._reverse_groups = reverse_groups
        self.journal = journal
        self.vars: Dict[str, object] = {}
        for var_id, initial in state.init_ctx.initial_vars.items():
            log = state.advice.variable_logs.get(var_id, {})
            if state.init_ctx.loggable.get(var_id, True):
                self.vars[var_id] = VarState(var_id, initial, log)
            else:
                if log:
                    raise AuditRejected(
                        "variable-log-invalid",
                        f"log supplied for non-loggable variable {var_id!r}",
                    )
                self.vars[var_id] = PlainVarState(var_id, initial)
        unknown = set(state.advice.variable_logs) - set(self.vars)
        if unknown:
            raise AuditRejected(
                "variable-log-invalid", f"logs for unknown variables {sorted(unknown)}"
            )
        if journal is not None:
            for var in self.vars.values():
                if isinstance(var, VarState):
                    var.journal = journal
        self.executed: Set[Tuple[str, HandlerId]] = set()
        self.outputs: Dict[str, object] = {}
        self.txnums: Dict[Tuple[str, TxId], int] = {}
        self.groups_executed = 0
        self.handlers_executed = 0

    # -- top level -----------------------------------------------------------

    def run(self) -> None:
        if self._singleton_groups:
            groups = {rid: [rid] for rid in self.advice.tags}
        else:
            groups = self.advice.groups()
        order = sorted(groups, reverse=self._reverse_groups)
        for tag in order:
            self._run_group(groups[tag])
        self._final_checks()

    def execute_group(self, rids: List[str]) -> None:
        """Re-execute a single group: the parallel pipeline's unit of work.

        Group re-execution is *value-isolated*: unlogged variable reads
        resolve within the same request's handler tree (or the init
        write), logged reads take their value from the advice, and store
        GETs resolve their dictating PUT from the transaction logs -- so a
        group computes the same values no matter which other groups ran
        before it (Lemma 1's observable content).  The only cross-group
        state is write-history bookkeeping, exposed via ``journal``.
        """
        self._run_group(rids)

    def _final_checks(self) -> None:
        for (rid, hid) in self.advice.opcounts:
            if (rid, hid) not in self.executed:
                raise AuditRejected(
                    "unexecuted-handler",
                    f"advice claims handler {(rid, hid)} but re-execution "
                    "never ran it",
                    site={"rid": rid, "handler": hid},
                )
        # Sorted: trace_rids is a set, and the first mismatching rid is
        # the rejection witness -- keep it deterministic across runs.
        for rid in sorted(self.state.trace_rids):
            if rid not in self.outputs:
                raise AuditRejected(
                    "missing-output",
                    f"request {rid} not re-executed",
                    site={"rid": rid},
                )
            expected = self.state.trace.response(rid)
            if self.outputs[rid] != expected:
                raise AuditRejected(
                    "output-mismatch",
                    f"re-executed response for {rid} differs from trace",
                    site={
                        "rid": rid,
                        "expected": self.outputs[rid],
                        "claimed": expected,
                    },
                )
        for var in self.vars.values():
            if isinstance(var, VarState):
                dangling = var.unconsumed_entries()
                if dangling:
                    raise AuditRejected(
                        "unexecuted-log-entry",
                        f"variable {var.var_id!r} log entries never produced "
                        f"by re-execution: {dangling[:3]}",
                        site={"var": var.var_id, "prec": dangling[0]},
                    )

    # -- group execution --------------------------------------------------------

    def _run_group(self, rids: List[str]) -> None:
        self.groups_executed += 1
        requests = [self.state.trace.request(rid) for rid in rids]
        routes = {r.route for r in requests}
        if len(routes) > 1:
            raise AuditRejected(
                "group-mismatch",
                f"grouped requests have different routes {routes}",
                site={"rid": rids[0], "claimed": list(rids)},
            )
        key_sets = {tuple(sorted(r.inputs)) for r in requests}
        if len(key_sets) > 1:
            raise AuditRejected(
                "group-mismatch",
                "grouped requests have different input shapes",
                site={"rid": rids[0], "claimed": list(rids)},
            )
        inputs = {
            k: Multivalue(rids, [r.inputs[k] for r in requests])
            for k in requests[0].inputs
        }
        event = request_event(requests[0].route)
        fids = [f for e, f in self.state.init_ctx.global_handlers if e == event]
        if not fids:
            raise AuditRejected(
                "no-request-handler", f"no handler for route {requests[0].route!r}"
            )
        active = deque()
        for fid in fids:
            hid = HandlerId.intern(fid, None, 0)
            self._require_opcounts(rids, hid)
            active.append((hid, inputs))
        while active:
            hid, payload = active.popleft()
            self._execute_handler(rids, hid, payload, active)

    def _require_opcounts(self, rids: List[str], hid: HandlerId) -> None:
        for rid in rids:
            if (rid, hid) not in self.advice.opcounts:
                raise AuditRejected(
                    "unreported-handler",
                    f"handler {hid!r} of {rid} absent from opcounts",
                    site={"rid": rid, "handler": hid},
                )

    def _execute_handler(
        self,
        rids: List[str],
        hid: HandlerId,
        payload: object,
        active: deque,
    ) -> None:
        fn = self.state.app.function(hid.function_id)
        ctx = GroupContext(self, rids, hid, active)
        try:
            fn(ctx, payload)
        except AuditRejected:
            raise
        except DivergenceError as exc:
            raise AuditRejected(
                "divergence",
                f"group diverged in {hid!r}: {exc}",
                site={"rid": rids[0], "handler": hid, "opnum": ctx.idx},
            ) from exc
        except Exception as exc:
            # Adversarial advice can feed values that crash the re-executed
            # application (the honest server would have crashed identically
            # online, so no honest trace reaches this state): reject.
            raise AuditRejected(
                "reexec-crash",
                f"{hid!r} raised {type(exc).__name__}: {exc}",
                site={"rid": rids[0], "handler": hid, "opnum": ctx.idx},
            ) from exc
        for rid in rids:
            if ctx.idx != self.advice.opcounts[(rid, hid)]:
                raise AuditRejected(
                    "opcount-mismatch",
                    f"handler {(rid, hid)} issued {ctx.idx} ops, advice "
                    f"claims {self.advice.opcounts[(rid, hid)]}",
                    site={
                        "rid": rid,
                        "handler": hid,
                        "expected": ctx.idx,
                        "claimed": self.advice.opcounts[(rid, hid)],
                    },
                )
            self.executed.add((rid, hid))
        self.handlers_executed += len(rids)
        if self.journal is not None:
            self.journal.append(("handlers", len(rids)))


class GroupContext:
    """The handler-context API over a whole re-execution group."""

    def __init__(self, re: ReExecutor, rids: List[str], hid: HandlerId, active: deque):
        self._re = re
        self._rids = rids
        self._hid = hid
        self._active = active
        self.idx = 0
        self._responded = False

    # -- helpers ------------------------------------------------------------

    @property
    def rid(self) -> object:
        if len(self._rids) == 1:
            return self._rids[0]
        return Multivalue(self._rids, list(self._rids))

    def _next_opnum(self) -> int:
        self.idx += 1
        opnum = self.idx
        for rid in self._rids:
            if opnum > self._re.advice.opcounts[(rid, self._hid)]:
                raise AuditRejected(
                    "opcount-mismatch",
                    f"handler {(rid, self._hid)} issued more ops than advice claims",
                    site={
                        "rid": rid,
                        "handler": self._hid,
                        "opnum": opnum,
                        "claimed": self._re.advice.opcounts[(rid, self._hid)],
                    },
                )
        return opnum

    def _lift(self, values: List[object]) -> object:
        return Multivalue(self._rids, values)

    def _require_unlogged_position(self, opnum: int) -> None:
        """Annotated (variable) and nondet ops must not sit at coordinates
        the handler/tx logs claim -- otherwise a log entry would be
        'validated' without ever being re-executed."""
        for rid in self._rids:
            if (rid, self._hid, opnum) in self._re.state.op_map:
                raise AuditRejected(
                    "op-kind-mismatch",
                    f"logs claim {(rid, self._hid, opnum)} but re-execution "
                    "performed a variable/nondet operation there",
                    site={"rid": rid, "handler": self._hid, "opnum": opnum},
                )

    # -- program variables ------------------------------------------------------

    def read(self, var_id: str) -> object:
        opnum = self._next_opnum()
        self._require_unlogged_position(opnum)
        var = self._re.vars.get(var_id)
        if var is None:
            raise AuditRejected("unknown-variable", f"read of {var_id!r}")
        if isinstance(var, PlainVarState):
            return self._lift([var.read(rid) for rid in self._rids])
        return self._lift(
            [var.on_read(rid, self._hid, opnum) for rid in self._rids]
        )

    def write(self, var_id: str, value: object) -> None:
        opnum = self._next_opnum()
        self._require_unlogged_position(opnum)
        var = self._re.vars.get(var_id)
        if var is None:
            raise AuditRejected("unknown-variable", f"write of {var_id!r}")
        for rid in self._rids:
            per_rid = materialize(value, rid)
            if isinstance(var, PlainVarState):
                var.write(rid, per_rid)
            else:
                var.on_write(rid, self._hid, opnum, per_rid)

    def update(self, var_id: str, fn: Callable, *args: object) -> object:
        """Replay of the atomic read-modify-write: the same read and write
        operations the server issued (atomicity is a server-side property;
        the logs already pin down the observed values)."""
        value = self.read(var_id)
        new_value = self.apply(fn, value, *args)
        self.write(var_id, new_value)
        return new_value

    # -- control flow -----------------------------------------------------------------

    def branch(self, cond: object) -> bool:
        return bool(require_scalar(cond))

    def control(self, value: object) -> object:
        return require_scalar(value)

    def apply(self, fn: Callable, *args: object) -> object:
        if any(isinstance(a, Multivalue) for a in args):
            return mv_apply(self._rids, fn, *args)
        return fn(*args)

    # -- handler operations ----------------------------------------------------------

    def _check_handler_op(
        self, opnum: int, optype: str, event: str, function_id: Optional[str]
    ) -> None:
        for rid in self._rids:
            pos = self._re.state.op_map.get((rid, self._hid, opnum))
            if pos is None or pos[0] != "handler_log" or pos[1] != rid:
                raise AuditRejected(
                    "missing-log-entry",
                    f"handler op at {(rid, self._hid, opnum)} not in handler log",
                    site={"rid": rid, "handler": self._hid, "opnum": opnum},
                )
            entry = self._re.advice.handler_logs[rid][pos[2]]
            if (
                entry.optype != optype
                or entry.event != event
                or entry.function_id != function_id
            ):
                raise AuditRejected(
                    "handler-op-mismatch",
                    f"advice entry at {(rid, self._hid, opnum)} does not match "
                    f"re-executed {optype} of {event!r}",
                    site={
                        "rid": rid,
                        "handler": self._hid,
                        "opnum": opnum,
                        "expected": (optype, event, function_id),
                        "claimed": (entry.optype, entry.event, entry.function_id),
                    },
                )

    def emit(self, event: str, payload: object = None) -> None:
        opnum = self._next_opnum()
        event = require_scalar(event)
        self._check_handler_op(opnum, EMIT, event, None)
        # ActivateHandlers (Figure 19): all requests must activate the same
        # handler set, per the advice processed during preprocessing.
        sets = [
            tuple(self._re.state.activated_handlers.get((rid, self._hid, opnum), ()))
            for rid in self._rids
        ]
        if len(set(sets)) > 1:
            raise AuditRejected(
                "group-mismatch",
                "emit activates different handlers across group",
                site={
                    "rid": self._rids[0],
                    "handler": self._hid,
                    "opnum": opnum,
                    "claimed": list(self._rids),
                },
            )
        for child in sets[0]:
            self._active.append((child, payload))

    def register(self, event: str, function_id: str) -> None:
        opnum = self._next_opnum()
        self._check_handler_op(
            opnum, REGISTER, require_scalar(event), require_scalar(function_id)
        )

    def unregister(self, event: str, function_id: str) -> None:
        opnum = self._next_opnum()
        self._check_handler_op(
            opnum, UNREGISTER, require_scalar(event), require_scalar(function_id)
        )

    # -- transactional state ------------------------------------------------------------

    def _check_state_op(
        self,
        rid: str,
        opnum: int,
        tid: TxId,
        optype: str,
        key: Optional[object] = None,
        value: object = None,
    ) -> Tuple[object, Optional[str]]:
        """CheckStateOp (Figure 19): returns (result value, error)."""
        state = self._re.state
        txnum = self._re.txnums.get((rid, tid), 0)
        self._re.txnums[(rid, tid)] = txnum + 1
        pos = state.op_map.get((rid, self._hid, opnum))
        if pos is None or pos[0] != "tx_log" or pos[1] != rid:
            raise AuditRejected(
                "missing-log-entry",
                f"state op at {(rid, self._hid, opnum)} not in a tx log",
                site={"rid": rid, "handler": self._hid, "opnum": opnum},
            )
        _, _, tid_c, i = pos
        if tid_c != tid or i != txnum:
            raise AuditRejected(
                "state-op-mismatch",
                f"state op at {(rid, self._hid, opnum)} logged under "
                f"{(tid_c, i)}, re-execution expects {(tid, txnum)}",
                site={
                    "rid": rid,
                    "handler": self._hid,
                    "opnum": opnum,
                    "expected": (tid, txnum),
                    "claimed": (tid_c, i),
                },
            )
        entry = state.advice.tx_logs[(rid, tid)][i]
        if entry.optype == optype:
            if optype in (TX_GET, TX_PUT):
                actual_key = materialize(key, rid)
                if entry.key != actual_key:
                    raise AuditRejected(
                        "state-op-mismatch",
                        f"key mismatch at {(rid, tid, i)}: log has "
                        f"{entry.key!r}, re-execution {actual_key!r}",
                        site={
                            "rid": rid,
                            "handler": self._hid,
                            "opnum": opnum,
                            "tx": (rid, tid, i),
                            "key": actual_key,
                            "expected": actual_key,
                            "claimed": entry.key,
                        },
                    )
            if optype == TX_PUT:
                actual_value = materialize(value, rid)
                if entry.opcontents != actual_value:
                    raise AuditRejected(
                        "state-op-mismatch",
                        f"PUT value mismatch at {(rid, tid, i)}",
                        site={
                            "rid": rid,
                            "handler": self._hid,
                            "opnum": opnum,
                            "tx": (rid, tid, i),
                            "key": entry.key,
                            "expected": actual_value,
                            "claimed": entry.opcontents,
                        },
                    )
                return "ok", None
            if optype == TX_GET:
                if entry.opcontents is None:
                    # Read of the initial store state: the never-written
                    # store at genesis, or the carried-in committed state
                    # of the previous epoch in a continuous audit.
                    return state.initial_kv.get(entry.key), None
                rid_w, tid_w, i_w = entry.opcontents
                dictating = state.advice.tx_logs[(rid_w, tid_w)][i_w]
                return dictating.opcontents, None
            return "ok", None
        if entry.optype == TX_ABORT and optype in (TX_GET, TX_PUT, TX_COMMIT):
            # The original operation hit a conflict and the transaction
            # aborted; replay the retry error.
            return None, "retry"
        raise AuditRejected(
            "state-op-mismatch",
            f"op type mismatch at {(rid, tid, i)}: log has {entry.optype}, "
            f"re-execution performed {optype}",
            site={
                "rid": rid,
                "handler": self._hid,
                "opnum": opnum,
                "tx": (rid, tid, i),
                "key": entry.key,
                "expected": optype,
                "claimed": entry.optype,
            },
        )

    def tx_start(self) -> TxId:
        opnum = self._next_opnum()
        tid = TxId(self._hid, opnum)
        for rid in self._rids:
            result, error = self._check_state_op(rid, opnum, tid, TX_START)
            if error is not None:
                raise AuditRejected(
                    "state-op-mismatch",
                    f"tx_start logged as abort for {rid}",
                    site={"rid": rid, "handler": self._hid, "opnum": opnum},
                )
        return tid

    def tx_get(self, tid: TxId, key: object, callback_fid: str, extra: object = None) -> None:
        opnum = self._next_opnum()
        tid = require_scalar(tid)
        callback_fid = require_scalar(callback_fid)
        values, errors = [], []
        for rid in self._rids:
            result, error = self._check_state_op(rid, opnum, tid, TX_GET, key=key)
            values.append(result)
            errors.append(error)
        payload = {
            "tid": tid,
            "key": key,
            "value": self._lift(values),
            "error": self._lift(errors),
            "extra": extra,
        }
        child = HandlerId.intern(callback_fid, self._hid, opnum)
        self._re._require_opcounts(self._rids, child)
        self._active.append((child, payload))

    def tx_put(self, tid: TxId, key: object, value: object) -> object:
        opnum = self._next_opnum()
        tid = require_scalar(tid)
        results = []
        for rid in self._rids:
            _result, error = self._check_state_op(
                rid, opnum, tid, TX_PUT, key=key, value=value
            )
            results.append("retry" if error else "ok")
        return self._lift(results)

    def tx_commit(self, tid: TxId) -> object:
        opnum = self._next_opnum()
        tid = require_scalar(tid)
        results = []
        for rid in self._rids:
            _result, error = self._check_state_op(rid, opnum, tid, TX_COMMIT)
            results.append("retry" if error else "ok")
        return self._lift(results)

    def tx_abort(self, tid: TxId) -> None:
        opnum = self._next_opnum()
        tid = require_scalar(tid)
        for rid in self._rids:
            self._check_state_op(rid, opnum, tid, TX_ABORT)

    # -- non-determinism ------------------------------------------------------------------

    def nondet(self, fn: Callable[[], object]) -> object:
        opnum = self._next_opnum()
        self._require_unlogged_position(opnum)
        values = []
        for rid in self._rids:
            key = (rid, self._hid, opnum)
            if key not in self._re.advice.nondet:
                raise AuditRejected(
                    "missing-nondet",
                    f"no recorded value for {key}",
                    site={"rid": rid, "handler": self._hid, "opnum": opnum},
                )
            values.append(self._re.advice.nondet[key])
        return self._lift(values)

    # -- responses -----------------------------------------------------------------------------

    def respond(self, payload: object) -> None:
        for rid in self._rids:
            claimed = self._re.advice.response_emitted_by.get(rid)
            if claimed != (self._hid, self.idx):
                raise AuditRejected(
                    "bad-response-emitter",
                    f"response for {rid} emitted at {(self._hid, self.idx)}, "
                    f"advice claims {claimed}",
                    site={
                        "rid": rid,
                        "handler": self._hid,
                        "opnum": self.idx,
                        "expected": (self._hid, self.idx),
                        "claimed": claimed,
                    },
                )
            if rid in self._re.outputs:
                raise AuditRejected(
                    "double-response",
                    f"{rid} responded twice",
                    site={"rid": rid, "handler": self._hid, "opnum": self.idx},
                )
            self._re.outputs[rid] = materialize(payload, rid)
        self._responded = True
