"""The KEM dispatch loop (paper section 3).

:class:`Runtime` serves a list of requests against an application: it
admits up to ``concurrency`` requests at a time, keeps a set of pending
handler activations, and repeatedly asks the :class:`Scheduler` to select
one to run to completion.  Handler operations route back through the
runtime (event emission, registration, transactional state) and through
the pluggable :class:`ServerPolicy` (variable access, advice collection).

The three server variants -- unmodified, Karousos, Orochi-JS -- are this
one runtime with different policies (``repro.server``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.advice.records import (
    Advice,
    TX_ABORT,
    TX_COMMIT,
    TX_GET,
    TX_PUT,
    TX_START,
)
from repro.core.ids import HandlerId, Label, TxId
from repro.errors import (
    ProgramError,
    SchedulerError,
    TransactionAborted,
    TransactionRetry,
)
from repro.kem.activation import Activation
from repro.kem.context import HandlerContext
from repro.kem.program import AppSpec, InitContext, request_event
from repro.kem.scheduler import FifoScheduler, Scheduler
from repro.obs import MetricsRegistry, ensure_metrics
from repro.store.kv import KVStore, Transaction
from repro.trace.collector import Collector
from repro.trace.trace import Request, Trace


class ServerPolicy:
    """Per-run instrumentation strategy.

    The unmodified server implements only variable storage; the Karousos
    and Orochi-JS policies additionally collect advice.  One policy
    instance serves exactly one :meth:`Runtime.serve` call.
    """

    # Set by run_server so advice assembly can reach the store's binlog.
    runtime: Optional["Runtime"] = None

    def setup(self, init_ctx: InitContext) -> None:
        raise NotImplementedError

    def read_var(self, act: Activation, opnum: int, var_id: str) -> object:
        raise NotImplementedError

    def write_var(self, act: Activation, opnum: int, var_id: str, value: object) -> None:
        raise NotImplementedError

    def nondet(self, act: Activation, opnum: int, fn: Callable[[], object]) -> object:
        raise NotImplementedError

    def on_handler_op(
        self,
        act: Activation,
        opnum: int,
        optype: str,
        event: str,
        function_id: Optional[str] = None,
    ) -> None:
        """Called for emit/register/unregister."""

    def on_tx_entry(
        self,
        act: Activation,
        opnum: int,
        tid: TxId,
        optype: str,
        key: Optional[str] = None,
        opcontents: object = None,
    ) -> None:
        """Called for every transactional operation the app issues."""

    def tx_log_position(self, rid: str, tid: TxId) -> int:
        """Index the *next* tx-log entry will occupy (for writer tokens)."""
        return 0

    def on_respond(self, act: Activation) -> None:
        """Called just before the response is handed to the collector."""

    def on_activation_end(self, act: Activation) -> None:
        """Called when a handler activation runs to completion."""

    def on_request_complete(self, rid: str) -> None:
        """Called when a request has responded and has no live handlers."""

    def advice(self) -> Optional[Advice]:
        """The collected advice, or None for the unmodified server."""
        return None

    def advice_since_cut(self, binlog_start: int) -> Optional[Advice]:
        """The advice recorded since the previous call, for the epoch
        sealer to slice (``binlog_start``: the binlog's length at that
        call).  Any superset is correct, since the sealer keeps only the
        epoch's requests; this default is the whole run's."""
        return self.advice()


@dataclass
class _RequestState:
    responded: bool = False
    outstanding: int = 0  # live (pending or running) activations
    next_root: int = 0  # label counter for request handlers
    # Per-request registration scope: event -> ordered fids (section 4.1:
    # the verifier rebuilds this set from the request's handler log).
    registered: Dict[str, List[str]] = field(default_factory=dict)


class Runtime:
    """Event-driven server runtime for one application."""

    def __init__(
        self,
        app: AppSpec,
        policy: ServerPolicy,
        store: Optional[KVStore] = None,
        scheduler: Optional[Scheduler] = None,
        concurrency: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.app = app
        self.policy = policy
        self.store = store
        self.scheduler = scheduler or FifoScheduler()
        self.concurrency = concurrency
        # Observe-only (DESIGN.md §9): the serve loop reports into the
        # registry but never reads it back, so enabling metrics cannot
        # perturb scheduling, the trace, or the advice.
        self.metrics = ensure_metrics(metrics)
        self.collector = Collector()
        self.init_ctx = app.run_init()
        self.policy.setup(self.init_ctx)
        self._pending: List[Activation] = []
        self._requests: Dict[str, _RequestState] = {}
        self._in_flight = 0
        self._txs: Dict[Tuple[str, TxId], Transaction] = {}
        # Optional epoch sealer (repro.continuous): when attached, the
        # serve loop stops admitting once a seal is due, drains to
        # quiescence, and cuts an epoch before resuming admission.
        self.sealer = None

    # -- main loop -------------------------------------------------------

    def quiescent(self) -> bool:
        """True when nothing spans this instant: no in-flight request, no
        pending activation, and no open store transaction.  The epoch
        sealer only cuts at quiescent points (DESIGN.md §6)."""
        if self._in_flight or self._pending:
            return False
        if self.store is not None and self.store.active_transactions():
            return False
        return True

    def serve(self, requests: List[Request]) -> Trace:
        incoming = deque(requests)
        while incoming or self._pending:
            sealing = self.sealer is not None and self.sealer.seal_due()
            if not sealing:
                while incoming and self._in_flight < self.concurrency:
                    self._admit(incoming.popleft())
            if not self._pending:
                if sealing and self.quiescent():
                    self.sealer.seal()
                    self.metrics.counter("kem.seals").inc()
                    continue
                raise ProgramError(
                    "requests in flight but no pending activations: "
                    "some handler failed to respond"
                )
            self.metrics.gauge("kem.pending_peak").set_max(len(self._pending))
            idx = self.scheduler.pick(self._pending)
            if not 0 <= idx < len(self._pending):
                raise SchedulerError(f"scheduler picked invalid index {idx}")
            act = self._pending.pop(idx)
            self._run(act)
        unanswered = [r for r, s in self._requests.items() if not s.responded]
        if unanswered:
            raise ProgramError(f"requests never responded: {unanswered}")
        return self.collector.trace()

    def _admit(self, request: Request) -> None:
        event = request_event(request.route)
        fids = [f for e, f in self.init_ctx.global_handlers if e == event]
        if not fids:
            raise ProgramError(f"no request handler for route {request.route!r}")
        self.collector.on_request(request)
        self.metrics.counter("kem.requests").inc()
        self._in_flight += 1
        self.metrics.gauge("kem.in_flight_peak").set_max(self._in_flight)
        state = _RequestState()
        self._requests[request.rid] = state
        for fid in fids:
            hid = HandlerId(fid, None, 0)
            label = Label((state.next_root,))
            state.next_root += 1
            state.outstanding += 1
            self._pending.append(
                Activation(request.rid, hid, label, fid, payload=request.inputs)
            )

    def _run(self, act: Activation) -> None:
        fn = self.app.function(act.function_id)
        ctx = HandlerContext(self, act)
        self.metrics.counter("kem.activations").inc()
        with self.metrics.span("kem.activation.seconds"):
            fn(ctx, act.payload)
        self.policy.on_activation_end(act)
        state = self._requests[act.rid]
        state.outstanding -= 1
        if state.outstanding == 0:
            if not state.responded:
                raise ProgramError(f"request {act.rid} finished without responding")
            self.policy.on_request_complete(act.rid)

    def _spawn(self, parent: Activation, fid: str, at_opnum: int, payload: object) -> None:
        if fid not in self.app.functions:
            raise ProgramError(f"activation of unknown function {fid!r}")
        hid = parent.child_hid(fid, at_opnum)
        label = parent.child_label()
        self._requests[parent.rid].outstanding += 1
        self._pending.append(Activation(parent.rid, hid, label, fid, payload=payload))

    # -- variables ----------------------------------------------------------

    def atomic_update(self, act: Activation, var_id: str, fn, args: tuple) -> object:
        """Read-modify-write as an uninterruptible pair of operations.
        Single-threaded dispatch is trivially atomic; the threaded runtime
        overrides this with its operation lock held across the pair."""
        read_opnum = act.next_opnum()
        value = self.policy.read_var(act, read_opnum, var_id)
        new_value = fn(value, *args)
        write_opnum = act.next_opnum()
        self.policy.write_var(act, write_opnum, var_id, new_value)
        return new_value

    # -- handler operations -----------------------------------------------

    def handler_emit(self, act: Activation, opnum: int, event: str, payload: object) -> None:
        self.policy.on_handler_op(act, opnum, "emit", event)
        state = self._requests[act.rid]
        global_fids = [f for e, f in self.init_ctx.global_handlers if e == event]
        scoped_fids = state.registered.get(event, [])
        for fid in global_fids + scoped_fids:
            self._spawn(act, fid, opnum, payload)

    def handler_register(self, act: Activation, opnum: int, event: str, fid: str) -> None:
        if fid not in self.app.functions:
            raise ProgramError(f"register of unknown function {fid!r}")
        state = self._requests[act.rid]
        fids = state.registered.setdefault(event, [])
        already_global = any(e == event and f == fid for e, f in self.init_ctx.global_handlers)
        if fid in fids or already_global:
            raise ProgramError(
                f"function {fid!r} registered twice for event {event!r}"
            )
        self.policy.on_handler_op(act, opnum, "register", event, fid)
        fids.append(fid)

    def handler_unregister(self, act: Activation, opnum: int, event: str, fid: str) -> None:
        state = self._requests[act.rid]
        fids = state.registered.get(event, [])
        if fid not in fids:
            raise ProgramError(f"unregister of {fid!r} not registered for {event!r}")
        self.policy.on_handler_op(act, opnum, "unregister", event, fid)
        fids.remove(fid)

    # -- transactional state ------------------------------------------------

    def _store_required(self) -> KVStore:
        if self.store is None:
            raise ProgramError("application issued a transactional op but the "
                               "runtime has no store")
        return self.store

    def _tx(self, rid: str, tid: TxId) -> Transaction:
        try:
            return self._txs[(rid, tid)]
        except KeyError:
            raise ProgramError(f"unknown transaction {tid!r} for request {rid}") from None

    def tx_start(self, act: Activation, opnum: int) -> TxId:
        store = self._store_required()
        tid = TxId(act.hid, opnum)
        self._txs[(act.rid, tid)] = store.begin(owner=act.rid)
        self.policy.on_tx_entry(act, opnum, tid, TX_START)
        return tid

    def tx_get(
        self,
        act: Activation,
        opnum: int,
        tid: TxId,
        key: str,
        callback_fid: str,
        extra: object,
    ) -> None:
        store = self._store_required()
        tx = self._tx(act.rid, tid)
        payload = {"tid": tid, "key": key, "value": None, "error": None, "extra": extra}
        try:
            value, _token = store.get(tx, key)
            payload["value"] = value
            self.policy.on_tx_entry(act, opnum, tid, TX_GET, key=key, opcontents=_token)
        except (TransactionRetry, TransactionAborted):
            # Conflict, or a sibling handler already aborted this tx: the
            # app sees a retry error either way (section 6, stack dump).
            payload["error"] = "retry"
            self.policy.on_tx_entry(act, opnum, tid, TX_ABORT)
        self._spawn(act, callback_fid, opnum, payload)

    def tx_put(self, act: Activation, opnum: int, tid: TxId, key: str, value: object) -> str:
        store = self._store_required()
        tx = self._tx(act.rid, tid)
        # The writer token names this PUT's position in the transaction log
        # so later GETs can report their dictating write (section 5).
        token = (act.rid, tid, self.policy.tx_log_position(act.rid, tid))
        try:
            store.put(tx, key, value, writer_token=token)
        except (TransactionRetry, TransactionAborted):
            self.policy.on_tx_entry(act, opnum, tid, TX_ABORT)
            return "retry"
        self.policy.on_tx_entry(act, opnum, tid, TX_PUT, key=key, opcontents=value)
        return "ok"

    def tx_commit(self, act: Activation, opnum: int, tid: TxId) -> str:
        store = self._store_required()
        tx = self._tx(act.rid, tid)
        try:
            store.commit(tx)
        except TransactionRetry:
            # First-committer-wins under snapshot isolation: the commit
            # failed and the transaction aborted.
            self.policy.on_tx_entry(act, opnum, tid, TX_ABORT)
            return "retry"
        except TransactionAborted:
            raise ProgramError(f"commit of finished transaction {tid!r}") from None
        self.policy.on_tx_entry(act, opnum, tid, TX_COMMIT)
        return "ok"

    def tx_abort(self, act: Activation, opnum: int, tid: TxId) -> None:
        store = self._store_required()
        store.abort(self._tx(act.rid, tid))
        self.policy.on_tx_entry(act, opnum, tid, TX_ABORT)

    # -- responses ---------------------------------------------------------------

    def respond(self, act: Activation, payload: object) -> None:
        state = self._requests[act.rid]
        if state.responded:
            raise ProgramError(f"request {act.rid} responded twice")
        state.responded = True
        self._in_flight -= 1
        self.metrics.counter("kem.responses").inc()
        self.policy.on_respond(act)
        self.collector.on_response(act.rid, payload)
