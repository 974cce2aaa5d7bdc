"""A multi-threaded KEM runtime (paper section 3, "Related work").

KEM deliberately "models a runtime that can have multiple concurrent
threads executing at a time ... more general than the Node.js runtime",
and the paper argues Karousos therefore keeps working on future runtimes
that use multiple threads.  :class:`ThreadedRuntime` demonstrates exactly
that: up to ``parallelism`` handler activations execute on real OS
threads, so operations of *different* handlers genuinely interleave, while
each individual operation stays atomic (sequential consistency, KEM's
memory assumption, enforced by one re-entrant operation lock).

One scheduling constraint preserves the R-order's soundness: a handler is
never dispatched while its activating ancestor is still running (children
buffer until their parent completes).  KEM's single-threaded dispatch loop
gives this for free (handlers run to completion before their events are
served); without it a parent could observe a *descendant's* write, which
R-orders the read before its dictating write and would break Figure 13's
logging rule.  Sibling and cross-request parallelism -- the interesting
kind -- remains unrestricted, and the resulting traces and advice audit
exactly like single-threaded ones.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

from repro.errors import ProgramError
from repro.kem.activation import Activation
from repro.kem.context import HandlerContext
from repro.kem.program import AppSpec, InitContext
from repro.kem.runtime import Runtime, ServerPolicy
from repro.kem.scheduler import Scheduler
from repro.store.kv import KVStore
from repro.trace.trace import Request, Trace


class _LockedPolicy(ServerPolicy):
    """Serialises every policy call: variable accesses and log appends are
    atomic operations even when handler bodies run on separate threads."""

    def __init__(self, inner: ServerPolicy, lock: threading.RLock):
        self._inner = inner
        self._lock = lock

    # run_server assigns `policy.runtime`; forward it to the real policy.
    @property
    def runtime(self):
        return self._inner.runtime

    @runtime.setter
    def runtime(self, value):
        self._inner.runtime = value

    def setup(self, init_ctx: InitContext) -> None:
        self._inner.setup(init_ctx)

    def read_var(self, act, opnum, var_id):
        with self._lock:
            return self._inner.read_var(act, opnum, var_id)

    def write_var(self, act, opnum, var_id, value):
        with self._lock:
            self._inner.write_var(act, opnum, var_id, value)

    def nondet(self, act, opnum, fn: Callable[[], object]):
        with self._lock:
            return self._inner.nondet(act, opnum, fn)

    def on_handler_op(self, act, opnum, optype, event, function_id=None):
        with self._lock:
            self._inner.on_handler_op(act, opnum, optype, event, function_id)

    def on_tx_entry(self, act, opnum, tid, optype, key=None, opcontents=None):
        with self._lock:
            self._inner.on_tx_entry(act, opnum, tid, optype, key, opcontents)

    def tx_log_position(self, rid, tid):
        with self._lock:
            return self._inner.tx_log_position(rid, tid)

    def on_respond(self, act):
        with self._lock:
            self._inner.on_respond(act)

    def on_activation_end(self, act):
        with self._lock:
            self._inner.on_activation_end(act)

    def on_request_complete(self, rid):
        with self._lock:
            self._inner.on_request_complete(rid)

    def advice(self):
        return self._inner.advice()

    def advice_since_cut(self, binlog_start):
        return self._inner.advice_since_cut(binlog_start)


class ThreadedRuntime(Runtime):
    """KEM runtime executing handler activations on a thread pool."""

    def __init__(
        self,
        app: AppSpec,
        policy: ServerPolicy,
        store: Optional[KVStore] = None,
        scheduler: Optional[Scheduler] = None,
        concurrency: int = 1,
        parallelism: int = 4,
        metrics=None,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self._lock = threading.RLock()
        super().__init__(app, policy, store=store, scheduler=scheduler,
                         concurrency=concurrency, metrics=metrics)
        self.policy = _LockedPolicy(self.policy, self._lock)
        self.parallelism = parallelism
        self._dispatch = threading.Condition(self._lock)
        self._running = 0
        self._worker_error: Optional[BaseException] = None

    # -- operation atomicity: every runtime-level op takes the lock -------

    def atomic_update(self, act, var_id, fn, args):
        # Hold the lock across the read-compute-write triple: this is what
        # makes ctx.update atomic for applications on this runtime.
        with self._lock:
            return super().atomic_update(act, var_id, fn, args)

    def handler_emit(self, act, opnum, event, payload):
        with self._lock:
            super().handler_emit(act, opnum, event, payload)

    def handler_register(self, act, opnum, event, fid):
        with self._lock:
            super().handler_register(act, opnum, event, fid)

    def handler_unregister(self, act, opnum, event, fid):
        with self._lock:
            super().handler_unregister(act, opnum, event, fid)

    def tx_start(self, act, opnum):
        with self._lock:
            return super().tx_start(act, opnum)

    def tx_get(self, act, opnum, tid, key, callback_fid, extra):
        with self._lock:
            super().tx_get(act, opnum, tid, key, callback_fid, extra)

    def tx_put(self, act, opnum, tid, key, value):
        with self._lock:
            return super().tx_put(act, opnum, tid, key, value)

    def tx_commit(self, act, opnum, tid):
        with self._lock:
            return super().tx_commit(act, opnum, tid)

    def tx_abort(self, act, opnum, tid):
        with self._lock:
            super().tx_abort(act, opnum, tid)

    def respond(self, act, payload):
        with self._lock:
            super().respond(act, payload)

    # -- deferred child dispatch ----------------------------------------------

    def _spawn(self, parent: Activation, fid: str, at_opnum: int, payload: object) -> None:
        """Buffer children until the parent completes (see module doc)."""
        if fid not in self.app.functions:
            raise ProgramError(f"activation of unknown function {fid!r}")
        hid = parent.child_hid(fid, at_opnum)
        label = parent.child_label()
        self._requests[parent.rid].outstanding += 1
        buffer = getattr(parent, "_deferred", None)
        if buffer is None:
            buffer = []
            parent._deferred = buffer
        buffer.append(Activation(parent.rid, hid, label, fid, payload=payload))

    # -- threaded dispatch loop --------------------------------------------------

    def serve(self, requests: List[Request]) -> Trace:
        incoming = deque(requests)
        with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
            with self._dispatch:
                while True:
                    while incoming and self._in_flight < self.concurrency:
                        self._admit(incoming.popleft())
                    while self._pending and self._running < self.parallelism:
                        idx = self.scheduler.pick(self._pending)
                        act = self._pending.pop(idx)
                        self._running += 1
                        pool.submit(self._worker, act)
                    if self._worker_error is not None:
                        error = self._worker_error
                        self._worker_error = None
                        raise error
                    if not self._pending and self._running == 0:
                        if not incoming:
                            break
                        if self._in_flight >= self.concurrency:
                            raise ProgramError(
                                "requests in flight but no runnable "
                                "activations: some handler failed to respond"
                            )
                        continue
                    self._dispatch.wait()
        unanswered = [r for r, s in self._requests.items() if not s.responded]
        if unanswered:
            raise ProgramError(f"requests never responded: {unanswered}")
        return self.collector.trace()

    def _worker(self, act: Activation) -> None:
        try:
            fn = self.app.function(act.function_id)
            fn(HandlerContext(self, act), act.payload)
            with self._dispatch:
                self.policy.on_activation_end(act)
                # Children become runnable only now that the parent is done.
                self._pending.extend(getattr(act, "_deferred", ()))
                state = self._requests[act.rid]
                state.outstanding -= 1
                if state.outstanding == 0:
                    if not state.responded:
                        raise ProgramError(
                            f"request {act.rid} finished without responding"
                        )
                    self.policy.on_request_complete(act.rid)
                self._running -= 1
                self._dispatch.notify()
        except BaseException as exc:  # surface worker failures to serve()
            with self._dispatch:
                if self._worker_error is None:
                    self._worker_error = exc
                self._running -= 1
                self._dispatch.notify()
