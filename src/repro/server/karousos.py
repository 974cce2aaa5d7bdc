"""The Karousos server policy: advice collection (paper sections 4-5).

Collects, while the application serves real traffic:

* handler logs (emit/register/unregister entries, section 4.1);
* variable logs with R-concurrency-gated logging (section 4.2, Figure 13);
* transaction logs and the write order from the store's binlog
  (section 4.4);
* opcounts, responseEmittedBy, recorded non-determinism (Appendix C.1.3);
* the request tags defining re-execution groups (section 4.1): the
  order-invariant digest of the handler tree and per-handler control flow.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from repro.advice.records import Advice, HandlerOpEntry, TxLogEntry
from repro.core.digest import karousos_tag
from repro.core.ids import HandlerId, TxId
from repro.errors import ProgramError
from repro.kem.activation import Activation
from repro.kem.program import InitContext
from repro.kem.runtime import Runtime, ServerPolicy
from repro.server.variables import LoggableCell

# The advice sections keyed by request coordinates, each read by a cut
# from where the previous cut left it.
_CUT_SECTIONS = (
    "tags", "handler_logs", "response_emitted_by", "opcounts", "nondet", "tx_logs",
)


def _since(section: dict, mark: int) -> dict:
    """The entries inserted into ``section`` after its first ``mark``, in
    insertion order, visiting none of the older ones."""
    recent = list(islice(reversed(section.items()), len(section) - mark))
    recent.reverse()
    return dict(recent)


class KarousosPolicy(ServerPolicy):
    """Advice-collecting policy.  One instance per served trace."""

    def __init__(self) -> None:
        self.advice_out = Advice()
        self._cells: Dict[str, LoggableCell] = {}
        self._plain: Dict[str, object] = {}
        # Per request: handler fingerprints in completion order.
        self._fingerprints: Dict[str, List[Tuple[HandlerId, str]]] = {}
        # Where the previous cut left each section, the runtime's
        # transactions ("txs") and each cell's log: their lengths then.
        self._cut: Dict[str, int] = {}
        self._log_cut: Dict[str, int] = {}
        self.runtime: Optional[Runtime] = None  # set by run_server

    # -- setup -------------------------------------------------------------

    def setup(self, init_ctx: InitContext) -> None:
        for var_id, initial in init_ctx.initial_vars.items():
            if init_ctx.loggable.get(var_id, True):
                self._cells[var_id] = LoggableCell(var_id, initial)
            else:
                self._plain[var_id] = initial

    # -- variables (annotated operations) --------------------------------------

    def read_var(self, act: Activation, opnum: int, var_id: str) -> object:
        cell = self._cells.get(var_id)
        if cell is None:
            return self._plain[var_id]
        return cell.on_read(act.rid, act.label, act.hid, opnum)

    def write_var(self, act: Activation, opnum: int, var_id: str, value: object) -> None:
        cell = self._cells.get(var_id)
        if cell is None:
            self._plain[var_id] = value
            return
        cell.on_write(act.rid, act.label, act.hid, opnum, value)

    # -- non-determinism ----------------------------------------------------------

    def nondet(self, act: Activation, opnum: int, fn: Callable[[], object]) -> object:
        value = fn()
        self.advice_out.nondet[(act.rid, act.hid, opnum)] = value
        return value

    # -- handler operations ----------------------------------------------------------

    def on_handler_op(
        self,
        act: Activation,
        opnum: int,
        optype: str,
        event: str,
        function_id: Optional[str] = None,
    ) -> None:
        self.advice_out.handler_logs.setdefault(act.rid, []).append(
            HandlerOpEntry(act.hid, opnum, optype, event, function_id)
        )

    # -- transactional state ------------------------------------------------------------

    def on_tx_entry(
        self,
        act: Activation,
        opnum: int,
        tid: TxId,
        optype: str,
        key: Optional[str] = None,
        opcontents: object = None,
    ) -> None:
        log = self.advice_out.tx_logs.setdefault((act.rid, tid), [])
        log.append(TxLogEntry(act.hid, opnum, optype, key, opcontents))

    def tx_log_position(self, rid: str, tid: TxId) -> int:
        return len(self.advice_out.tx_logs.get((rid, tid), []))

    # -- bookkeeping -----------------------------------------------------------------------

    def on_respond(self, act: Activation) -> None:
        self.advice_out.response_emitted_by[act.rid] = (act.hid, act.opnum)

    def on_activation_end(self, act: Activation) -> None:
        key = (act.rid, act.hid)
        if key in self.advice_out.opcounts:
            raise ProgramError(f"handler {act.hid!r} activated twice for {act.rid}")
        self.advice_out.opcounts[key] = act.opnum
        self._fingerprints.setdefault(act.rid, []).append(
            (act.hid, act.cf_digest.value())
        )

    def on_request_complete(self, rid: str) -> None:
        self.advice_out.tags[rid] = self._tag(self._fingerprints.pop(rid, []))

    def _tag(self, fingerprints: List[Tuple[HandlerId, str]]) -> str:
        return karousos_tag(fingerprints)

    # -- advice assembly -------------------------------------------------------------------------

    def advice(self) -> Advice:
        out = self.advice_out
        out.variable_logs = {
            var_id: dict(cell.log)
            for var_id, cell in self._cells.items()
            if cell.log
        }
        if self.runtime is not None and self.runtime.store is not None:
            store = self.runtime.store
            out.write_order = [
                entry.writer_token
                for entry in store.binlog
                if entry.writer_token is not None
            ]
            out.isolation_level = store.isolation
            out.tx_windows = {
                key: store.tx_window(tx) for key, tx in self.runtime._txs.items()
            }
        return out

    def advice_since_cut(self, binlog_start: int) -> Advice:
        """What was recorded since the previous cut, read without visiting
        anything older (DESIGN.md §6): the newest entries of each section
        and cell log, the windows of the transactions begun since, and the
        write order of the binlog from ``binlog_start``."""
        out, cut = self.advice_out, self._cut
        recent = Advice(isolation_level=out.isolation_level)
        for name in _CUT_SECTIONS:
            section = getattr(out, name)
            setattr(recent, name, _since(section, cut.get(name, 0)))
            cut[name] = len(section)
        for var_id, cell in self._cells.items():
            log = _since(cell.log, self._log_cut.get(var_id, 0))
            if log:
                recent.variable_logs[var_id] = log
                self._log_cut[var_id] = len(cell.log)
        if self.runtime is not None and self.runtime.store is not None:
            store, txs = self.runtime.store, self.runtime._txs
            recent.isolation_level = store.isolation
            recent.write_order = [
                entry.writer_token
                for entry in store.binlog.since(binlog_start)
                if entry.writer_token is not None
            ]
            recent.tx_windows = {
                key: store.tx_window(tx)
                for key, tx in _since(txs, cut.get("txs", 0)).items()
            }
            cut["txs"] = len(txs)
        return recent
