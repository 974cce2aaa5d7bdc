"""Per-epoch advice slicing (continuous auditing, DESIGN.md §6).

``slice_advice(advice, rids)`` restricts an advice bundle to the requests
of one epoch.  The epoch sealer applies it to what the policy recorded
since the previous cut (a superset of the epoch's entries); applied to a
whole run's advice at the same seal, it gives the same slice.  Epochs
are cut at *quiescent* points -- no in-flight request, pending
activation, or open transaction spans a cut -- which makes the slice
self-contained up to references into the past:

* a variable-log read/write whose ``prec`` names an earlier epoch's write
  is rewritten to reference :data:`~repro.server.variables.INIT_REF`, the
  initialisation pseudo-write.  At a quiescent cut the referenced write is
  necessarily the *final* pre-cut write of that variable (the server's
  cell tracks the last write; any later write would have replaced it), so
  its value is exactly the carried-in checkpoint value the verifier feeds
  for initializer reads;
* a transaction-log GET whose dictating PUT lives in an earlier epoch is
  rewritten to an initial-state read (``opcontents = None``); the verifier
  resolves those from the carried-in committed KV state.  The same
  final-write argument applies: at a quiescent cut the committed value of
  a key is the value installed by its last pre-cut committed writer;
* log entries *keyed* by out-of-epoch coordinates are dropped.  This
  removes genesis ``INIT_REF`` backfills (the initial value is the
  verifier's own, or the previous checkpoint's -- a server-supplied value
  would either be redundant or a false "forged-initial-value" conflict
  with the carry) and backfills that a later epoch wrote under an earlier
  epoch's coordinates (those entries postdate the earlier epoch's seal).

Everything keyed by request id -- tags, handler logs, response emitters,
opcounts, nondet records, transaction windows -- is filtered directly.
Soundness is unaffected by slicing errors a dishonest server might induce:
the slice is re-validated from scratch by the epoch's audit, and carried
values come from the verifier's own accepted checkpoint, never from the
server.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.advice.records import Advice, TX_GET, TxLogEntry, VariableLogEntry
from repro.server.variables import INIT_REF


def slice_advice(advice: Advice, rids: Iterable[str]) -> Advice:
    """A new :class:`Advice` bundle restricted to the requests ``rids``.

    The input bundle is not modified; entry objects are shared where
    unchanged and rebuilt where a cross-epoch reference was rewritten.
    """
    keep: Set[str] = set(rids)
    out = Advice(isolation_level=advice.isolation_level)
    out.tags = {rid: tag for rid, tag in advice.tags.items() if rid in keep}
    out.handler_logs = {
        rid: list(log) for rid, log in advice.handler_logs.items() if rid in keep
    }
    out.response_emitted_by = {
        rid: emitter
        for rid, emitter in advice.response_emitted_by.items()
        if rid in keep
    }
    out.opcounts = {
        key: count for key, count in advice.opcounts.items() if key[0] in keep
    }
    out.nondet = {
        key: value for key, value in advice.nondet.items() if key[0] in keep
    }
    out.tx_windows = {
        key: window for key, window in advice.tx_windows.items() if key[0] in keep
    }
    out.variable_logs = {
        var_id: _slice_variable_log(log, keep)
        for var_id, log in advice.variable_logs.items()
    }
    # Drop variables whose log has no in-epoch entries: an empty log means
    # "no R-concurrent accesses", identical to the variable never being
    # touched this epoch.
    out.variable_logs = {v: log for v, log in out.variable_logs.items() if log}
    out.tx_logs = {
        (rid, tid): _slice_tx_log(log, keep)
        for (rid, tid), log in advice.tx_logs.items()
        if rid in keep
    }
    out.write_order = [pos for pos in advice.write_order if pos[0] in keep]
    return out


def _slice_variable_log(
    log: Dict[Tuple, VariableLogEntry], keep: Set[str]
) -> Dict[Tuple, VariableLogEntry]:
    out: Dict[Tuple, VariableLogEntry] = {}
    for key, entry in log.items():
        if key[0] not in keep:
            continue
        if entry.prec is not None and entry.prec[0] not in keep:
            entry = VariableLogEntry(entry.access, value=entry.value, prec=INIT_REF)
        out[key] = entry
    return out


def _slice_tx_log(log: List[TxLogEntry], keep: Set[str]) -> List[TxLogEntry]:
    out: List[TxLogEntry] = []
    for entry in log:
        if (
            entry.optype == TX_GET
            and isinstance(entry.opcontents, tuple)
            and len(entry.opcontents) == 3
            and entry.opcontents[0] not in keep
        ):
            entry = TxLogEntry(
                entry.hid, entry.opnum, entry.optype, key=entry.key, opcontents=None
            )
        out.append(entry)
    return out
