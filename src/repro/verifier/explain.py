"""Time-travel REJECT diagnosis: turn a rejection into a divergence report.

A bare ``REJECT(reason)`` tells an operator *that* the server misbehaved,
not *where*.  This module replays a rejected epoch with
singleton groups -- every request re-executed in its own group, in epoch
arrival order -- so the rejection localises to the **first diverging
operation** rather than to whatever grouped batch happened to trip the
check.  The structured ``site`` payload carried by
:class:`~repro.errors.AuditRejected` (and surfaced on
:class:`~repro.verifier.audit.AuditResult`) then pins the handler,
operation number, variable/key, and the expected-vs-claimed values; the
reporter walks the advice's own precedence links (variable-log ``prec``
chains, transaction-log dictating-write references) to reconstruct the
causal chain that fed the diverging operation.

The report renders as text (``audit --explain``) and as JSON (stable
keys, repr-sanitised values) so both operators and tooling can consume
it.  Reports are best-effort by construction: the audit's soundness never
depends on them -- a rejection with no site still rejects, it just
explains less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.advice.records import TX_GET, TX_PUT, Advice
from repro.kem.program import AppSpec
from repro.server.variables import INIT_REF
from repro.verifier.audit import Auditor, AuditResult, jsonable

# Precedence chains are advice-controlled; never follow them unboundedly.
MAX_CHAIN = 8


@dataclass
class DivergenceReport:
    """Where the audit and the advice part ways, in operator terms."""

    reason: str
    detail: str = ""
    stage: str = ""
    # True when the singleton replay reproduced the rejection, i.e. the
    # coordinates below name the first diverging operation in epoch
    # arrival order (not an artifact of grouped batching).
    localized: bool = False
    epoch: Optional[int] = None
    rid: Optional[str] = None
    handler: Optional[object] = None
    opnum: Optional[int] = None
    var: Optional[str] = None
    key: Optional[str] = None
    tx: Optional[object] = None
    expected: Optional[object] = None
    claimed: Optional[object] = None
    # The causal chain feeding the diverging op, newest first: each link
    # is a dict with at least an ``op`` coordinate.
    chain: List[Dict[str, object]] = field(default_factory=list)
    cycle: Optional[object] = None

    @property
    def empty(self) -> bool:
        """No coordinates beyond the bare reason -- nothing was pinned."""
        return all(
            v is None
            for v in (self.rid, self.handler, self.var, self.key, self.tx, self.cycle)
        )

    def as_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "reason": self.reason,
            "detail": self.detail,
            "stage": self.stage,
            "localized": self.localized,
        }
        for name in ("epoch", "rid", "opnum", "var", "key"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = jsonable(value)
        for name in ("handler", "tx", "expected", "claimed", "cycle"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = jsonable(value)
        if self.chain:
            doc["chain"] = jsonable(self.chain)
        return doc

    def as_text(self) -> str:
        lines = [f"REJECT({self.reason}) in stage {self.stage or '?'}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        where = []
        if self.epoch is not None:
            where.append(f"epoch {self.epoch}")
        if self.rid is not None:
            where.append(f"request {self.rid}")
        if self.handler is not None:
            where.append(f"handler {self.handler!r}")
        if self.opnum is not None:
            where.append(f"op {self.opnum}")
        if where:
            qualifier = "first diverging operation" if self.localized else "at"
            lines.append(f"  {qualifier}: " + ", ".join(where))
        if self.var is not None:
            lines.append(f"  variable: {self.var!r}")
        if self.key is not None:
            lines.append(f"  store key: {self.key!r}")
        if self.tx is not None:
            lines.append(f"  transaction: {self.tx!r}")
        if self.expected is not None or self.claimed is not None:
            lines.append(f"  re-execution produced: {self.expected!r}")
            lines.append(f"  advice claims:        {self.claimed!r}")
        if self.cycle is not None:
            lines.append(f"  cycle: {self.cycle!r}")
        for i, link in enumerate(self.chain):
            arrow = "fed by" if i == 0 else "       "
            desc = ", ".join(f"{k}={v!r}" for k, v in link.items())
            lines.append(f"  {arrow} {desc}")
        if self.empty:
            lines.append("  (no operation pinned; rejection is structural)")
        return "\n".join(lines)


def _variable_chain(advice: Advice, var: str, start: object) -> List[Dict[str, object]]:
    """Walk the variable log's ``prec`` links back from ``start``."""
    log = advice.variable_logs.get(var, {})
    chain: List[Dict[str, object]] = []
    seen = set()
    cursor = start
    while cursor is not None and len(chain) < MAX_CHAIN:
        if cursor in seen:
            chain.append({"op": cursor, "note": "prec cycle"})
            break
        seen.add(cursor)
        entry = log.get(cursor) if isinstance(cursor, tuple) else None
        link: Dict[str, object] = {"op": cursor}
        if cursor == INIT_REF:
            link["note"] = "initial value"
        if entry is None:
            if cursor != INIT_REF:
                link["note"] = "not in advice log"
            chain.append(link)
            break
        link["access"] = entry.access
        if entry.access == "write":
            link["value"] = entry.value
        chain.append(link)
        cursor = entry.prec
    return chain


def _tx_chain(advice: Advice, start: object) -> List[Dict[str, object]]:
    """Walk dictating-write links back from a tx-log position.

    From a GET, step to its dictating PUT (``opcontents``); from a PUT,
    step to the nearest earlier GET of the same key in the same
    transaction (the value the PUT derived from), then recurse.
    """
    chain: List[Dict[str, object]] = []
    seen = set()
    cursor = start
    while cursor is not None and len(chain) < MAX_CHAIN:
        if not (isinstance(cursor, tuple) and len(cursor) == 3):
            break
        if cursor in seen:
            chain.append({"op": cursor, "note": "reference cycle"})
            break
        seen.add(cursor)
        rid, tid, i = cursor
        log = advice.tx_logs.get((rid, tid))
        if log is None or not 0 <= i < len(log):
            chain.append({"op": cursor, "note": "dangling reference"})
            break
        entry = log[i]
        link: Dict[str, object] = {"op": cursor, "optype": entry.optype}
        if entry.key is not None:
            link["key"] = entry.key
        nxt = None
        if entry.optype == TX_GET:
            if entry.opcontents is None:
                link["note"] = "initial store state"
            else:
                nxt = entry.opcontents
        elif entry.optype == TX_PUT:
            link["value"] = entry.opcontents
            for j in range(i - 1, -1, -1):
                prev = log[j]
                if prev.optype == TX_GET and prev.key == entry.key:
                    nxt = (rid, tid, j)
                    break
        chain.append(link)
        cursor = nxt
    return chain


def report_from_result(
    result: AuditResult,
    advice: Optional[Advice] = None,
    localized: bool = False,
    epoch: Optional[int] = None,
) -> DivergenceReport:
    """Shape a rejecting :class:`AuditResult` into a report, walking the
    advice's precedence links when the site names a variable or store op."""
    if result.accepted:
        raise ValueError("cannot explain an accepted audit")
    site = result.site or {}
    report = DivergenceReport(
        reason=result.reason,
        detail=result.detail,
        stage=result.stage,
        localized=localized,
        epoch=epoch,
        rid=site.get("rid"),
        handler=site.get("handler"),
        opnum=site.get("opnum"),
        var=site.get("var"),
        key=site.get("key"),
        tx=site.get("tx"),
        expected=site.get("expected"),
        claimed=site.get("claimed"),
        cycle=site.get("cycle"),
    )
    if advice is None:
        return report
    prec = site.get("prec")
    if report.var is not None:
        start = prec
        if start is None and None not in (report.rid, report.handler, report.opnum):
            start = (report.rid, report.handler, report.opnum)
        if start is not None:
            report.chain = _variable_chain(advice, report.var, start)
    elif isinstance(report.tx, tuple) and len(report.tx) == 3:
        report.chain = _tx_chain(advice, prec if prec is not None else report.tx)
    elif prec is not None:
        report.chain = [{"op": prec}]
    return report


def explain_rejection(
    app: AppSpec,
    epoch: object,
    parent: Optional[object],
    result: AuditResult,
) -> DivergenceReport:
    """Localise the divergence behind ``result``, the rejecting grouped
    audit of ``epoch`` (a sealed epoch, audited from ``parent``, the
    verified checkpoint before it; None at genesis) the caller already
    ran.

    Replays :meth:`Auditor.for_epoch` with ``singleton_groups=True``
    (each request its own group, epoch arrival order) so the
    re-execution stops at the first diverging operation.  Some
    rejections are artifacts of *grouping* (e.g. a deduplicated group
    whose members disagree) and vanish under singleton replay; those
    report ``result`` itself, marked ``localized=False``.
    """
    singleton = Auditor.for_epoch(app, epoch, parent, singleton_groups=True).run()
    localized = not singleton.accepted
    return report_from_result(
        singleton if localized else result, epoch.advice,
        localized=localized, epoch=epoch.index,
    )
