"""Execution histories for isolation testing.

A history comprises, per Adya (and paper section 4.4):

(a) the *TxOp order*: per-transaction operation lists preserving each
    transaction's internal order, with the dictating write of each read
    recorded as a ``(tid, op_index)`` pair; and
(b) a *version order*: for each key, the total order of committed versions,
    again as ``(tid, op_index)`` pairs.

Transaction ids are opaque hashables; the verifier uses ``(rid, TxId)``
pairs while unit tests use short strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

WriteRef = Tuple[object, int]  # (tid, index of the PUT in that tx's ops)


class OpKind(enum.Enum):
    START = "tx_start"
    COMMIT = "tx_commit"
    ABORT = "tx_abort"
    PUT = "PUT"
    GET = "GET"


@dataclass(frozen=True)
class HOp:
    """One transactional operation.

    ``observed`` is meaningful only for GETs: the WriteRef of the dictating
    PUT, or ``None`` for a read of the initial (never-written) state.
    ``value`` is meaningful only for PUTs.
    """

    kind: OpKind
    key: Optional[str] = None
    value: object = None
    observed: Optional[WriteRef] = None


@dataclass
class HTransaction:
    tid: object
    ops: List[HOp] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return bool(self.ops) and self.ops[-1].kind is OpKind.COMMIT

    @property
    def aborted(self) -> bool:
        return bool(self.ops) and self.ops[-1].kind is OpKind.ABORT

    def last_write_index(self, key: str) -> Optional[int]:
        """Index of this transaction's final PUT to ``key``, if any."""
        last = None
        for i, op in enumerate(self.ops):
            if op.kind is OpKind.PUT and op.key == key:
                last = i
        return last

    def reads(self) -> List[Tuple[int, HOp]]:
        return [(i, op) for i, op in enumerate(self.ops) if op.kind is OpKind.GET]

    def writes(self) -> List[Tuple[int, HOp]]:
        return [(i, op) for i, op in enumerate(self.ops) if op.kind is OpKind.PUT]


@dataclass
class History:
    """Transactions plus the per-key version order of committed writes."""

    transactions: Dict[object, HTransaction] = field(default_factory=dict)
    version_order: Dict[str, List[WriteRef]] = field(default_factory=dict)

    def add(self, tx: HTransaction) -> None:
        self.transactions[tx.tid] = tx

    def committed(self) -> List[HTransaction]:
        return [t for t in self.transactions.values() if t.committed]

    def tx(self, tid: object) -> HTransaction:
        return self.transactions[tid]
