"""Identifiers used throughout Karousos (paper Appendix C.1.2, section 5).

Three kinds of identity are in play and it is worth keeping them straight:

* :class:`HandlerId` -- the *structural* identity of a handler activation:
  ``(function_id, parent, opnum)`` where ``parent`` is the activating
  handler's HandlerId and ``opnum`` is the index of the activating operation
  within the parent.  HandlerIds are unique within a request and, crucially,
  *correspond across requests*: two requests that activate the same function
  from the same structural position produce equal HandlerIds.  This is what
  makes re-execution groups (section 4.1) possible.

* :class:`Label` -- the *runtime* identity the server assigns to a handler
  activation (section 5, "Testing A"): ``parent_label/num`` where ``num`` is
  the number of children the parent had already activated.  Two handlers are
  ordered by the activation partial order A iff one label is a prefix of the
  other.  Labels do NOT correspond across requests; they exist only so the
  online server can test A in O(depth).

* :class:`OpRef` -- a single operation: ``(rid, hid, opnum)``.  This is the
  node type of the verifier's execution graph G and the key type of variable
  logs.

Request ids (``rid``) are plain strings assigned by the collector; they are
globally unique by construction.  Transaction ids (:class:`TxId`) follow the
proof of Lemma 2 sub-lemma 2.3: ``tid = (hid, opnum)`` of the tx_start
operation, which both the online server and the re-executor compute
identically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


# Structurally equal ids handed out by :meth:`HandlerId.intern`, so the
# dicts keyed by them resolve probes by identity.  Holding values weakly
# keeps the table the size of the ids still alive somewhere: hostile
# advice can name any number of handlers, and a fleet daemon lives long.
# Purely a cache over immutable values; no result depends on it.
_INTERNED: "weakref.WeakValueDictionary[Tuple, HandlerId]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True, eq=False)
class HandlerId:
    """Structural handler identity ``(function_id, parent, opnum)``.

    ``parent is None`` marks a *request handler* (activated directly by a
    user request; its activator is the initialisation pseudo-handler I).

    Ids key nearly every verifier dict, so the structural hash -- which
    would recurse up the parent chain on every probe -- is taken once, at
    construction.  It depends on ``PYTHONHASHSEED`` and therefore never
    travels: pickling carries the three fields only (the same bytes as
    before the hash was kept, which advice sizing counts) and the
    receiving process hashes afresh.
    """

    function_id: str
    parent: Optional["HandlerId"] = None
    opnum: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.function_id, self.parent, self.opnum))
        )

    @classmethod
    def intern(
        cls, function_id: str, parent: Optional["HandlerId"] = None, opnum: int = 0
    ) -> "HandlerId":
        """The shared instance equal to ``HandlerId(function_id, parent,
        opnum)``.  With ``parent`` interned too, the lookup itself is one
        identity probe."""
        key = (function_id, parent, opnum)
        hid = _INTERNED.get(key)
        if hid is None:
            hid = _INTERNED[key] = cls(function_id, parent, opnum)
        return hid

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not HandlerId:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.opnum == other.opnum
            and self.function_id == other.function_id
            and self.parent == other.parent
        )

    def __getstate__(self) -> dict:
        return {
            "function_id": self.function_id,
            "parent": self.parent,
            "opnum": self.opnum,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def ancestors(self) -> Iterator["HandlerId"]:
        """Yield this handler's proper ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "HandlerId") -> bool:
        """True iff ``self`` is a proper ancestor of ``other`` in the
        activation tree (i.e. ``self <_A other`` within one request)."""
        return any(anc == self for anc in other.ancestors())

    def depth(self) -> int:
        return sum(1 for _ in self.ancestors())

    @property
    def is_request_handler(self) -> bool:
        return self.parent is None

    def canonical(self) -> Tuple:
        """A flat, hashable, order-comparable encoding used for digests."""
        parts = []
        node: Optional[HandlerId] = self
        while node is not None:
            parts.append((node.function_id, node.opnum))
            node = node.parent
        parts.reverse()
        return tuple(parts)

    def __repr__(self) -> str:
        path = ".".join(f"{f}@{i}" for f, i in self.canonical())
        return f"<hid {path}>"


@dataclass(frozen=True)
class Label:
    """Runtime handler label: a path of child indices from the request root.

    ``Label((0, 2))`` is the third child of the first child of the request
    handler.  Prefix testing implements the A-order check (section 5).
    """

    path: Tuple[int, ...] = ()

    def child(self, num: int) -> "Label":
        return Label(self.path + (num,))

    def is_prefix_of(self, other: "Label") -> bool:
        """True iff this label is a *proper* prefix of ``other``."""
        if len(self.path) >= len(other.path):
            return False
        return other.path[: len(self.path)] == self.path

    def __repr__(self) -> str:
        return "/".join(str(p) for p in self.path) or "/"


@dataclass(frozen=True)
class OpRef:
    """A reference to one operation: request id, handler id, op index.

    ``opnum`` counts a handler's operations from 1 (Appendix C.1.3); 0 and
    ``None`` never appear in logs -- the graph uses sentinel node tuples for
    handler start/end instead.
    """

    rid: str
    hid: HandlerId
    opnum: int

    def __repr__(self) -> str:
        return f"<op {self.rid}:{self.hid!r}#{self.opnum}>"


@dataclass(frozen=True)
class TxId:
    """Transaction id: the OpRef coordinates of the tx_start operation."""

    hid: HandlerId
    opnum: int

    def __repr__(self) -> str:
        return f"<tx {self.hid!r}#{self.opnum}>"


def make_rid(index: int) -> str:
    """Collector-style request ids: zero-padded so sort order == arrival."""
    return f"r{index:06d}"
