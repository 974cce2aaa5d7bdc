"""The execution graph G over dense integer node ids.

G (Figures 14-16, 21) has one node per request arrival and response
delivery, and per executed handler one node per operation plus an end
node.  Preprocessing knows every node up front, so ids are handed out in
contiguous blocks:

* each trace request gets an arrival id ``r`` and a response id ``r + 1``;
* each ``(rid, hid)`` of the advice's opcounts gets ``op 0 .. op count``
  followed by ``end``.

Inside a block (and from arrival to response) the edge ``k -> k + 1`` is
program order: it is implicit, flagged by one byte per node, and never
stored.  Every other edge goes into int adjacency lists; duplicates --
including an explicit copy of an implicit edge -- are coalesced, so
:attr:`node_count` and :attr:`edge_count` are those of the same graph
built edge by edge over node tuples.

A coordinate outside every block (a variable log may name any
``(rid, hid, opnum)``) becomes a node of its own, as it would in a
tuple-keyed graph.

Acyclicity is one Kahn pass over an in-degree array kept up to date as
edges are inserted.  Only when nodes remain -- a REJECT -- does a DFS over
them build a witness cycle, reported in the node tuples of
:mod:`repro.verifier.nodes` that ``explain`` and the goldens read.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.core.ids import HandlerId
from repro.verifier.nodes import (
    END_NODE,
    OP_NODE,
    REQ_NODE,
    RESP_NODE,
    node_end,
    node_op,
    node_req,
    node_resp,
)

# An explicit edge is keyed ``src << _SHIFT | dst`` (ids stay far below
# 2**32).
_SHIFT = 32


def _as_opnum(opnum: object) -> Optional[int]:
    """The int equal to ``opnum`` (as a tuple-keyed graph would compare
    it), or ``None``."""
    if type(opnum) is int:
        return opnum
    try:
        k = int(opnum)
    except (TypeError, ValueError, OverflowError):
        return None
    return k if k == opnum else None


class ExecutionGraph:
    """G with dense int ids, implicit program order and one Kahn pass."""

    __slots__ = (
        "_req", "_blocks", "_foreign", "_bases", "_spans",
        "_succ", "_indeg", "_po", "_keys", "_implicit",
    )

    def __init__(self) -> None:
        self._req: Dict[str, int] = {}
        # (rid, hid) -> (base id, opcount)
        self._blocks: Dict[Tuple[str, HandlerId], Tuple[int, int]] = {}
        self._foreign: Dict[Tuple, int] = {}
        # Id ranges in allocation order, for naming an id: a span is
        # (rid,) for a request pair, (rid, hid, count) for a block, or a
        # foreign node's tuple (four items).
        self._bases: List[int] = []
        self._spans: List[Tuple] = []
        self._succ: List[Optional[List[int]]] = []
        self._indeg: List[int] = []
        self._po = bytearray()  # 1 where k -> k + 1 is implicit
        self._keys: Set[int] = set()  # explicit edges, src << _SHIFT | dst
        self._implicit = 0

    # -- allocation ----------------------------------------------------------

    def add_request(self, rid: str) -> int:
        """Arrival and response nodes of ``rid``; returns the arrival id
        (the response is the next id, joined by an implicit edge)."""
        base = len(self._indeg)
        self._req[rid] = base
        self._bases.append(base)
        self._spans.append((rid,))
        self._succ += (None, None)
        self._indeg += (0, 1)
        self._po += b"\x01\x00"
        self._implicit += 1
        return base

    def add_block(self, rid: str, hid: HandlerId, count: int) -> int:
        """Nodes ``op 0 .. op count, end`` of handler ``(rid, hid)``;
        returns the id of op 0."""
        base = len(self._indeg)
        self._blocks[(rid, hid)] = (base, count)
        self._bases.append(base)
        self._spans.append((rid, hid, count))
        size = count + 2
        self._succ += [None] * size
        self._indeg.append(0)
        self._indeg += [1] * (size - 1)
        self._po += b"\x01" * (size - 1)
        self._po.append(0)
        self._implicit += size - 1
        return base

    def _add_foreign(self, node: Tuple) -> int:
        i = len(self._indeg)
        self._foreign[node] = i
        self._bases.append(i)
        self._spans.append(node)
        self._succ.append(None)
        self._indeg.append(0)
        self._po.append(0)
        return i

    # -- id lookup -------------------------------------------------------------

    def has_request(self, rid: str) -> bool:
        return rid in self._req

    def req(self, rid: str) -> int:
        return self._req[rid]

    def resp(self, rid: str) -> int:
        return self._req[rid] + 1

    def block(self, rid: str, hid: HandlerId) -> Optional[Tuple[int, int]]:
        """``(id of op 0, opcount)`` of a handler, or ``None``."""
        return self._blocks.get((rid, hid))

    def op(self, rid: str, hid: HandlerId, opnum: object) -> int:
        """The id of operation ``(rid, hid, opnum)``, a new node if it lies
        in no block."""
        block = self._blocks.get((rid, hid))
        if block is not None:
            k = opnum if type(opnum) is int else _as_opnum(opnum)
            if k is not None and 0 <= k <= block[1]:
                return block[0] + k
        node = node_op(rid, hid, opnum)
        i = self._foreign.get(node)
        return self._add_foreign(node) if i is None else i

    def _find(self, node: Tuple) -> Optional[int]:
        """The id of a node tuple, or ``None`` if it is not in G."""
        kind = node[0]
        if kind == REQ_NODE or kind == RESP_NODE:
            i = self._req.get(node[1])
            return None if i is None else i + (kind == RESP_NODE)
        if kind == OP_NODE:
            block = self._blocks.get(node[1:3])
            if block is not None:
                k = _as_opnum(node[3])
                if k is not None and 0 <= k <= block[1]:
                    return block[0] + k
        elif kind == END_NODE:
            block = self._blocks.get(node[1:3])
            if block is not None:
                return block[0] + block[1] + 1
        return self._foreign.get(node)

    def name(self, i: int) -> Tuple:
        """The node tuple of id ``i``."""
        j = bisect_right(self._bases, i) - 1
        span, off = self._spans[j], i - self._bases[j]
        if len(span) == 1:
            return node_resp(span[0]) if off else node_req(span[0])
        if len(span) == 3:
            rid, hid, count = span
            return node_end(rid, hid) if off > count else node_op(rid, hid, off)
        return span

    # -- edges -------------------------------------------------------------------

    def add_edge(self, src: int, dst: int) -> None:
        if dst == src + 1 and self._po[src]:
            return
        key = src << _SHIFT | dst
        keys = self._keys
        if key in keys:
            return
        keys.add(key)
        out = self._succ[src]
        if out is None:
            self._succ[src] = [dst]
        else:
            out.append(dst)
        self._indeg[dst] += 1

    def _successors(self, i: int) -> List[int]:
        out = list(self._succ[i] or ())
        if self._po[i]:
            out.append(i + 1)
        return out

    # -- the tuple view tests read ---------------------------------------------

    def __contains__(self, node: Tuple) -> bool:
        return self._find(node) is not None

    def has_edge(self, src: Tuple, dst: Tuple) -> bool:
        a, b = self._find(src), self._find(dst)
        if a is None or b is None:
            return False
        return (b == a + 1 and bool(self._po[a])) or (a << _SHIFT | b) in self._keys

    def reachable_from(self, node: Tuple) -> Set[Tuple]:
        """All nodes reachable from ``node`` (excluding it unless cyclic)."""
        start = self._find(node)
        if start is None:
            return set()
        seen: Set[int] = set()
        frontier = self._successors(start)
        while frontier:
            cur = frontier.pop()
            if cur not in seen:
                seen.add(cur)
                frontier += self._successors(cur)
        return {self.name(i) for i in seen}

    @property
    def node_count(self) -> int:
        return len(self._indeg)

    @property
    def edge_count(self) -> int:
        return self._implicit + len(self._keys)

    # -- acyclicity ----------------------------------------------------------------

    def _kahn(self) -> List[int]:
        """In-degrees left after removing every node no cycle feeds: all
        zero iff G is acyclic."""
        indeg = self._indeg[:]
        succ, po = self._succ, self._po
        stack = [i for i, d in enumerate(indeg) if not d]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            while True:
                out = succ[node]
                if out is not None:
                    for m in out:
                        d = indeg[m] - 1
                        indeg[m] = d
                        if not d:
                            push(m)
                if not po[node]:
                    break
                # Follow program order without a stack round trip.
                node += 1
                d = indeg[node] - 1
                indeg[node] = d
                if d:
                    break
        return indeg

    def find_cycle(self) -> Optional[List[Tuple]]:
        """Some cycle as node tuples in edge order (``[a, b, c]`` for
        ``a -> b -> c -> a``), or ``None`` if G is acyclic."""
        indeg = self._kahn()
        if not any(indeg):
            return None
        # Every remaining node lies on or downstream of a cycle; a
        # three-colour DFS over them finds one.
        WHITE, GREY, BLACK = 0, 1, 2
        colour = [BLACK if not d else WHITE for d in indeg]
        parent: Dict[int, int] = {}
        for root, c in enumerate(colour):
            if c != WHITE:
                continue
            colour[root] = GREY
            stack = [(root, iter(self._successors(root)))]
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(self._successors(nxt))))
                        break
                    if colour[nxt] == GREY:
                        cycle = [node]
                        while node != nxt:
                            node = parent[node]
                            cycle.append(node)
                        cycle.reverse()
                        return [self.name(i) for i in cycle]
                else:
                    colour[node] = BLACK
                    stack.pop()
        raise AssertionError("Kahn left nodes but no cycle was found")

    def is_acyclic(self) -> bool:
        return not any(self._kahn())
