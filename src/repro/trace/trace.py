"""Request/response traces (paper Definition 1).

A trace is the ground-truth, chronologically ordered list of request and
response events observed by the trusted collector.  A request event is
``(REQ, rid, x)``; a response event is ``(RESP, rid, y)``.  The verifier
treats the trace as trusted; everything else (the advice) is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

REQ = "REQ"
RESP = "RESP"


@dataclass(frozen=True)
class Request:
    """A client request: globally unique id, route, and input payload."""

    rid: str
    route: str
    payload: Tuple[Tuple[str, object], ...]

    @classmethod
    def make(cls, rid: str, route: str, **payload: object) -> "Request":
        return cls(rid, route, tuple(sorted(payload.items())))

    def payload_dict(self) -> Dict[str, object]:
        return dict(self.payload)

    @property
    def inputs(self) -> Dict[str, object]:
        return dict(self.payload)


@dataclass(frozen=True)
class TraceEvent:
    """One collector observation: kind is REQ or RESP."""

    kind: str
    rid: str
    data: object


@dataclass
class Trace:
    """Chronological list of trace events plus request lookup helpers.

    A *frozen* trace is an immutable snapshot: appends raise.  The
    collector hands frozen snapshots to auditors so later serving cannot
    mutate a trace already under audit; the epoch sealer uses the live
    view (``Collector.trace(live=True)``) to watch the stream grow.
    """

    events: List[TraceEvent] = field(default_factory=list)
    frozen: bool = field(default=False, compare=False)
    # (kind, rid) -> first such event's data; built on the first lookup
    # of a frozen trace (a live one still grows, so it scans).
    _by_rid: Optional[Dict[Tuple[str, str], object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def append(self, event: TraceEvent) -> None:
        if self.frozen:
            raise TypeError("cannot append to a frozen trace snapshot")
        self.events.append(event)

    def freeze(self) -> "Trace":
        """An immutable snapshot of the current events (self, if already
        frozen)."""
        if self.frozen:
            return self
        return Trace(list(self.events), frozen=True)

    def slice(self, start: int, stop: int) -> "Trace":
        """A frozen sub-trace of events ``[start:stop)`` (epoch segment)."""
        return Trace(self.events[start:stop], frozen=True)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def request_ids(self) -> List[str]:
        return [e.rid for e in self.events if e.kind == REQ]

    def requests(self) -> List[Request]:
        return [e.data for e in self.events if e.kind == REQ]

    def request(self, rid: str) -> Request:
        return self._lookup(REQ, rid)

    def response(self, rid: str) -> object:
        return self._lookup(RESP, rid)

    def _lookup(self, kind: str, rid: str) -> object:
        if not self.frozen:
            for e in self.events:
                if e.kind == kind and e.rid == rid:
                    return e.data
            raise KeyError(rid)
        if self._by_rid is None:
            index: Dict[Tuple[str, str], object] = {}
            for e in self.events:
                index.setdefault((e.kind, e.rid), e.data)
            self._by_rid = index
        try:
            return self._by_rid[(kind, rid)]
        except KeyError:
            raise KeyError(rid) from None

    def responses(self) -> Dict[str, object]:
        return {e.rid: e.data for e in self.events if e.kind == RESP}

    def is_balanced(self) -> bool:
        """Every request has exactly one response that follows its arrival,
        and no response lacks a request (Figure 14 line 19)."""
        pending: Dict[str, bool] = {}
        seen_resp: Dict[str, bool] = {}
        for e in self.events:
            if e.kind == REQ:
                if e.rid in pending or e.rid in seen_resp:
                    return False
                pending[e.rid] = True
            elif e.kind == RESP:
                if e.rid not in pending or e.rid in seen_resp:
                    return False
                seen_resp[e.rid] = True
            else:
                return False
        return len(pending) == len(seen_resp)

    @classmethod
    def from_events(cls, events: "TraceLike") -> "Trace":
        """Normalise a trace-like input: a :class:`Trace` passes through,
        any iterable of :class:`TraceEvent` (e.g. the storage layer's
        :func:`~repro.trace.codec.iter_trace_records` generator) is
        drained into a frozen trace.  This is how the verifier consumes a
        record stream without the codec materialising a list first."""
        if isinstance(events, Trace):
            return events
        return cls(list(events), frozen=True)

    def with_response(self, rid: str, data: object) -> "Trace":
        """A copy with ``rid``'s response replaced -- models a server that
        sent a different (bogus) response, for soundness tests."""
        out = Trace()
        for e in self.events:
            if e.kind == RESP and e.rid == rid:
                out.append(TraceEvent(RESP, rid, data))
            else:
                out.append(e)
        return out


# Anything the verifier accepts where a trace is expected: a Trace, or a
# (possibly lazy) iterable of events.  Normalised via Trace.from_events.
TraceLike = Union[Trace, Iterable[TraceEvent]]
