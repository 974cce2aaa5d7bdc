"""Epochs: sealed segments of the serving stream (DESIGN.md §6).

An :class:`Epoch` is one self-contained unit of continuous auditing: a
frozen, balanced trace segment, the matching advice slice, and the
half-open binlog sub-range ``[binlog_range[0], binlog_range[1])`` of
store writes installed during the segment.

Epochs come from two places:

* the online :class:`~repro.continuous.sealer.EpochSealer`, which cuts
  the live stream at quiescent points while the server keeps serving;
* :func:`slice_epochs`, which re-cuts a complete trace/advice pair
  offline.  Offline cuts are placed at *balanced* trace points; those
  coincide with quiescent points exactly when the trace was served with
  sealing enabled (the serve loop drains pending work before each cut,
  and drained cuts are the only balanced points such a schedule
  produces).  Slicing a trace served without sealing can cut where a
  responded request still had live activations; the audit of such a
  slice stays *sound* (nothing is trusted besides the trace and the
  previous checkpoint) but may reject an honest server -- hence the CLI
  pairs ``audit --epochs`` with ``serve --seal-every``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.advice.records import Advice
from repro.advice.slicing import slice_advice
from repro.trace.trace import REQ, RESP, Trace


@dataclass(frozen=True)
class Epoch:
    """One sealed segment of the serving stream.

    ``content_digest`` is set only by the reader of a stored epoch
    (:func:`repro.continuous.codec.read_epoch_stream`): SHA-256 over the
    trace and advice frames as they lay at rest, i.e.
    :func:`repro.verifier.dag.plan.epoch_digest` without re-encoding what
    was just decoded.  An epoch built in memory has none.
    """

    index: int
    trace: Trace
    advice: Optional[Advice]
    binlog_range: Tuple[int, int] = (0, 0)
    content_digest: Optional[str] = field(default=None, compare=False)

    def request_ids(self) -> List[str]:
        return self.trace.request_ids()

    @property
    def request_count(self) -> int:
        return len(self.trace.request_ids())

    def __repr__(self) -> str:
        return (
            f"<Epoch {self.index}: {self.request_count} requests, "
            f"{len(self.trace)} events>"
        )


def balanced_cuts(trace: Trace, epoch_size: int) -> List[int]:
    """Event indices at which ``trace`` can be cut into balanced segments
    of at least ``epoch_size`` responses each (the final cut is always
    ``len(trace)``)."""
    if epoch_size < 1:
        raise ValueError("epoch_size must be >= 1")
    cuts: List[int] = []
    open_rids: Set[str] = set()
    responses = 0
    for i, event in enumerate(trace.events):
        if event.kind == REQ:
            open_rids.add(event.rid)
        elif event.kind == RESP:
            open_rids.discard(event.rid)
            responses += 1
        if not open_rids and responses >= epoch_size:
            cuts.append(i + 1)
            responses = 0
    if not cuts or cuts[-1] != len(trace.events):
        cuts.append(len(trace.events))
    return cuts


def slice_epochs(
    trace: Trace, advice: Optional[Advice], epoch_size: int
) -> List[Epoch]:
    """Re-cut a complete trace/advice pair into epochs offline.

    Segments are balanced sub-traces of at least ``epoch_size`` responses
    (the tail may be shorter); each gets the advice slice of its request
    ids.  See the module docstring for when offline cuts are quiescent.
    """
    epochs: List[Epoch] = []
    start = 0
    for index, stop in enumerate(balanced_cuts(trace, epoch_size)):
        segment = trace.slice(start, stop)
        start = stop
        if not len(segment):
            continue
        rids = set(segment.request_ids())
        sliced = slice_advice(advice, rids) if advice is not None else None
        epochs.append(Epoch(index=len(epochs), trace=segment, advice=sliced))
    return epochs
