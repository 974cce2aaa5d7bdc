"""Epochs: sealed segments of the serving stream (DESIGN.md §6).

An :class:`Epoch` is one self-contained unit of continuous auditing: a
frozen, balanced trace segment, the matching advice slice, and the
half-open binlog sub-range ``[binlog_range[0], binlog_range[1])`` of
store writes installed during the segment.

Epochs have one producer: the :class:`~repro.continuous.sealer.EpochSealer`,
which cuts the live stream at quiescent points while the server keeps
serving (``serve --seal-every N`` stores them).  An audit takes each
period exactly as the server recorded it.  A recorded run is never
re-cut after the fact: a balanced point of a trace need not be a
quiescent point of its execution (a responded request may still have
had live activations there), and an epoch cut at such a point can make
an honest run REJECT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.advice.records import Advice
from repro.trace.trace import Trace


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
