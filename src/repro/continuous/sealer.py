"""Online epoch sealing (DESIGN.md §6).

The :class:`EpochSealer` attaches to a KEM runtime and watches the live
collector stream.  Once ``seal_every`` responses have been emitted since
the last cut, the serve loop stops admitting new requests, drains to a
quiescent point (no in-flight request, no pending activation, no open
store transaction -- :meth:`Runtime.quiescent`), and calls :meth:`seal`:
the events since the last cut become a frozen trace segment, the advice
recorded since the last cut (:meth:`ServerPolicy.advice_since_cut
<repro.kem.runtime.ServerPolicy.advice_since_cut>`) is sliced to exactly
those requests (:func:`repro.advice.slicing.slice_advice`), and the pair
is published as an :class:`~repro.continuous.epoch.Epoch` -- optionally
pushed into a ``sink`` (e.g. :meth:`ContinuousAuditor.submit
<repro.continuous.auditor.ContinuousAuditor.submit>`) so verification
starts while the server keeps serving.  However long the stream has
run, a seal costs O(epoch) and :meth:`seal_due` O(1).

Quiescence is what makes a cut *sound to audit in isolation*: nothing
spans the boundary except committed state, so the epoch's advice slice
plus the previous checkpoint fully determine its re-execution.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.advice.slicing import slice_advice
from repro.continuous.epoch import Epoch


class EpochSealer:
    """Cuts the live stream into epochs at quiescent points.

    ``seal_every=0`` never cuts mid-stream: :meth:`flush` seals the whole
    run as epoch 0.  It is also the only sealing a runtime without a
    quiescent drain hook (:class:`~repro.kem.threaded.ThreadedRuntime`)
    gets."""

    def __init__(
        self,
        seal_every: int,
        sink: Optional[Callable[[Epoch], None]] = None,
    ):
        if seal_every < 0:
            raise ValueError("seal_every must be >= 0")
        self.seal_every = seal_every
        self.sink = sink
        self.epochs: List[Epoch] = []
        self.runtime = None
        self._cut = 0  # first trace event index not yet sealed
        self._binlog_cut = 0
        self._responses_cut = 0  # the collector's response count at the cut

    def attach(self, runtime) -> "EpochSealer":
        """Register with ``runtime`` so its serve loop drains and seals."""
        self.runtime = runtime
        runtime.sealer = self
        return self

    # -- hooks called by Runtime.serve ------------------------------------

    def seal_due(self) -> bool:
        """True once the unsealed suffix holds ``seal_every`` responses."""
        if not self.seal_every:
            return False
        responses = self.runtime.collector.responses - self._responses_cut
        return responses >= self.seal_every

    def seal(self) -> Optional[Epoch]:
        """Cut an epoch at the current (quiescent) point.  Returns the new
        epoch, or None if nothing happened since the last cut."""
        runtime = self.runtime
        trace = runtime.collector.trace(live=True)
        segment = trace.slice(self._cut, len(trace.events))
        if not len(segment):
            return None
        rids: Set[str] = set(segment.request_ids())
        advice = runtime.policy.advice_since_cut(self._binlog_cut)
        if advice is not None:
            advice = slice_advice(advice, rids)
        binlog_len = (
            len(runtime.store.binlog) if runtime.store is not None else 0
        )
        epoch = Epoch(
            index=len(self.epochs),
            trace=segment,
            advice=advice,
            binlog_range=(self._binlog_cut, binlog_len),
        )
        self._cut = len(trace.events)
        self._binlog_cut = binlog_len
        self._responses_cut = runtime.collector.responses
        self.epochs.append(epoch)
        if self.sink is not None:
            self.sink(epoch)
        return epoch

    def flush(self) -> Optional[Epoch]:
        """Seal whatever remains after serving finished (the tail epoch).

        The runtime is quiescent once :meth:`Runtime.serve` returns, so
        the tail cut is as sound as any mid-stream cut.
        """
        return self.seal()
