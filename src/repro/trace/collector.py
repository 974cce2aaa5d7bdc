"""The trusted collector (paper sections 1, 2.1, 2.2).

The collector sits logically in front of the server and records the ground
truth of what enters and leaves it.  In the original deployment this is a
TLS-terminating enclave or a bump-in-the-wire; here it is an in-process
observer that the KEM runtime notifies on request admission and response
emission.  The *trust* assumption is modelled by construction: the runtime
cannot rewrite history, only append, and adversarial servers in
``repro.attacks`` are modelled as producing bogus *responses and advice*,
never as corrupting the collector's record of what was actually sent.
"""

from __future__ import annotations

from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent


class Collector:
    """Appends REQ/RESP events in observation order.  The stored copy of
    the trace is the sealed epochs (:mod:`repro.continuous`), cut from
    :meth:`trace` with ``live=True``."""

    def __init__(self) -> None:
        self._trace = Trace()
        self._open = set()
        self.responses = 0  # RESP events so far (the sealer's count)

    def on_request(self, request: Request) -> None:
        if request.rid in self._open:
            raise ValueError(f"duplicate request id {request.rid}")
        self._open.add(request.rid)
        self._trace.append(TraceEvent(REQ, request.rid, request))

    def on_response(self, rid: str, data: object) -> None:
        if rid not in self._open:
            raise ValueError(f"response for unknown/finished request {rid}")
        self._open.remove(rid)
        self._trace.append(TraceEvent(RESP, rid, data))
        self.responses += 1

    @property
    def in_flight(self) -> int:
        return len(self._open)

    def trace(self, live: bool = False) -> Trace:
        """The trace collected so far.  Callers should only audit balanced
        traces (all requests answered); :meth:`Trace.is_balanced` checks.

        By default this is a *frozen snapshot*: later collection cannot
        mutate a trace already handed to an auditor.  ``live=True`` returns
        the growing trace itself -- the epoch sealer's escape hatch for
        watching the stream without copying it on every poll."""
        if live:
            return self._trace
        return self._trace.freeze()
