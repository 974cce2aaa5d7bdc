"""Wire format for traces.

The collector's trace travels from the collection point to the verifier;
like the advice codec, this is a strict encoding, versioned by the
epoch stream that carries it.  Note the trust model difference: the
*transport* is untrusted only for advice -- the trace must reach the
verifier over a channel the principal trusts (paper section 2.1) -- but
a strict parser is good hygiene either way.

A trace is stored only inside sealed epoch streams
(:mod:`repro.continuous.codec`): one record per event, in the frame this
module encodes and decodes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AdviceFormatError
from repro.storage.records import json_text
from repro.storage.values import TextEncoder, decode_value
from repro.trace.trace import REQ, RESP, Request, TraceEvent

# The event record's type inside an epoch stream (a stable wire
# identifier; the epoch meta record is 1).
RT_EVENT = 2


# -- one event ----------------------------------------------------------------


def trace_event_record(event: TraceEvent, enc: Optional[TextEncoder] = None) -> bytes:
    """One event's record payload: ``{"kind","rid","route","payload"}``
    for a request, ``{"kind","rid","data"}`` for a response."""
    enc, rid = enc or TextEncoder(), json_text(event.rid)
    if event.kind == REQ:
        request: Request = event.data
        return ('{"kind":"REQ","rid":%s,"route":%s,"payload":%s}' % (
            rid, json_text(request.route), enc.value(dict(request.payload))
        )).encode()
    return ('{"kind":"RESP","rid":%s,"data":%s}' % (rid, enc.value(event.data))).encode()


def decode_trace_event(event: object) -> TraceEvent:
    if not isinstance(event, dict) or not isinstance(event.get("rid"), str):
        raise AdviceFormatError(f"bad trace event: {event!r}")
    if event.get("kind") == REQ:
        payload_value = decode_value(event.get("payload"))
        if not isinstance(payload_value, dict) or not all(
            isinstance(name, str) for name in payload_value
        ):
            raise AdviceFormatError("request payload must map names to values")
        if not isinstance(event.get("route"), str):
            raise AdviceFormatError("request route must be a string")
        return TraceEvent(
            REQ,
            event["rid"],
            Request.make(event["rid"], event["route"], **payload_value),
        )
    if event.get("kind") == RESP:
        return TraceEvent(RESP, event["rid"], decode_value(event.get("data")))
    raise AdviceFormatError(f"unknown trace event kind {event.get('kind')!r}")
