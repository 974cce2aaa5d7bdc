"""Wire format for traces.

The collector's trace travels from the collection point to the verifier;
like the advice codec, this is a strict, versioned encoding.  Note the
trust model difference: the *transport* is untrusted only for advice --
the trace must reach the verifier over a channel the principal trusts
(paper section 2.1) -- but a strict parser is good hygiene either way.

A trace is a record stream (:mod:`repro.storage`): one meta record then
one record per event, written incrementally (the collector spills events
as it logs them) and consumed as an iterator (the verifier never needs a
serialised whole in memory).  Epoch streams embed the same event frames.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import AdviceFormatError
from repro.storage.backend import RecordReader, RecordWriter, StorageBackend
from repro.storage.records import pack_json, unpack_json
from repro.storage.values import decode_value, encode_value
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent

TRACE_FORMAT_VERSION = 1

STREAM_KIND = "trace"

# Record types (stable wire identifiers; epoch streams embed RT_EVENT).
RT_META = 1
RT_EVENT = 2


# -- one event ----------------------------------------------------------------


def encode_trace_event(event: TraceEvent) -> dict:
    if event.kind == REQ:
        request: Request = event.data
        return {
            "kind": REQ,
            "rid": event.rid,
            "route": request.route,
            "payload": encode_value(dict(request.payload)),
        }
    return {"kind": RESP, "rid": event.rid, "data": encode_value(event.data)}


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


# -- record streams ------------------------------------------------------------


def trace_meta_record() -> bytes:
    return pack_json({"version": TRACE_FORMAT_VERSION})


def check_trace_meta(payload: bytes) -> None:
    doc = unpack_json(payload)
    if not isinstance(doc, dict) or doc.get("version") != TRACE_FORMAT_VERSION:
        raise AdviceFormatError(f"unsupported trace stream meta {doc!r}")


def write_trace_records(
    events: Iterable[TraceEvent], writer: RecordWriter, seal: bool = True
) -> None:
    """Spill ``events`` into ``writer`` one record at a time."""
    writer.append(RT_META, trace_meta_record())
    for event in events:
        writer.append(RT_EVENT, pack_json(encode_trace_event(event)))
    if seal:
        writer.seal()


def iter_trace_records(reader: RecordReader) -> Iterator[TraceEvent]:
    """Decode a trace record stream incrementally.

    The verifier can consume this generator directly; nothing but the
    current record is resident.  Structural surprises raise
    :class:`AdviceFormatError`-family errors.
    """
    if reader.kind != STREAM_KIND:
        raise AdviceFormatError(
            f"expected a {STREAM_KIND!r} stream, found {reader.kind!r}"
        )
    saw_meta = False
    for rtype, payload in reader:
        if rtype == RT_META:
            if saw_meta:
                raise AdviceFormatError("duplicate trace meta record")
            check_trace_meta(payload)
            saw_meta = True
        elif rtype == RT_EVENT:
            if not saw_meta:
                raise AdviceFormatError("trace stream has no meta record")
            yield decode_trace_event(unpack_json(payload))
        else:
            raise AdviceFormatError(f"unknown trace record type {rtype}")
    if not saw_meta:
        raise AdviceFormatError("trace stream has no meta record")


def write_trace(backend: StorageBackend, name: str, trace: Trace) -> None:
    write_trace_records(trace, backend.create(name, STREAM_KIND))


def read_trace(backend: StorageBackend, name: str) -> Trace:
    """Materialise a stored trace (callers that can, should prefer
    :func:`iter_trace_records`)."""
    with backend.reader(name) as reader:
        return Trace(list(iter_trace_records(reader)))
