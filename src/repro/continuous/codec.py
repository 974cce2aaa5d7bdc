"""Wire format for sealed epochs.

One record stream per epoch (:mod:`repro.storage`): an epoch meta record,
then the trace segment's event records, then the advice slice's section
records -- the exact frames the trace and advice codecs emit, so there is
one per-entry encoding to validate.  :func:`iter_epochs_stored` loads
epochs *one at a time*, which is what keeps a continuous audit's memory
O(epoch) instead of O(trace).
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterator, List, Optional, Tuple

from repro.advice.codec import (
    ADVICE_RECORD_TYPES,
    AdviceAccumulator,
    iter_advice_frames,
)
from repro.advice.records import Advice
from repro.continuous.epoch import Epoch
from repro.errors import AdviceFormatError
from repro.storage.backend import RecordReader, StorageBackend
from repro.storage.records import encode_record, pack_json, unpack_json
from repro.trace.codec import RT_EVENT, decode_trace_event, encode_trace_event
from repro.trace.trace import Trace

EPOCH_FORMAT_VERSION = 1

STREAM_KIND = "epoch"

# Record types inside one epoch stream: the epoch meta record, the
# embedded trace-event records (repro.trace.codec.RT_EVENT), and the
# embedded advice frames (repro.advice.codec.ADVICE_RECORD_TYPES).
RT_EPOCH_META = 1

_EPOCH_STREAM = re.compile(r"^epoch-(\d+)$")


def _check_epoch_meta(doc: dict):
    index = doc.get("index")
    if not isinstance(index, int) or index < 0:
        raise AdviceFormatError("bad epoch index")
    rng = doc.get("binlog_range")
    if (
        not isinstance(rng, list)
        or len(rng) != 2
        or not all(isinstance(x, int) for x in rng)
    ):
        raise AdviceFormatError("bad epoch binlog range")
    return index, rng


def epoch_stream_name(index: int) -> str:
    return f"epoch-{index}"


def iter_epoch_content_frames(
    trace: Trace, advice: Optional[Advice]
) -> Iterator[Tuple[int, bytes]]:
    """The ``(rtype, payload)`` frames that carry an epoch's content: one
    per trace event, then the advice bundle's.  :func:`write_epoch_stored`
    appends exactly these after the meta record, and the plan's epoch
    digest (:func:`repro.verifier.dag.plan.epoch_digest`) hashes them --
    as does :func:`read_epoch_stream`, on their way in."""
    for event in trace:
        yield RT_EVENT, pack_json(encode_trace_event(event))
    if advice is not None:
        yield from iter_advice_frames(advice)


def write_epoch_stored(backend: StorageBackend, epoch: Epoch) -> str:
    """Persist one epoch as a record stream; returns the stream name."""
    name = epoch_stream_name(epoch.index)
    with backend.create(name, STREAM_KIND) as writer:
        writer.append(
            RT_EPOCH_META,
            pack_json(
                {
                    "version": EPOCH_FORMAT_VERSION,
                    "index": epoch.index,
                    "binlog_range": list(epoch.binlog_range),
                    "has_advice": epoch.advice is not None,
                }
            ),
        )
        for rtype, payload in iter_epoch_content_frames(epoch.trace, epoch.advice):
            writer.append(rtype, payload)
    return name


def read_epoch_stream(reader: RecordReader) -> Epoch:
    """Decode one epoch from its record stream (strict)."""
    if reader.kind != STREAM_KIND:
        raise AdviceFormatError(
            f"expected an {STREAM_KIND!r} stream, found {reader.kind!r}"
        )
    meta = None
    trace = Trace()
    accum: AdviceAccumulator = AdviceAccumulator()
    saw_advice = False
    content = hashlib.sha256()  # epoch_digest(), over the frames at rest
    for rtype, payload in reader:
        if rtype == RT_EPOCH_META:
            if meta is not None:
                raise AdviceFormatError("duplicate epoch meta record")
            meta = unpack_json(payload)
            if not isinstance(meta, dict) or meta.get("version") != EPOCH_FORMAT_VERSION:
                raise AdviceFormatError("unsupported epoch stream")
            continue
        if meta is None:
            raise AdviceFormatError("epoch stream has no meta record")
        content.update(encode_record(rtype, payload))
        if rtype == RT_EVENT:
            trace.append(decode_trace_event(unpack_json(payload)))
        elif rtype in ADVICE_RECORD_TYPES:
            if not meta.get("has_advice"):
                raise AdviceFormatError("advice records in an advice-less epoch")
            saw_advice = True
            accum.feed(rtype, payload)
        else:
            raise AdviceFormatError(f"unknown epoch record type {rtype}")
    if meta is None:
        raise AdviceFormatError("epoch stream has no meta record")
    index, rng = _check_epoch_meta(meta)
    if meta.get("has_advice"):
        if not saw_advice:
            raise AdviceFormatError("epoch stream promises advice but has none")
        advice = accum.finish()
    else:
        advice = None
    return Epoch(
        index=index,
        trace=trace.freeze(),
        advice=advice,
        binlog_range=(rng[0], rng[1]),
        content_digest=content.hexdigest(),
    )


def iter_epochs_stored(backend: StorageBackend) -> Iterator[Epoch]:
    """Yield stored epochs one at a time, ordered by index.

    Only one epoch's records are ever resident -- the generator the
    continuous auditor consumes to stay O(epoch) in memory.
    """
    found = []
    for name in backend.list_streams("epoch-"):
        match = _EPOCH_STREAM.match(name)
        if match is not None:
            found.append((int(match.group(1)), name))
    for _, name in sorted(found):
        with backend.reader(name) as reader:
            yield read_epoch_stream(reader)


def list_epoch_streams(backend: StorageBackend) -> List[str]:
    return [
        name
        for name in backend.list_streams("epoch-")
        if _EPOCH_STREAM.match(name) is not None
    ]
