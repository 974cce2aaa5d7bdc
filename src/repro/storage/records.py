"""The record-stream wire format shared by every persistence surface.

A *record stream* is a stream header followed by zero or more framed
records.  It is the one on-disk/in-memory shape behind traces, advice,
epochs, checkpoints, the audit journal, and the binlog (DESIGN.md §8):

* stream header: ``magic "KRS1" | kind_len u8 | kind utf-8`` -- ``kind``
  names what the stream holds ("trace", "advice", ...), so opening the
  wrong file is a format error, not garbage decoding;
* record frame: ``rtype u8 | length u32 LE | payload | crc32 u32 LE`` --
  length-prefixed so a reader never over-reads, CRC-checked (crc32 over
  the frame header and payload) so corruption is *detected*, and typed so
  heterogeneous records (a trace event vs. an advice section) share one
  stream.

Failure taxonomy: any structural damage surfaces as
:class:`RecordFormatError`, a flavour of
:class:`~repro.errors.AdviceFormatError` -- a corrupt store is
indistinguishable from a misbehaving server, so the audit *rejects*
rather than crashes.  :class:`RecordTruncatedError` marks damage that is
consistent with a torn tail (a crash mid-append); append-mode opens use
it to recover by truncating to the last whole record, while read-mode
opens report it.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator, List, Tuple

from repro.errors import AdviceFormatError

MAGIC = b"KRS1"
MAX_KIND_LEN = 255
# Record payloads are length-prefixed; cap the length so a corrupt frame
# cannot make a reader attempt a multi-gigabyte allocation.
MAX_RECORD_LEN = 1 << 30

_FRAME_HEAD = struct.Struct("<BI")  # rtype, payload length
_FRAME_CRC = struct.Struct("<I")


class RecordFormatError(AdviceFormatError):
    """A record stream is structurally damaged (bad magic, frame, or CRC)."""


class RecordTruncatedError(RecordFormatError):
    """The stream ends mid-frame or with a CRC-failed final region --
    the shape a crash mid-append (torn tail) leaves behind."""


def encode_stream_header(kind: str) -> bytes:
    raw = kind.encode("utf-8")
    if not raw or len(raw) > MAX_KIND_LEN:
        raise ValueError(f"bad stream kind {kind!r}")
    return MAGIC + bytes([len(raw)]) + raw


def decode_stream_header(buf: bytes) -> Tuple[str, int]:
    """Validate the header at the start of ``buf``; returns
    ``(kind, header_length)``."""
    if len(buf) < len(MAGIC) + 1:
        raise RecordTruncatedError("record stream shorter than its header")
    if buf[: len(MAGIC)] != MAGIC:
        raise RecordFormatError(
            f"not a record stream (magic {bytes(buf[:len(MAGIC)])!r})"
        )
    kind_len = buf[len(MAGIC)]
    end = len(MAGIC) + 1 + kind_len
    if len(buf) < end:
        raise RecordTruncatedError("record stream header torn")
    try:
        kind = bytes(buf[len(MAGIC) + 1 : end]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"stream kind is not utf-8: {exc}") from None
    return kind, end


def encode_record(rtype: int, payload: bytes) -> bytes:
    """One framed record: typed header, length prefix, payload, CRC."""
    if not 0 <= rtype <= 255:
        raise ValueError(f"record type {rtype} out of range")
    if len(payload) > MAX_RECORD_LEN:
        raise ValueError(f"record payload of {len(payload)} bytes exceeds cap")
    head = _FRAME_HEAD.pack(rtype, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return head + payload + _FRAME_CRC.pack(crc)


def scan_records(
    buf: bytes, offset: int
) -> Iterator[Tuple[int, bytes, int]]:
    """Yield ``(rtype, payload, end_offset)`` for each whole record from
    ``offset``.

    Raises :class:`RecordTruncatedError` when the buffer ends mid-frame
    and :class:`RecordFormatError` on CRC mismatch or an impossible
    length.  Because frames are length-prefixed, nothing after the first
    damaged frame can be resynchronised -- callers either reject the
    stream (read path) or truncate at the last good ``end_offset``
    (append-path torn-tail recovery).
    """
    pos = offset
    total = len(buf)
    while pos < total:
        if total - pos < _FRAME_HEAD.size:
            raise RecordTruncatedError(
                f"torn frame header at offset {pos} ({total - pos} bytes)"
            )
        rtype, length = _FRAME_HEAD.unpack_from(buf, pos)
        if length > MAX_RECORD_LEN:
            raise RecordFormatError(
                f"record at offset {pos} claims {length} bytes (corrupt length)"
            )
        end = pos + _FRAME_HEAD.size + length + _FRAME_CRC.size
        if end > total:
            raise RecordTruncatedError(
                f"torn record at offset {pos}: frame wants {end - total} more bytes"
            )
        payload = bytes(buf[pos + _FRAME_HEAD.size : end - _FRAME_CRC.size])
        (stored_crc,) = _FRAME_CRC.unpack_from(buf, end - _FRAME_CRC.size)
        crc = zlib.crc32(payload, zlib.crc32(buf[pos : pos + _FRAME_HEAD.size]))
        if (crc & 0xFFFFFFFF) != stored_crc:
            raise _crc_error(pos, end, total)
        yield rtype, payload, end
        pos = end


def _crc_error(pos: int, end: int, total: int) -> RecordFormatError:
    # A CRC failure on the *final* record is what an interrupted
    # write-then-crash looks like (payload partially on disk, stale bytes
    # behind it); classify it as truncation so append-opens can recover.
    if end == total:
        return RecordTruncatedError(f"CRC mismatch on final record at offset {pos}")
    return RecordFormatError(f"CRC mismatch on record at offset {pos}")


def read_stream(buf: bytes) -> Tuple[str, List[Tuple[int, bytes]]]:
    """Decode a whole in-memory stream strictly (no tail tolerance)."""
    kind, pos = decode_stream_header(buf)
    records = [(rtype, payload) for rtype, payload, _ in scan_records(buf, pos)]
    return kind, records


def recover_stream(buf: bytes) -> Tuple[str, List[Tuple[int, bytes]], int]:
    """Decode as much of a possibly-torn stream as is whole.

    Returns ``(kind, records, good_length)`` where ``good_length`` is the
    byte offset of the first damage (== ``len(buf)`` when the stream is
    clean).  Mid-stream corruption (a CRC failure *before* the final
    record) is not recoverable damage and still raises -- a crash only
    ever tears the tail.
    """
    kind, pos = decode_stream_header(buf)
    records: List[Tuple[int, bytes]] = []
    good = pos
    try:
        for rtype, payload, end in scan_records(buf, pos):
            records.append((rtype, payload))
            good = end
    except RecordTruncatedError:
        pass
    return kind, records, good


# -- payload helpers ----------------------------------------------------------

# Record payloads are compact JSON.  Keys keep insertion order: the
# encodings are pinned byte for byte (bytes at rest, epoch digests), and
# sorting them would change every stored frame.  Digests hash the
# canonical form (keys sorted).  Encoders are built once, not per call.
_PACK = json.JSONEncoder(separators=(",", ":"))
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_str_text = json.encoder.encode_basestring_ascii


def pack_json(doc: object) -> bytes:
    return _PACK.encode(doc).encode("utf-8")


def json_text(doc: object) -> str:
    """``pack_json(doc)`` as text; the scalars record fields hold skip
    the encoder.  Compact JSON composes, so templates splice these."""
    cls = type(doc)
    if cls is str:
        return _str_text(doc)
    if cls is int:
        return "%d" % doc
    if doc is None:
        return "null"
    if cls is bool:
        return "true" if doc else "false"
    if cls is float and doc - doc == 0:  # finite: NaN and the infinities fall through
        return repr(doc)
    return _PACK.encode(doc)


def canonical_json(doc: object) -> str:
    """The one canonical JSON text: sorted keys, no whitespace, ASCII."""
    return _CANONICAL.encode(doc)


def unpack_json(payload: bytes) -> object:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RecordFormatError(f"record payload is not JSON: {exc}") from None
    except RecursionError:
        raise RecordFormatError("record payload nests too deeply") from None

