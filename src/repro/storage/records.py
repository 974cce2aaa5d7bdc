"""The record-stream wire format shared by every persistence surface.

A *record stream* is a stream header followed by zero or more framed
records.  It is the one on-disk/in-memory shape behind sealed epochs
(a trace segment and its advice slice), checkpoints, the audit journal,
and the binlog (DESIGN.md §8):

* stream header: ``magic "KRS1" | kind_len u8 | kind utf-8`` -- ``kind``
  names what the stream holds ("epoch", "checkpoint", ...), so opening the
  wrong file is a format error, not garbage decoding;
* record frame: ``rtype u8 | length u32 LE | payload | crc32 u32 LE`` --
  length-prefixed so a reader never over-reads, CRC-checked (crc32 over
  the frame header and payload) so corruption is *detected*, and typed so
  heterogeneous records (a trace event vs. an advice section) share one
  stream.

This module holds the one frame parser.  It reads a binary file object
incrementally (:func:`read_header`, :func:`iter_frames`,
:func:`clean_prefix`); every backend hands it one -- a file, or an
``io.BytesIO`` over a memory buffer or inflated gzip bytes -- for reads
and for append-time recovery alike.

Failure taxonomy: any structural damage surfaces as
:class:`RecordFormatError`, a flavour of
:class:`~repro.errors.AdviceFormatError` -- a corrupt store is
indistinguishable from a misbehaving server, so the audit *rejects*
rather than crashes.  :class:`RecordTruncatedError` marks damage that is
consistent with a torn tail (a crash mid-append): bytes that end inside
the header or inside the final frame, or a CRC failure on the final
frame.  Append-mode opens and tolerant loads recover by truncating to
the last whole record; strict readers report it.  Bytes that are not a
prefix of a header are corrupt, never torn.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Iterator, Optional, Tuple

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
    """The stream ends mid-header, mid-frame or with a CRC-failed final
    record -- the shape a crash mid-append (torn tail) leaves behind."""


def encode_stream_header(kind: str) -> bytes:
    raw = kind.encode("utf-8")
    if not raw or len(raw) > MAX_KIND_LEN:
        raise ValueError(f"bad stream kind {kind!r}")
    return MAGIC + bytes([len(raw)]) + raw


def encode_record(rtype: int, payload: bytes) -> bytes:
    """One framed record: typed header, length prefix, payload, CRC."""
    if not 0 <= rtype <= 255:
        raise ValueError(f"record type {rtype} out of range")
    if len(payload) > MAX_RECORD_LEN:
        raise ValueError(f"record payload of {len(payload)} bytes exceeds cap")
    head = _FRAME_HEAD.pack(rtype, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return head + payload + _FRAME_CRC.pack(crc)


def _read_exact(fh: BinaryIO, n: int, context: str) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise RecordTruncatedError(f"torn {context}: wanted {n} bytes, got {len(data)}")
    return data


def read_header(fh: BinaryIO, where: str) -> str:
    """Read the stream header at ``fh``'s position; returns its kind.

    Bytes that stop inside a header are a torn stream
    (:class:`RecordTruncatedError`); bytes that are no header's prefix
    are corrupt (:class:`RecordFormatError`).
    """
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        if MAGIC.startswith(magic):
            raise RecordTruncatedError(f"{where}: stream header torn")
        raise RecordFormatError(f"{where} is not a record stream (magic {magic!r})")
    kind_len = fh.read(1)
    if not kind_len:
        raise RecordTruncatedError(f"{where}: stream header torn")
    raw = _read_exact(fh, kind_len[0], f"{where}: stream kind")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"{where}: stream kind is not utf-8: {exc}") from None


def iter_frames(fh: BinaryIO) -> Iterator[Tuple[int, bytes, bytes, bytes]]:
    """Yield ``(rtype, payload, head, crc)`` for each record from ``fh``'s
    position to its end, never materialising the stream -- the memory
    bound behind ``--store file`` audits.  ``head + payload + crc`` is
    the frame as read, ``encode_record(rtype, payload)`` byte for byte,
    so a reader can hash frames without framing them again.

    Raises :class:`RecordTruncatedError` at a torn tail and
    :class:`RecordFormatError` on a mid-stream CRC mismatch or an
    impossible length.  Because frames are length-prefixed, nothing after
    the first damaged frame can be resynchronised.
    """
    while True:
        head = fh.read(_FRAME_HEAD.size)
        if not head:
            return
        if len(head) < _FRAME_HEAD.size:
            raise RecordTruncatedError(
                f"torn frame header ({len(head)} bytes at stream tail)"
            )
        rtype, length = _FRAME_HEAD.unpack(head)
        if length > MAX_RECORD_LEN:
            raise RecordFormatError(f"record claims {length} bytes (corrupt length)")
        payload = _read_exact(fh, length, "record payload")
        crc_bytes = _read_exact(fh, _FRAME_CRC.size, "record CRC")
        (stored_crc,) = _FRAME_CRC.unpack(crc_bytes)
        crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
        if crc != stored_crc:
            # A CRC failure on the *final* record is what an interrupted
            # write-then-crash looks like; whether this one is final
            # depends on what follows, so peek.
            if fh.read(1):
                raise RecordFormatError("CRC mismatch on mid-stream record")
            raise RecordTruncatedError("CRC mismatch on final record")
        yield rtype, payload, head, crc_bytes


def clean_prefix(fh: BinaryIO, kind: str, where: str) -> Optional[int]:
    """Length of the whole-record prefix of the ``kind`` stream ``fh``
    holds (read from its start); None when it is torn inside its header
    (never barriered: an empty stream).  Mid-stream corruption, a wrong
    kind and a non-header still raise -- a crash only ever tears the tail.
    """
    try:
        got_kind = read_header(fh, where)
    except RecordTruncatedError:
        return None
    if got_kind != kind:
        raise RecordFormatError(f"{where} holds {got_kind!r} records, wanted {kind!r}")
    good = fh.tell()
    try:
        for _ in iter_frames(fh):
            good = fh.tell()
    except RecordTruncatedError:
        pass
    return good


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

