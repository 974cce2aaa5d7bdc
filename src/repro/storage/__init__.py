"""Unified streaming record-store layer (DESIGN.md §8).

One versioned record-stream format (:mod:`repro.storage.records`) behind
pluggable backends (:mod:`repro.storage.backend`), carrying the shared
value codec (:mod:`repro.storage.values`).  Every persistence surface --
trace, advice, epochs, checkpoints, the audit journal, and the binlog --
serialises through this package.
"""

from repro.storage.backend import (
    SCHEMES,
    FileBackend,
    GzipBackend,
    MemoryBackend,
    RecordReader,
    RecordWriter,
    StorageBackend,
    backend_for,
)
from repro.storage.records import (
    RecordFormatError,
    RecordTruncatedError,
    decode_stream_header,
    encode_record,
    encode_stream_header,
    pack_json,
    read_stream,
    recover_stream,
    scan_records,
    unpack_json,
)
from repro.storage.values import (
    decode_hid,
    decode_tid,
    decode_value,
    encode_hid,
    encode_tid,
    encode_value,
)

__all__ = [
    "SCHEMES",
    "FileBackend",
    "GzipBackend",
    "MemoryBackend",
    "RecordReader",
    "RecordWriter",
    "StorageBackend",
    "backend_for",
    "RecordFormatError",
    "RecordTruncatedError",
    "decode_stream_header",
    "encode_record",
    "encode_stream_header",
    "pack_json",
    "read_stream",
    "recover_stream",
    "scan_records",
    "unpack_json",
    "decode_hid",
    "decode_tid",
    "decode_value",
    "encode_hid",
    "encode_tid",
    "encode_value",
]
