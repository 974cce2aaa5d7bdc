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
    encode_record,
    encode_stream_header,
    pack_json,
    unpack_json,
)
from repro.storage.values import decode_value, value_text

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
    "encode_record",
    "encode_stream_header",
    "pack_json",
    "unpack_json",
    "decode_value",
    "value_text",
]
