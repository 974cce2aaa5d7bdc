"""Pluggable record-stream backends (DESIGN.md §8).

A :class:`StorageBackend` is a namespace of named record streams (see
:mod:`repro.storage.records` for the frame format and its one parser).
Three implementations:

* :class:`MemoryBackend` -- byte arrays in a dict; zero durability, the
  reference backend for tests and in-process use;
* :class:`FileBackend` -- one append-only file per stream under a root
  directory, flushed per record, durable where its writer says so
  (``sync`` / ``seal``); opening a stream for append recovers a torn
  tail (a crash mid-append) by truncating to the last whole record;
* :class:`GzipBackend` -- the file backend with gzip compression
  (``Z_SYNC_FLUSH`` per record so readers see whole records); reopening
  for append recompacts the stream, since gzip members cannot be resumed
  in place.

The backends differ only in their medium.  Every read is one
:class:`RecordReader` over a binary file object -- the file itself, or an
``io.BytesIO`` of the memory buffer or of the inflated gzip bytes -- and
every append-time recovery runs the same parser
(:func:`~repro.storage.records.clean_prefix`), so a stream's bytes mean
the same thing on every backend.  :meth:`RecordWriter.append` frames and
counts each record; a backend's writer supplies only ``_write``.

Writers are append-only: the storage layer has no update or delete of
individual records, which is exactly the audit trust model -- history is
only ever extended.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.obs import MetricsRegistry, NULL_METRICS, ensure_metrics
from repro.storage.records import (
    RecordFormatError,
    RecordTruncatedError,
    clean_prefix,
    encode_record,
    encode_stream_header,
    iter_frames,
    read_header,
)


class RecordWriter:
    """Append-only writer for one stream; context-manager friendly."""

    kind: str
    scheme: str
    _metrics: MetricsRegistry

    def append(self, rtype: int, payload: bytes) -> None:
        """Frame one record and flush it to the OS: a killed *process*
        loses at most this record; a power loss, all since a barrier."""
        encoded = encode_record(rtype, payload)
        self._write(encoded)
        self._metrics.counter(f"storage.{self.scheme}.records_written").inc()
        self._metrics.counter(f"storage.{self.scheme}.bytes_written").inc(len(encoded))

    def _write(self, encoded: bytes) -> None:
        """Put one framed record on the medium and flush it to the OS;
        ``ValueError`` once closed."""
        raise NotImplementedError

    def sync(self) -> None:
        """The durability barrier: every record appended so far survives
        a power loss (fsync where meaningful; no-op once closed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the handle without a barrier."""
        raise NotImplementedError

    def seal(self) -> None:
        """Barrier, then close: how a whole-stream writer finishes."""
        self.sync()
        self.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.seal()


class RecordReader:
    """Iterates ``(rtype, payload)`` pairs of the stream in ``fh``,
    counting each into ``storage.<scheme>.records_read`` / ``bytes_read``.
    Opening validates the header (and closes ``fh`` if it is bad)."""

    def __init__(self, fh: BinaryIO, where: str, scheme: str, metrics: MetricsRegistry):
        self._fh = fh
        self._scheme = scheme
        self._metrics = metrics
        try:
            self.kind = read_header(fh, where)
        except BaseException:
            fh.close()
            raise

    def __iter__(self) -> Iterator[Tuple[int, bytes]]:
        for rtype, payload, _, _ in self.frames():
            yield rtype, payload

    def frames(self) -> Iterator[Tuple[int, bytes, bytes, bytes]]:
        """``(rtype, payload, head, crc)`` per record: the frame as read
        (:func:`~repro.storage.records.iter_frames`)."""
        for frame in iter_frames(self._fh):
            self._metrics.counter(f"storage.{self._scheme}.records_read").inc()
            self._metrics.counter(f"storage.{self._scheme}.bytes_read").inc(len(frame[1]))
            yield frame

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "RecordReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StorageBackend:
    """A namespace of named record streams.

    ``metrics`` (DESIGN.md §9) is observe-only: writers and readers report
    ``storage.<scheme>.records_written`` / ``bytes_written`` / ``fsyncs``
    / ``records_read`` / ``bytes_read`` into it, and nothing in the
    storage layer ever reads a metric back.
    """

    scheme = "abstract"
    metrics: MetricsRegistry = NULL_METRICS

    def create(self, name: str, kind: str) -> RecordWriter:
        """A fresh stream (truncates any existing one)."""
        raise NotImplementedError

    def append(self, name: str, kind: str) -> RecordWriter:
        """Open (or create) a stream for appending, recovering a torn
        tail first."""
        raise NotImplementedError

    def reader(self, name: str) -> RecordReader:
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def list_streams(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def load_tolerant(self, name: str, kind: str) -> List[Tuple[int, bytes]]:
        """Every whole record of a stream, ignoring a torn tail.

        The crash-resume read path for journals, checkpoints, and the
        binlog: an interrupted final append must never prevent reopening
        the stream.  Mid-stream corruption still raises.  A missing
        stream, or one torn inside its header, reads as empty.
        """
        if not self.exists(name):
            return []
        records: List[Tuple[int, bytes]] = []
        try:
            with self.reader(name) as reader:
                if reader.kind != kind:
                    raise RecordFormatError(
                        f"stream {name!r} holds {reader.kind!r} records, wanted {kind!r}"
                    )
                for rtype, payload in reader:
                    records.append((rtype, payload))
        except RecordTruncatedError:
            pass
        return records


# -- in-memory -----------------------------------------------------------------


class _MemoryWriter(RecordWriter):
    scheme = "memory"

    def __init__(self, buf: bytearray, kind: str, metrics: MetricsRegistry):
        self._buf = buf
        self.kind = kind
        self._metrics = metrics

    def _write(self, encoded: bytes) -> None:
        if self._buf is None:
            raise ValueError("writer is sealed")
        self._buf += encoded

    def sync(self) -> None:
        pass

    def close(self) -> None:
        self._buf = None


class MemoryBackend(StorageBackend):
    """Streams held in RAM; the zero-durability reference backend."""

    scheme = "memory"

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._streams: Dict[str, bytearray] = {}
        self.metrics = ensure_metrics(metrics)

    def create(self, name: str, kind: str) -> RecordWriter:
        buf = bytearray(encode_stream_header(kind))
        self._streams[name] = buf
        return _MemoryWriter(buf, kind, self.metrics)

    def append(self, name: str, kind: str) -> RecordWriter:
        buf = self._streams.get(name)
        good = None
        if buf is not None:
            good = clean_prefix(io.BytesIO(buf), kind, f"stream {name!r}")
        if good is None:
            return self.create(name, kind)
        del buf[good:]
        return _MemoryWriter(buf, kind, self.metrics)

    def reader(self, name: str) -> RecordReader:
        if name not in self._streams:
            raise FileNotFoundError(name)
        # BytesIO copies the buffer: a reader sees the stream as it was
        # opened, whatever is appended meanwhile.
        fh = io.BytesIO(self._streams[name])
        return RecordReader(fh, f"stream {name!r}", self.scheme, self.metrics)

    def exists(self, name: str) -> bool:
        return name in self._streams

    def list_streams(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._streams if n.startswith(prefix))

    def delete(self, name: str) -> None:
        self._streams.pop(name, None)

    def raw(self, name: str) -> bytearray:
        """The live byte buffer -- test hook for corruption injection."""
        return self._streams[name]


# -- append-only files ---------------------------------------------------------


class _FileWriter(RecordWriter):
    scheme = "file"

    def __init__(self, raw, kind: str, metrics: MetricsRegistry):
        self._raw = raw
        self.kind = kind
        self._metrics = metrics

    def _write(self, encoded: bytes) -> None:
        if self._raw is None:
            raise ValueError("writer is sealed")
        self._raw.write(encoded)
        # Per-record flush: a crash loses at most the record being
        # written, and torn-tail recovery drops that one cleanly.
        self._raw.flush()

    def sync(self) -> None:
        if self._raw is not None:
            self._raw.flush()
            os.fsync(self._raw.fileno())
            self._metrics.counter(f"storage.{self.scheme}.fsyncs").inc()

    def close(self) -> None:
        if self._raw is not None:
            self._raw.close()
            self._raw = None


class FileBackend(StorageBackend):
    """One ``<name>.rec`` append-only file per stream under ``root``."""

    scheme = "file"
    suffix = ".rec"

    def __init__(self, root: str, metrics: Optional[MetricsRegistry] = None):
        self.root = root
        self.metrics = ensure_metrics(metrics)
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name + self.suffix)

    def create(self, name: str, kind: str) -> RecordWriter:
        fh = open(self._path(name), "wb")
        fh.write(encode_stream_header(kind))
        fh.flush()
        return _FileWriter(fh, kind, self.metrics)

    def append(self, name: str, kind: str) -> RecordWriter:
        path = self._path(name)
        good = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                good = clean_prefix(fh, kind, path)
        if good is None:
            return self.create(name, kind)
        fh = open(path, "r+b")
        fh.truncate(good)
        fh.seek(good)
        return _FileWriter(fh, kind, self.metrics)

    def reader(self, name: str) -> RecordReader:
        path = self._path(name)
        return RecordReader(open(path, "rb"), os.path.basename(path), self.scheme, self.metrics)

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list_streams(self, prefix: str = "") -> List[str]:
        names = []
        for entry in os.listdir(self.root):
            if entry.endswith(self.suffix):
                name = entry[: -len(self.suffix)]
                if name.startswith(prefix):
                    names.append(name)
        return sorted(names)

    def delete(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass


# -- gzip-compressed files -----------------------------------------------------


class _GzipWriter(_FileWriter):
    scheme = "gzip"

    def __init__(self, raw, gz, kind: str, metrics: MetricsRegistry):
        super().__init__(raw, kind, metrics)
        self._gz = gz

    def _write(self, encoded: bytes) -> None:
        if self._raw is None:
            raise ValueError("writer is sealed")
        self._gz.write(encoded)
        # SYNC_FLUSH emits a deflate block boundary (and flushes the
        # file): everything written so far decompresses without the
        # stream trailer.
        self._gz.flush(zlib.Z_SYNC_FLUSH)

    def close(self) -> None:
        self._gz.close()  # writes the member trailer
        super().close()

    def seal(self) -> None:
        self._gz.close()  # trailer first, so the barrier covers it
        super().seal()


def _decompress_tolerant(raw: bytes) -> bytes:
    """Inflate a gzip stream, keeping whatever decompressed before any
    truncation (the frame layer then applies its own tail recovery)."""
    out = bytearray()
    decomp = zlib.decompressobj(wbits=31)
    try:
        out += decomp.decompress(raw)
        while decomp.eof and decomp.unused_data:
            # Concatenated members (append-after-seal writes a new one).
            raw = decomp.unused_data
            decomp = zlib.decompressobj(wbits=31)
            out += decomp.decompress(raw)
    except zlib.error:
        if not out:
            raise
    return bytes(out)


class GzipBackend(FileBackend):
    """The file backend, gzip-compressed (``<name>.recz``)."""

    scheme = "gzip"
    suffix = ".recz"

    def _start(self, path: str, kind: str, records=()) -> _GzipWriter:
        raw = open(path, "wb")
        gz = gzip.GzipFile(fileobj=raw, mode="wb", mtime=0)
        gz.write(encode_stream_header(kind))
        for rtype, payload in records:
            gz.write(encode_record(rtype, payload))
        gz.flush(zlib.Z_SYNC_FLUSH)
        raw.flush()
        return _GzipWriter(raw, gz, kind, self.metrics)

    def create(self, name: str, kind: str) -> RecordWriter:
        return self._start(self._path(name), kind)

    def append(self, name: str, kind: str) -> RecordWriter:
        path = self._path(name)
        if not os.path.exists(path):
            return self.create(name, kind)
        # Gzip members cannot be resumed in place: recompact the whole
        # clean prefix into a fresh stream, then keep appending.
        tmp = path + ".tmp"
        writer = self._start(tmp, kind, self.load_tolerant(name, kind))
        # Barrier before the rename: after a power loss the new name must
        # never be durable ahead of the bytes it names, or the whole
        # stream (a tenant's checkpoints, its journal) reads back empty.
        writer.sync()
        os.replace(tmp, path)
        return writer

    def reader(self, name: str) -> RecordReader:
        # Decompression tolerates a missing gzip trailer (unsealed or
        # torn stream); frame CRCs are the integrity check that matters.
        path = self._path(name)
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            buf = _decompress_tolerant(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise RecordFormatError(f"{path}: corrupt gzip stream: {exc}") from None
        return RecordReader(io.BytesIO(buf), os.path.basename(path), self.scheme, self.metrics)


# -- selection ------------------------------------------------------------------

SCHEMES = ("memory", "file", "gzip")


def backend_for(
    scheme: str,
    path: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> StorageBackend:
    """The backend named by a scheme (the CLI's ``--store`` choices are
    the durable ones, ``file`` and ``gzip``)."""
    if scheme == "memory":
        return MemoryBackend(metrics=metrics)
    if path is None:
        raise ValueError(f"the {scheme!r} store needs a path")
    if scheme == "file":
        return FileBackend(path, metrics=metrics)
    if scheme == "gzip":
        return GzipBackend(path, metrics=metrics)
    raise ValueError(f"unknown storage scheme {scheme!r}")
