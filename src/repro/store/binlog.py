"""The store's binary log (paper section 5, "Transactional state").

The original system repurposes MySQL's binlog to recover the global order
in which committed writes were applied.  Our store appends one entry per
installed version at commit time, in commit order; the Karousos server
post-processes this into the ``writeOrder`` advice (a list of positions in
the transaction logs, Appendix C.1.3).

With a storage ``backend`` (:mod:`repro.storage`), the binlog is also
*durable*: each entry is appended to a ``binlog`` record stream as it is
installed (per-record flush), construction replays whatever a previous
process persisted (recovering a torn tail, like MySQL's own crash
recovery trims a half-written event), and :meth:`seal` fsyncs the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.obs import MetricsRegistry, ensure_metrics
from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError, json_text, unpack_json
from repro.storage.values import decode_value, value_text

STREAM_KIND = "binlog"
STREAM_NAME = "binlog"
RT_BINLOG_ENTRY = 1


@dataclass(frozen=True)
class BinlogEntry:
    """One installed version: which key, and the writer token the client
    attached to the PUT (the Karousos server uses ``(rid, tid, txlog_idx)``
    tokens; the unmodified server attaches ``None``)."""

    key: str
    writer_token: object


def _encode_entry(entry: BinlogEntry) -> bytes:
    return ('{"key":%s,"token":%s}' % (
        json_text(entry.key), value_text(entry.writer_token)
    )).encode()


def _decode_entry(payload: bytes) -> BinlogEntry:
    doc = unpack_json(payload)
    if not isinstance(doc, dict) or "key" not in doc or "token" not in doc:
        raise RecordFormatError(f"bad binlog record {doc!r}")
    if not isinstance(doc["key"], str):
        raise RecordFormatError("binlog key must be a string")
    return BinlogEntry(doc["key"], decode_value(doc["token"]))


class Binlog:
    """Append-only log of installed versions, in global commit order."""

    def __init__(
        self,
        backend: Optional[StorageBackend] = None,
        stream: str = STREAM_NAME,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = ensure_metrics(metrics)
        self._entries: List[BinlogEntry] = []
        self._backend = backend
        self._stream = stream
        self._writer = None
        if backend is not None:
            for rtype, payload in backend.load_tolerant(stream, STREAM_KIND):
                if rtype != RT_BINLOG_ENTRY:
                    raise RecordFormatError(
                        f"unexpected binlog record type {rtype}"
                    )
                self._entries.append(_decode_entry(payload))

    def append(self, key: str, writer_token: object) -> None:
        entry = BinlogEntry(key, writer_token)
        self._entries.append(entry)
        self.metrics.counter("binlog.entries").inc()
        if self._backend is not None:
            if self._writer is None:
                self._writer = self._backend.append(self._stream, STREAM_KIND)
            payload = _encode_entry(entry)
            self.metrics.counter("binlog.bytes").inc(len(payload))
            self._writer.append(RT_BINLOG_ENTRY, payload)

    def seal(self) -> None:
        """Durably finish the persisted stream (no-op when in-memory)."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None

    def since(self, start: int) -> List[BinlogEntry]:
        """The entries from index ``start`` on, copying only those."""
        return self._entries[start:]

    def __iter__(self) -> Iterator[BinlogEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def version_order(self, key: str) -> List[object]:
        """Writer tokens of the committed versions of ``key``, in install
        order -- Adya's per-key version order."""
        return [e.writer_token for e in self._entries if e.key == key]
