"""The persistent verdict cache (DESIGN.md §11).

One record stream (kind ``vcache``) on any
:class:`~repro.storage.backend.StorageBackend`, one self-certifying
record per cached group verdict:

* ``RT_CACHE_META`` (40) -- the stream's digest-spec version, written
  once at creation; a cache written under a different spec loads as
  empty (cold start, never a wrong hit);
* ``RT_CACHE_ENTRY`` (41) -- JSON ``{"entry": ..., "sum": sha256}``
  where ``sum`` covers the canonical entry document.  The entry carries
  the activation digest (the key), the verdict, the member count, the
  saved handler count, the output digest, the normalised effect
  document, and the effect digest.

Loading is *fully* tolerant: a record that fails frame CRC, JSON
decoding, the self-digest, the spec check, or the verdict whitelist is
skipped (counted, surfaced through ``cache.*`` metrics and
``repro cache verify``); frame-level corruption stops the scan at the
first bad frame (frames cannot be resynchronised) and keeps the clean
prefix.  A corrupt cache therefore degrades to a cold one -- it can
slow an audit down but never crash it, reject it, or change its
verdict.  The hit-time revalidation (output digest vs the *current*
trace, effect digest vs the stored effects) lives with the
:class:`~repro.verifier.dedup.executor.Deduplicator`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import MetricsRegistry, ensure_metrics
from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError, RecordTruncatedError, canonical_json
from repro.verifier.dedup.digest import DIGEST_SPEC, sha256_text

STREAM_KIND = "vcache"
STREAM_NAME = "verdicts"
RT_CACHE_META = 40
RT_CACHE_ENTRY = 41

VERDICT_ACCEPT = "accept"


def entry_sum(entry: Dict[str, object]) -> str:
    return sha256_text(canonical_json(entry))


def effect_sum(effect: Dict[str, object]) -> str:
    return sha256_text(canonical_json(effect))


def make_entry(
    key: str,
    members: int,
    handlers: int,
    output_digest: str,
    effect: Dict[str, object],
    effect_text: str,
) -> Dict[str, object]:
    """A cache entry; ``effect_text`` is ``canonical_json(effect)``."""
    return {
        "spec": DIGEST_SPEC,
        "key": key,
        "verdict": VERDICT_ACCEPT,
        "members": members,
        "handlers": handlers,
        "output_digest": output_digest,
        "effect_digest": sha256_text(effect_text),
        "effect": effect,
    }


def _record_text(entry: Dict[str, object], effect_text: str) -> str:
    """``canonical_json({"entry": entry, "sum": entry_sum(entry)})``, spliced."""
    rest = canonical_json({k: v for k, v in entry.items() if k != "effect"})
    entry_text = '{"effect":%s,%s' % (effect_text, rest[1:])  # "effect" sorts first
    return '{"entry":%s,"sum":"%s"}' % (entry_text, sha256_text(entry_text))


_ENTRY_FIELDS = (
    "spec",
    "key",
    "verdict",
    "members",
    "handlers",
    "output_digest",
    "effect_digest",
    "effect",
)


def _decode_record(payload: bytes) -> Dict[str, object]:
    doc = json.loads(payload.decode("utf-8"))
    entry = doc["entry"]
    if doc["sum"] != entry_sum(entry):
        raise ValueError("cache record self-digest mismatch")
    for field in _ENTRY_FIELDS:
        if field not in entry:
            raise ValueError(f"cache entry missing {field!r}")
    if entry["spec"] != DIGEST_SPEC:
        raise ValueError(f"cache entry spec {entry['spec']!r} != {DIGEST_SPEC!r}")
    if entry["verdict"] != VERDICT_ACCEPT:
        raise ValueError(f"cache entry verdict {entry['verdict']!r} not cacheable")
    if entry["effect_digest"] != effect_sum(entry["effect"]):
        raise ValueError("cache entry effect digest mismatch")
    return entry


class VerdictCache:
    """Digest-keyed verdict records, optionally persisted.

    ``backend=None`` keeps entries in memory for the process lifetime
    (the CLI's plain ``--dedup`` mode: cross-epoch reuse within one
    continuous run, no disk).  With a backend, every ``put`` appends one
    record, and a later run over the same stream warm-starts.
    """

    def __init__(
        self,
        backend: Optional[StorageBackend] = None,
        name: str = STREAM_NAME,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.backend = backend
        self.name = name
        self.metrics = ensure_metrics(metrics)
        self._writer = None
        self._entries: Dict[str, Dict[str, object]] = {}
        self.loaded = 0
        self.skipped = 0
        if backend is not None:
            self._load()

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        for status, entry in self._scan():
            if status == "ok":
                self._entries[entry["key"]] = entry
                self.loaded += 1
            else:
                self.skipped += 1
        self.metrics.counter("cache.entries_loaded").inc(self.loaded)
        if self.skipped:
            self.metrics.counter("cache.records_skipped").inc(self.skipped)

    def _scan(self) -> "Iterator[Tuple[str, Any]]":
        """Yield ``(status, entry_or_detail)`` per stored record; never
        raises -- a broken stream yields a ``corrupt`` terminator."""
        if self.backend is None or not self.backend.exists(self.name):
            return
        try:
            reader = self.backend.reader(self.name)
        except (RecordFormatError, RecordTruncatedError, OSError) as exc:
            yield ("corrupt", f"unreadable stream: {exc}")
            return
        with reader:
            if reader.kind != STREAM_KIND:
                yield ("corrupt", f"stream kind {reader.kind!r} != {STREAM_KIND!r}")
                return
            iterator = iter(reader)
            while True:
                try:
                    rtype, payload = next(iterator)
                except StopIteration:
                    return
                except RecordTruncatedError:
                    # A torn tail is a crash artefact, not corruption.
                    return
                except RecordFormatError as exc:
                    yield ("corrupt", f"broken frame: {exc}")
                    return
                if rtype == RT_CACHE_META:
                    try:
                        meta = json.loads(payload.decode("utf-8"))
                        if meta.get("spec") != DIGEST_SPEC:
                            yield ("skipped", f"spec {meta.get('spec')!r}")
                            return  # a foreign-spec stream loads as empty
                    except ValueError as exc:
                        yield ("skipped", f"bad meta record: {exc}")
                    continue
                if rtype != RT_CACHE_ENTRY:
                    yield ("skipped", f"unknown record type {rtype}")
                    continue
                try:
                    yield ("ok", _decode_record(payload))
                except (ValueError, KeyError, TypeError) as exc:
                    yield ("skipped", f"bad entry record: {exc}")

    # -- lookup / store --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._entries.get(key)

    def put(self, entry: Dict[str, object], effect_text: str) -> None:
        key = entry["key"]
        if key in self._entries:
            return
        self._entries[key] = entry
        if self.backend is None:
            return
        # Persistence failures (a corrupted stream refusing append, a full
        # or read-only disk) degrade the cache to in-memory for the rest
        # of the process.  They must never surface into the audit: the
        # backend raises RecordFormatError, which is an AuditRejected --
        # correct for *advice* streams, but the cache is auditor-private
        # state and cannot be allowed to influence the verdict.
        try:
            if self._writer is None:
                fresh = not self.backend.exists(self.name)
                self._writer = self.backend.append(self.name, STREAM_KIND)
                if fresh:
                    self._writer.append(
                        RT_CACHE_META,
                        canonical_json({"spec": DIGEST_SPEC}).encode("utf-8"),
                    )
            self._writer.append(
                RT_CACHE_ENTRY, _record_text(entry, effect_text).encode("utf-8")
            )
        except Exception:
            self._writer = None
            self.backend = None
            self.metrics.counter("cache.write_failures").inc()
            return
        self.metrics.counter("cache.entries_written").inc()

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.seal()
            except Exception:
                self.metrics.counter("cache.write_failures").inc()
            self._writer = None

    # -- maintenance (the ``repro cache`` CLI) ---------------------------------

    def stats(self) -> Dict[str, object]:
        handlers = sum(int(e.get("handlers", 0)) for e in self._entries.values())
        members = sum(int(e.get("members", 0)) for e in self._entries.values())
        return {
            "spec": DIGEST_SPEC,
            "entries": len(self._entries),
            "members": members,
            "handlers": handlers,
            "loaded": self.loaded,
            "skipped": self.skipped,
            "backend": self.backend.scheme if self.backend is not None else None,
        }

    def verify(self) -> List[Dict[str, object]]:
        """Re-scan the stored stream; one status row per record."""
        self.close()
        rows: List[Dict[str, object]] = []
        for status, payload in self._scan():
            if status == "ok":
                rows.append(
                    {"status": "ok", "key": payload["key"],
                     "members": payload["members"]}
                )
            else:
                rows.append({"status": status, "detail": payload})
        return rows

    def clear(self) -> int:
        """Drop every entry (and the stored stream); returns the count."""
        self.close()
        count = len(self._entries)
        self._entries.clear()
        self.loaded = 0
        self.skipped = 0
        if self.backend is not None:
            self.backend.delete(self.name)
        return count


__all__ = [
    "RT_CACHE_ENTRY",
    "RT_CACHE_META",
    "STREAM_KIND",
    "STREAM_NAME",
    "VERDICT_ACCEPT",
    "VerdictCache",
    "effect_sum",
    "entry_sum",
    "make_entry",
]
