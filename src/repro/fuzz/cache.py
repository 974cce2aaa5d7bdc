"""Verdict-cache poisoning operators (DESIGN.md §11 soundness property).

The verdict cache is the one place the dedup subsystem persists state
between audits, so it is the one place an on-disk corruption (bit rot,
torn write, stale file, hostile edit) could try to change a verdict.
These operators tamper with a persisted cache stream the way the advice
fuzzer tampers with advice, and the property the tests assert is the
cache trust model itself:

    **a poisoned cache never changes the final verdict** -- every record
    either fails load-time validation (skipped; the entry re-executes)
    or fails hit-time revalidation (fallback; the group re-executes),
    and the audit's verdict, reason, and stats are byte-identical to the
    cache-off run.

Each operator takes the backend holding a cache stream and mutates it in
place.  They deliberately target the different validation layers:

* ``flip-verdict`` / ``tamper-effect`` / ``stale-output`` rewrite entry
  fields *and re-sign the outer record*, so the frame CRC and the
  record's self-digest both pass -- only the semantic checks (verdict
  whitelist, effect digest, hit-time output revalidation) can catch
  them;
* ``break-sum`` rewrites an entry without re-signing (caught by the
  record self-digest);
* ``truncate-frame`` cuts the stream mid-record (a torn tail);
* ``corrupt-bytes`` flips raw bytes inside a frame (caught by the CRC);
* ``foreign-spec`` rewrites the stream meta record to a different digest
  spec (the whole cache must load as empty).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.storage.backend import StorageBackend
from repro.storage.records import canonical_json
from repro.verifier.dedup.cache import (
    RT_CACHE_ENTRY,
    RT_CACHE_META,
    STREAM_KIND,
    STREAM_NAME,
    entry_sum,
)


@dataclass(frozen=True)
class PoisonOp:
    """One cache-poisoning operator."""

    name: str
    description: str
    apply: Callable[[StorageBackend, str], None]


def _read_records(backend: StorageBackend, name: str) -> List[tuple]:
    with backend.reader(name) as reader:
        return list(reader)


def _read_raw(backend: StorageBackend, name: str) -> bytes:
    if hasattr(backend, "raw"):  # MemoryBackend's corruption hook
        return bytes(backend.raw(name))
    with open(backend._path(name), "rb") as fh:
        return fh.read()


def _write_raw(backend: StorageBackend, name: str, data: bytes) -> None:
    if hasattr(backend, "raw"):
        buf = backend.raw(name)
        buf[:] = data
        return
    with open(backend._path(name), "wb") as fh:
        fh.write(data)


def _rewrite(backend: StorageBackend, name: str, records: List[tuple]) -> None:
    backend.delete(name)
    writer = backend.create(name, STREAM_KIND)
    for rtype, payload in records:
        writer.append(rtype, payload)
    writer.seal()


def _mutate_entries(
    backend: StorageBackend, name: str, fn: Callable[[Dict], Dict], resign: bool
) -> None:
    """Apply ``fn`` to every stored entry; with ``resign`` the outer
    record digest is recomputed so only semantic checks can reject it."""
    out = []
    for rtype, payload in _read_records(backend, name):
        if rtype == RT_CACHE_ENTRY:
            doc = json.loads(payload.decode("utf-8"))
            doc["entry"] = fn(doc["entry"])
            if resign:
                doc["sum"] = entry_sum(doc["entry"])
            payload = canonical_json(doc).encode("utf-8")
        out.append((rtype, payload))
    _rewrite(backend, name, out)


def _flip_verdict(backend: StorageBackend, name: str) -> None:
    def fn(entry):
        entry = dict(entry)
        entry["verdict"] = "reject"
        return entry

    _mutate_entries(backend, name, fn, resign=True)


def _stale_output(backend: StorageBackend, name: str) -> None:
    def fn(entry):
        entry = dict(entry)
        entry["output_digest"] = "0" * 64
        return entry

    _mutate_entries(backend, name, fn, resign=True)


def _tamper_effect(backend: StorageBackend, name: str) -> None:
    def fn(entry):
        entry = dict(entry)
        effect = json.loads(canonical_json(entry["effect"]))
        effect["journal"] = [["handlers", 0]]
        effect["executed"] = []
        entry["effect"] = effect  # effect_digest now lies
        return entry

    _mutate_entries(backend, name, fn, resign=True)


def _break_sum(backend: StorageBackend, name: str) -> None:
    def fn(entry):
        entry = dict(entry)
        entry["members"] = int(entry.get("members", 0)) + 1
        return entry

    _mutate_entries(backend, name, fn, resign=False)


def _truncate_frame(backend: StorageBackend, name: str) -> None:
    raw = _read_raw(backend, name)
    # Cut mid-frame: the classic crash artefact (torn tail).
    _write_raw(backend, name, raw[: len(raw) - max(1, len(raw) // 10)])


def _corrupt_bytes(backend: StorageBackend, name: str) -> None:
    raw = bytearray(_read_raw(backend, name))
    # Flip bytes in the back half, past the header and meta record, so
    # a later entry frame's CRC breaks while the prefix stays clean.
    for offset in range(len(raw) - len(raw) // 4, len(raw), 7):
        raw[offset] ^= 0xFF
    _write_raw(backend, name, bytes(raw))


def _foreign_spec(backend: StorageBackend, name: str) -> None:
    out = []
    for rtype, payload in _read_records(backend, name):
        if rtype == RT_CACHE_META:
            payload = canonical_json({"spec": "repro.digest/999"}).encode("utf-8")
        out.append((rtype, payload))
    _rewrite(backend, name, out)


POISON_OPS = (
    PoisonOp("flip-verdict",
             "rewrite every entry's verdict to 'reject', re-signed",
             _flip_verdict),
    PoisonOp("stale-output",
             "replace every entry's output digest, re-signed "
             "(simulates a cache from a different trace)",
             _stale_output),
    PoisonOp("tamper-effect",
             "rewrite every entry's effect document without updating "
             "its effect digest, re-signed",
             _tamper_effect),
    PoisonOp("break-sum",
             "tamper an entry field without re-signing the record",
             _break_sum),
    PoisonOp("truncate-frame",
             "cut the stream mid-record (torn tail)",
             _truncate_frame),
    PoisonOp("corrupt-bytes",
             "flip raw bytes inside stored frames (CRC breakage)",
             _corrupt_bytes),
    PoisonOp("foreign-spec",
             "rewrite the stream meta to a foreign digest spec",
             _foreign_spec),
)


def poison(backend: StorageBackend, op_name: str, name: str = STREAM_NAME) -> None:
    """Apply one poisoning operator to the cache stream ``name``."""
    for op in POISON_OPS:
        if op.name == op_name:
            op.apply(backend, name)
            return
    raise KeyError(f"unknown poison operator {op_name!r}")


__all__ = ["POISON_OPS", "PoisonOp", "poison"]
