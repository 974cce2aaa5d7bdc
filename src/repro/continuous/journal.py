"""Crash-resumable audit progress journal (DESIGN.md §6).

One verdict per record, appended as the continuous audit progresses:

* ``{"event": "verified", "epoch": k, "digest": "..."}``
* ``{"event": "rejected", "epoch": k, "reason": "...", "detail": "..."}``

Each is a commit point: its append is followed by a durability barrier,
which also covers every earlier record of the stream.  Journals written
before this layout also hold ``{"event": "sealed", "epoch": k,
"requests": n}`` records; they still load, and nothing reads them.

A restarted auditor loads the journal, finds the last verified epoch, and
resumes after it -- re-auditing nothing that already verified, provided
the checkpoint chain up to that epoch still verifies (a tampered
checkpoint store invalidates the journal's claim and the resume is
refused as ``checkpoint-chain-forged``).

Persisted on a :class:`repro.storage.backend.StorageBackend` as one
``journal`` record stream; the storage layer's CRC and torn-tail
recovery mean an interrupted final append never prevents reopening.
The journal is evidence like everything else the auditor reads back:
every whole record is validated on load, and anything else raises
:class:`~repro.storage.records.RecordFormatError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError, pack_json, unpack_json

STREAM_KIND = "journal"
STREAM_NAME = "journal"
RT_JOURNAL_EVENT = 1

# Only journals of older stores hold "sealed": it loads, nothing reads it.
EVENTS = ("sealed", "verified", "rejected")


def _check_event(rtype: int, payload: bytes) -> Dict:
    if rtype != RT_JOURNAL_EVENT:
        raise RecordFormatError(f"unexpected journal record type {rtype}")
    entry = unpack_json(payload)
    if not isinstance(entry, dict) or entry.get("event") not in EVENTS:
        raise RecordFormatError(f"bad journal event {entry!r}")
    epoch = entry.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise RecordFormatError(f"bad journal epoch {epoch!r}")
    if not isinstance(entry.get("digest", ""), str):
        raise RecordFormatError(f"bad journal digest {entry['digest']!r}")
    return entry


class AuditJournal:
    """Append-only progress log, barriered at every verdict; in-memory
    when no ``backend`` is given."""

    def __init__(self, backend: Optional[StorageBackend] = None):
        self.backend = backend
        self._writer = None
        self.events: List[Dict] = []
        if backend is not None:
            self.events = [
                _check_event(rtype, payload)
                for rtype, payload in backend.load_tolerant(STREAM_NAME, STREAM_KIND)
            ]

    def record(self, event: str, epoch: int, **fields: object) -> None:
        entry: Dict = {"event": event, "epoch": epoch}
        entry.update(fields)
        self.events.append(entry)
        if self.backend is not None:
            if self._writer is None:
                self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
            self._writer.append(RT_JOURNAL_EVENT, pack_json(entry))
            self._writer.sync()

    def close(self) -> None:
        """Seal the backend stream (no-op for an in-memory journal)."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None

    # -- resume queries ----------------------------------------------------

    def last_verified(self) -> int:
        """Highest epoch index with a contiguous verified prefix 0..k, or
        -1 if none: resumption must not trust a verified epoch whose
        predecessors are not all verified."""
        verified = {e["epoch"] for e in self.events if e["event"] == "verified"}
        last = -1
        while last + 1 in verified:
            last += 1
        return last

    def verified_digests(self) -> Dict[int, str]:
        """Checkpoint digest recorded at verification time, per epoch.
        These anchor resumption: a stored checkpoint whose digest was
        recomputed after forging its contents still chains internally,
        but cannot match the digest journalled when it was verified."""
        return {
            e["epoch"]: e["digest"]
            for e in self.events
            if e["event"] == "verified" and "digest" in e
        }

    def rejections(self) -> List[Dict]:
        return [e for e in self.events if e["event"] == "rejected"]
