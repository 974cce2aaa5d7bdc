"""The node journal: one digest-chained record per re-executed group
(DESIGN.md §5).

A DAG-driven audit appends a header naming its plan, then one record
per completed ``reexec`` node carrying the pickled
:class:`~repro.verifier.parallel.GroupDelta`, to a ``nodes`` record
stream (any :class:`repro.storage.backend.StorageBackend`).  That is
everything resume reads: a resumed audit replays these deltas instead of
re-executing their groups, and re-runs the cheap deterministic stages
(preprocess, isolation, merge, postprocess, checkpoint), which rebuild
the verdict and the checkpoint from them.  Records are flushed per
record, so a completion that was handed back survives a kill of the
process, and never barriered: the journal caches re-derivable work, so
when a power loss shortens or damages it the answer is to re-execute
(DESIGN.md §8).

Records are digest-chained exactly like checkpoints: every record
carries its predecessor's digest and its own
``sha256(canonical_json(record sans digest))``, so truncation beyond the
storage layer's torn-tail window, reordering, or in-place edits are
detected on load (``NodeJournalError``) and the journal is discarded
rather than trusted.  A journal is only replayable against the exact
plan that wrote it -- same inputs, same spec, same node IDs -- which the
header's plan digest pins.

Trust model: the journal is auditor-private state, in the same class as
the checkpoint store -- the chain defends against
corruption and tampering-in-storage, not against an adversary who can
rewrite the auditor binary.  Deltas are pickled (auditor-written,
auditor-read); the digest chain is verified *before* any of them is
unpickled.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError, canonical_json, pack_json, unpack_json

STREAM_NAME = "nodes"
STREAM_KIND = "nodejournal"
RT_HEADER = 1
RT_DELTA = 2

GENESIS_DIGEST = "genesis"


class NodeJournalError(KarousosError):
    """A node journal is forged or damaged."""


def _record_digest(doc: Dict[str, object]) -> str:
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


@dataclass
class NodeJournalState:
    """Everything a resumed run recovers from the journal."""

    plan_digest: str
    # reexec node ID -> its pickled GroupDelta
    deltas: Dict[str, bytes] = field(default_factory=dict)


class NodeJournal:
    """Append-only, digest-chained log of re-executed groups on a
    storage backend."""

    def __init__(self, backend: StorageBackend):
        self.backend = backend
        self._writer = None
        self._prev = GENESIS_DIGEST

    # -- writing -----------------------------------------------------------

    def start(self, plan_digest: str) -> None:
        """Begin a fresh journal for ``plan_digest``, discarding any
        previous stream (a restarted journal must not interleave with a
        stale one)."""
        if self.backend.exists(STREAM_NAME):
            self.backend.delete(STREAM_NAME)
        self._prev = GENESIS_DIGEST
        self._append(RT_HEADER, {"plan": plan_digest})

    def _append(self, rtype: int, doc: Dict[str, object]) -> None:
        doc["prev"] = self._prev
        doc["digest"] = _record_digest(doc)
        if self._writer is None:
            self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
        self._writer.append(rtype, pack_json(doc))
        self._prev = doc["digest"]  # type: ignore[assignment]

    def record_delta(self, node_id: str, payload: bytes) -> None:
        """Journal one completed ``reexec`` node's pickled delta."""
        self._append(
            RT_DELTA,
            {"node": node_id, "delta": base64.b64encode(payload).decode("ascii")},
        )

    def close(self) -> None:
        """Release the stream; no barrier (see the module docstring)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- loading -----------------------------------------------------------

    def header_plan(self) -> Optional[object]:
        """The plan digest the stored journal's header claims (None
        without a readable header), from that one record: enough to
        dismiss another plan's journal without verifying the chain it is
        about to lose.  :meth:`load` verifies all of it before a resume."""
        try:
            with self.backend.reader(STREAM_NAME) as reader:
                rtype, payload = next(iter(reader))
                doc = unpack_json(payload)
        except (FileNotFoundError, StopIteration, RecordFormatError):
            return None
        return doc.get("plan") if rtype == RT_HEADER and isinstance(doc, dict) else None

    def load(self) -> NodeJournalState:
        """Load and chain-verify the journal (torn tail dropped by the
        storage layer; any other inconsistency raises
        :class:`NodeJournalError`)."""
        try:
            records = self.backend.load_tolerant(STREAM_NAME, STREAM_KIND)
        except RecordFormatError as exc:  # damaged past the torn-tail window
            raise NodeJournalError(f"node journal is damaged: {exc}") from exc
        state: Optional[NodeJournalState] = None
        prev = GENESIS_DIGEST
        for rtype, payload in records:
            doc = unpack_json(payload)
            if not isinstance(doc, dict):
                raise NodeJournalError("node journal record is not an object")
            if doc.get("prev") != prev or doc.get("digest") != _record_digest(doc):
                raise NodeJournalError(
                    "node journal chain broken: record digest or parent "
                    "link does not verify (forged or corrupt journal)"
                )
            prev = doc["digest"]
            if rtype == RT_HEADER:
                if state is not None:
                    raise NodeJournalError("node journal has two headers")
                state = NodeJournalState(plan_digest=str(doc.get("plan", "")))
            elif state is None:
                raise NodeJournalError("node journal does not start with a header")
            elif rtype == RT_DELTA:
                try:
                    blob = base64.b64decode(str(doc["delta"]), validate=True)
                except (KeyError, ValueError) as exc:
                    raise NodeJournalError(f"malformed delta record: {exc}") from exc
                state.deltas[str(doc.get("node"))] = blob
            else:
                raise NodeJournalError(f"unknown node journal record type {rtype}")
        if state is None:
            raise NodeJournalError("node journal has no header")
        self._prev = prev
        return state


# -- the delta codec -----------------------------------------------------------


def encode_delta(delta: object) -> Optional[bytes]:
    """Pickle a GroupDelta, or None when it cannot cross a restart (the
    node then simply re-executes on resume -- sound, just not saved)."""
    try:
        return pickle.dumps(delta)
    except Exception:
        return None


def decode_delta(payload: bytes) -> object:
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise NodeJournalError(f"journaled delta does not decode: {exc}") from exc


__all__ = [
    "GENESIS_DIGEST",
    "NodeJournal",
    "NodeJournalError",
    "NodeJournalState",
    "RT_DELTA",
    "RT_HEADER",
    "STREAM_KIND",
    "STREAM_NAME",
    "decode_delta",
    "encode_delta",
]
