"""The node journal: digest-chained per-node completion records
(DESIGN.md §5).

A DAG-driven audit appends one record per completed node to a
``nodes`` record stream (any :class:`repro.storage.backend.StorageBackend`),
flushed per record so a completion that was handed back survives a
kill of the process, and never barriered: it caches re-derivable work,
so when a power loss shortens or damages it the answer is to
re-execute (DESIGN.md §8).  Records are digest-chained
exactly like checkpoints: every record carries its predecessor's digest
and its own ``sha256(canonical_json(record sans digest))``, so
truncation beyond the storage layer's torn-tail window, reordering, or
in-place edits are detected on load and the resume is refused
(``NodeJournalError``) rather than silently trusted.

Record types:

* header -- the plan digest.  A journal is only replayable against the
  exact plan that wrote it: same inputs, same spec, same node IDs.
  Resuming with a different plan digest is refused.
* node -- one completed node: its ID, stage, epoch, group, and (for
  ``reexec`` nodes) the pickled :class:`~repro.verifier.parallel.GroupDelta`,
  or (for ``checkpoint`` nodes) the encoded checkpoint.  Other stages
  record completion without a payload: their outputs are in-memory
  audit state that deterministic re-execution rebuilds for free, so
  resume re-runs them and replays only the expensive reexec frontier.
* verdict -- one epoch's finished :class:`~repro.verifier.pipeline.AuditResult`.
  A resumed run replays recorded verdicts wholesale and skips every
  node of a completed epoch.

Trust model: the journal is auditor-private state, in the same class as
the checkpoint store and the verdict cache -- the chain defends against
corruption and tampering-in-storage, not against an adversary who can
rewrite the auditor binary.  Payloads are pickled (auditor-written,
auditor-read); the digest chain is verified *before* any payload is
unpickled.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError, canonical_json, pack_json, unpack_json

STREAM_NAME = "nodes"
STREAM_KIND = "nodejournal"
RT_HEADER = 1
RT_NODE = 2
RT_VERDICT = 3

GENESIS_DIGEST = "genesis"

PAYLOAD_NONE = "none"
PAYLOAD_DELTA = "delta"
PAYLOAD_CHECKPOINT = "checkpoint"


class NodeJournalError(KarousosError):
    """A node journal is forged, damaged, or belongs to another plan."""


def _record_digest(doc: Dict[str, object]) -> str:
    body = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


@dataclass
class NodeJournalState:
    """Everything a resumed run recovers from the journal."""

    plan_digest: str
    # node_id -> (payload_kind, payload_bytes or None)
    completed: Dict[str, Tuple[str, Optional[bytes]]] = field(default_factory=dict)
    # epoch index -> the verdict document recorded at epoch completion
    verdicts: Dict[int, Dict[str, object]] = field(default_factory=dict)

    def delta_payload(self, node_id: str) -> Optional[bytes]:
        kind, payload = self.completed.get(node_id, (PAYLOAD_NONE, None))
        return payload if kind == PAYLOAD_DELTA else None

    def checkpoint_payload(self, node_id: str) -> Optional[bytes]:
        kind, payload = self.completed.get(node_id, (PAYLOAD_NONE, None))
        return payload if kind == PAYLOAD_CHECKPOINT else None


class NodeJournal:
    """Append-only, digest-chained node completion log on a storage
    backend."""

    def __init__(self, backend: StorageBackend):
        self.backend = backend
        self._writer = None
        self._prev = GENESIS_DIGEST

    # -- writing -----------------------------------------------------------

    def start(self, plan_digest: str) -> None:
        """Begin a fresh journal for ``plan_digest``, discarding any
        previous stream (a non-resume run must not interleave with a
        stale journal)."""
        if self.backend.exists(STREAM_NAME):
            self.backend.delete(STREAM_NAME)
        self._prev = GENESIS_DIGEST
        self._append(RT_HEADER, {"kind": "header", "plan": plan_digest})

    def _append(self, rtype: int, doc: Dict[str, object]) -> None:
        doc["prev"] = self._prev
        doc["digest"] = _record_digest(doc)
        if self._writer is None:
            self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
        self._writer.append(rtype, pack_json(doc))
        self._prev = doc["digest"]  # type: ignore[assignment]

    def record_node(
        self,
        node_id: str,
        stage: str,
        epoch: int,
        group: Optional[str],
        payload_kind: str = PAYLOAD_NONE,
        payload: Optional[bytes] = None,
    ) -> None:
        doc: Dict[str, object] = {
            "kind": "node",
            "node": node_id,
            "stage": stage,
            "epoch": epoch,
            "group": group,
            "payload_kind": payload_kind,
            "payload": (
                base64.b64encode(payload).decode("ascii")
                if payload is not None
                else None
            ),
        }
        self._append(RT_NODE, doc)

    def record_verdict(self, epoch: int, verdict: Dict[str, object]) -> None:
        self._append(RT_VERDICT, {"kind": "verdict", "epoch": epoch,
                                  "verdict": verdict})

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
        if not self.backend.exists(STREAM_NAME):
            raise NodeJournalError("no node journal to resume from")
        try:
            records = self.backend.load_tolerant(STREAM_NAME, STREAM_KIND)
        except RecordFormatError as exc:  # damaged past the torn-tail window
            raise NodeJournalError(f"node journal is damaged: {exc}") from exc
        if not records:
            raise NodeJournalError("node journal is empty")
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
                continue
            if state is None:
                raise NodeJournalError("node journal does not start with a header")
            if rtype == RT_NODE:
                raw = doc.get("payload")
                blob = (
                    base64.b64decode(str(raw).encode("ascii"))
                    if raw is not None
                    else None
                )
                state.completed[str(doc["node"])] = (
                    str(doc.get("payload_kind", PAYLOAD_NONE)), blob
                )
            elif rtype == RT_VERDICT:
                state.verdicts[int(doc["epoch"])] = dict(doc["verdict"])
            else:
                raise NodeJournalError(f"unknown node journal record type {rtype}")
        assert state is not None
        self._prev = prev
        return state


# -- payload codecs ------------------------------------------------------------


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
    "PAYLOAD_CHECKPOINT",
    "PAYLOAD_DELTA",
    "PAYLOAD_NONE",
    "RT_HEADER",
    "RT_NODE",
    "RT_VERDICT",
    "STREAM_KIND",
    "STREAM_NAME",
    "decode_delta",
    "encode_delta",
]
