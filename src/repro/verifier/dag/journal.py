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

Records are binary and digest-chained: a record's payload is its digest
(32 bytes) and then its body, where the digest is
``sha256(previous digest || rtype || body)`` over the raw bytes (the
first record chains to 32 zero bytes).  A header's body is the plan
digest; a delta's is the node ID (a u32 length, then UTF-8) and then
the pickled delta, as pickled.  Truncation beyond the storage layer's
torn-tail window, reordering, a record spliced in from another journal
or an in-place edit breaks the chain on load (``NodeJournalError``), and
the journal is discarded rather than trusted.  A journal is only
replayable against the exact plan that wrote it -- same inputs, same
spec, same node IDs -- which the header's plan digest pins.

Trust model: the journal is auditor-private state, in the same class as
the checkpoint store -- the chain defends against
corruption and tampering-in-storage, not against an adversary who can
rewrite the auditor binary.  Deltas are pickled (auditor-written,
auditor-read); the digest chain is verified *before* any of them is
unpickled.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.records import RecordFormatError

STREAM_NAME = "nodes"
STREAM_KIND = "nodejournal"
RT_HEADER = 1
RT_DELTA = 2

_DIGEST_LEN = 32
GENESIS_DIGEST = bytes(_DIGEST_LEN)
_NODE_LEN = struct.Struct("<I")


class NodeJournalError(KarousosError):
    """A node journal is forged or damaged."""


def _chain(prev: bytes, rtype: int, body: bytes) -> bytes:
    digest = hashlib.sha256(prev)
    digest.update(bytes((rtype,)))
    digest.update(body)
    return digest.digest()


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
        # The plan of the stream this instance started or loaded: its
        # own stream's header, answered without a read.
        self._plan: Optional[str] = None

    # -- writing -----------------------------------------------------------

    def start(self, plan_digest: str) -> None:
        """Begin a fresh journal for ``plan_digest``, discarding any
        previous stream (a restarted journal must not interleave with a
        stale one, nor go to a writer still open on the deleted one)."""
        self.close()
        self._plan = None
        if self.backend.exists(STREAM_NAME):
            self.backend.delete(STREAM_NAME)
        self._prev = GENESIS_DIGEST
        self._append(RT_HEADER, plan_digest.encode("utf-8"))
        self._plan = plan_digest

    def _append(self, rtype: int, body: bytes) -> None:
        digest = _chain(self._prev, rtype, body)
        if self._writer is None:
            self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
        self._writer.append(rtype, digest + body)
        self._prev = digest

    def record_delta(self, node_id: str, payload: bytes) -> None:
        """Journal one completed ``reexec`` node's pickled delta."""
        node = node_id.encode("utf-8")
        self._append(RT_DELTA, _NODE_LEN.pack(len(node)) + node + payload)

    def close(self) -> None:
        """Release the stream; no barrier (see the module docstring)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- loading -----------------------------------------------------------

    def header_plan(self) -> Optional[str]:
        """The plan digest the stored journal's header claims (None
        without a readable header): enough to dismiss another plan's
        journal without verifying the chain it is about to lose.  For
        the stream this instance started or loaded it is answered from
        memory; otherwise from that one record.  :meth:`load` verifies
        all of it before a resume."""
        if self._plan is not None:
            return self._plan
        try:
            with self.backend.reader(STREAM_NAME) as reader:
                rtype, payload = next(iter(reader))
        except (FileNotFoundError, StopIteration, RecordFormatError):
            return None
        if rtype != RT_HEADER:
            return None
        try:
            return payload[_DIGEST_LEN:].decode("utf-8")
        except UnicodeDecodeError:
            return None

    def load(self) -> NodeJournalState:
        """Load and chain-verify the journal (torn tail dropped by the
        storage layer; any other inconsistency raises
        :class:`NodeJournalError`).  No delta is unpickled here."""
        self.close()
        self._plan = None
        try:
            records = self.backend.load_tolerant(STREAM_NAME, STREAM_KIND)
        except RecordFormatError as exc:  # damaged past the torn-tail window
            raise NodeJournalError(f"node journal is damaged: {exc}") from exc
        state: Optional[NodeJournalState] = None
        prev = GENESIS_DIGEST
        for rtype, payload in records:
            digest, body = payload[:_DIGEST_LEN], payload[_DIGEST_LEN:]
            if digest != _chain(prev, rtype, body):
                raise NodeJournalError(
                    "node journal chain broken: record digest or parent "
                    "link does not verify (forged or corrupt journal)"
                )
            prev = digest
            if rtype == RT_HEADER:
                if state is not None:
                    raise NodeJournalError("node journal has two headers")
                state = NodeJournalState(plan_digest=_text(body))
            elif state is None:
                raise NodeJournalError("node journal does not start with a header")
            elif rtype == RT_DELTA:
                if len(body) < _NODE_LEN.size:
                    raise NodeJournalError("malformed delta record: no node ID")
                end = _NODE_LEN.size + _NODE_LEN.unpack_from(body)[0]
                if len(body) < end:
                    raise NodeJournalError("malformed delta record: node ID overruns it")
                state.deltas[_text(body[_NODE_LEN.size:end])] = body[end:]
            else:
                raise NodeJournalError(f"unknown node journal record type {rtype}")
        if state is None:
            raise NodeJournalError("node journal has no header")
        self._prev = prev
        self._plan = state.plan_digest
        return state


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NodeJournalError(f"malformed node journal record: {exc}") from exc


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
