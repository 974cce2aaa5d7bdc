"""Verified end-of-epoch state, chained by digest (DESIGN.md §6).

A :class:`Checkpoint` records what epoch *k*'s accepted audit proved about
the server's state at the seal point: the final value of every loggable
variable and the committed KV store contents.  Both are extracted from
*re-execution* (the verifier's own computation), never copied from the
advice: variable values come from walking the reconstructed write history
(initializer -> write_observer chain) into the variable dictionary, and
the KV state from replaying the verified write order over the previous
checkpoint's KV map.

Checkpoints form a hash chain: ``digest = H(index, parent_digest, vars,
kv)`` with the genesis parent a fixed constant.  Epoch *k+1*'s audit
initialises from checkpoint *k* (see :class:`repro.verifier.carry.CarryIn`),
so trust in a continuous audit reduces to trust in the chain: resuming
from storage re-verifies every digest, and a tampered stored checkpoint is
rejected as ``checkpoint-chain-forged`` before any epoch is re-audited.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Union

from repro.errors import AdviceFormatError, KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.records import canonical_json
from repro.storage.values import decode_value, encode_value
from repro.server.variables import INIT_HID, INIT_RID, INIT_REF
from repro.verifier.carry import CarryIn
from repro.verifier.preprocess import AuditState
from repro.verifier.reexec import ReExecutor
from repro.verifier.state import VarState

GENESIS_DIGEST = "genesis"


class CheckpointError(KarousosError):
    """A checkpoint could not be extracted, stored, or verified."""


class CheckpointChainError(CheckpointError):
    """A stored checkpoint chain fails digest verification (forgery)."""


def _canonical(encoded: object) -> object:
    """An encoded value with dict pair lists sorted, so the digest does
    not depend on insertion order."""
    if isinstance(encoded, dict):
        if encoded.get("t") == "d":
            pairs = [[_canonical(k), _canonical(v)] for k, v in encoded["v"]]
            # Kept as recorded: ``canonical_json`` would order pairs the same
            # (the texts differ only by a space after a structural "," or ":").
            pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
            return {"t": "d", "v": pairs}
        if "v" in encoded:
            return {**encoded, "v": _canonical(encoded["v"])}
        return encoded
    if isinstance(encoded, list):
        return [_canonical(x) for x in encoded]
    return encoded


class _Fragment(NamedTuple):
    """One ``vars`` / ``kv`` entry as canonical JSON, ``[key,value]``.

    ``digest`` is the entry inside the digest payload (dict pairs
    sorted); ``stored`` is the entry inside the stored record (insertion
    order kept: a carried dict must iterate as the server's did).  They
    are one string unless the value holds a dict that sorting reorders.
    ``value`` is the object both were encoded from.
    """

    value: object
    digest: str
    stored: str


def _fragment(key: str, value: object) -> _Fragment:
    encoded = encode_value(value)
    canonical = _canonical(encoded)
    digest = canonical_json([key, canonical])
    stored = digest if canonical == encoded else canonical_json([key, encoded])
    return _Fragment(value, digest, stored)


class _Fragments(NamedTuple):
    """A checkpoint's entries as fragments, each map in key order."""

    vars: Dict[str, _Fragment]
    kv: Dict[str, _Fragment]


_NOTHING_KNOWN = _Fragments({}, {})


def _fragments(
    vars: Dict[str, object],
    kv: Dict[str, object],
    known: _Fragments = _NOTHING_KNOWN,
) -> _Fragments:
    """Fragments of ``vars`` and ``kv``, taking from ``known`` every entry
    whose value is the *same object* and encoding the rest.

    Identity, never equality: ``1``, ``True`` and ``1.0`` are equal and
    encode differently.  It is sound because carried values are never
    mutated in place -- the invariant that already keeps an in-memory
    checkpoint equal to its stored record."""

    def inherit(
        entries: Dict[str, object], had: Dict[str, _Fragment]
    ) -> Dict[str, _Fragment]:
        out = {}
        for key in sorted(entries):
            value = entries[key]
            fragment = had.get(key)
            if fragment is None or fragment.value is not value:
                fragment = _fragment(key, value)
            out[key] = fragment
        return out

    return _Fragments(inherit(vars, known.vars), inherit(kv, known.kv))


def _digest(index: int, parent_digest: str, fragments: _Fragments) -> str:
    # Byte for byte ``canonical_json`` of {"index", "parent", "vars",
    # "kv"} with the two entry lists in key order.
    payload = '{"index":%s,"kv":[%s],"parent":%s,"vars":[%s]}' % (
        canonical_json(index),
        ",".join(f.digest for f in fragments.kv.values()),
        canonical_json(parent_digest),
        ",".join(f.digest for f in fragments.vars.values()),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute_digest(
    index: int, parent_digest: str, vars: Dict[str, object], kv: Dict[str, object]
) -> str:
    return _digest(index, parent_digest, _fragments(vars, kv))


@dataclass(frozen=True)
class Checkpoint:
    """Verified state at the end of one epoch.

    ``_fragments`` caches the entries' encodings between the moment the
    checkpoint is made and the moment its successor is: the digest, the
    node journal's copy and the store's record are all assembled from
    it, and the successor inherits every entry it did not rewrite.  It
    is never compared, stored or trusted; without it (a decoded
    checkpoint, :meth:`verify`) everything is encoded from the values.
    """

    epoch: int
    parent_digest: str
    vars: Dict[str, object]
    kv: Dict[str, object]
    digest: str
    _fragments: Optional[_Fragments] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def make(
        cls,
        epoch: int,
        parent_digest: str,
        vars: Dict[str, object],
        kv: Dict[str, object],
        inherit: Optional["Checkpoint"] = None,
    ) -> "Checkpoint":
        """The checkpoint over ``vars`` and ``kv``.  ``inherit`` (the
        chain predecessor) hands over its fragment cache, so only entries
        holding a different object than they did there are encoded."""
        known = inherit._fragments if inherit is not None else None
        fragments = _fragments(vars, kv, known or _NOTHING_KNOWN)
        cp = cls(
            epoch=epoch,
            parent_digest=parent_digest,
            vars=dict(vars),
            kv=dict(kv),
            digest=_digest(epoch, parent_digest, fragments),
        )
        object.__setattr__(cp, "_fragments", fragments)
        if inherit is not None:
            # One live cache per chain: memory stays one encoded state.
            object.__setattr__(inherit, "_fragments", None)
        return cp

    def verify(self) -> bool:
        return self.digest == compute_digest(
            self.epoch, self.parent_digest, self.vars, self.kv
        )

    def carry_in(self) -> CarryIn:
        return CarryIn(vars=dict(self.vars), kv=dict(self.kv))


# -- extraction from an accepted audit ---------------------------------------


def _final_var_value(var: VarState) -> object:
    """The value left by the last write in the reconstructed history chain.

    The chain starts at the initializer (the init pseudo-write unless the
    epoch's first write had no predecessor) and follows ``write_observer``;
    for an accepted audit of an honest epoch this is the total order of
    writes, so the chain's endpoint is the server's cell value at seal
    time.  The walk is bounded; a cyclic chain (impossible after an
    accepted audit) raises :class:`CheckpointError`.
    """
    key = var.initializer if var.initializer is not None else INIT_REF
    for _ in range(len(var.write_observer) + 1):
        nxt = var.write_observer.get(key)
        if nxt is None:
            break
        key = nxt
    else:
        raise CheckpointError(
            f"variable {var.var_id!r}: write history chain does not terminate"
        )
    if key == INIT_REF:
        return var.var_dict[(INIT_RID, INIT_HID)][0][1]
    rid, hid, opnum = key
    for w_opnum, value in var.var_dict.get((rid, hid), []):
        if w_opnum == opnum:
            return value
    raise CheckpointError(
        f"variable {var.var_id!r}: chain ends at {key} but no such write "
        f"re-executed"
    )


def checkpoint_from_audit(
    index: int,
    parent: Optional[Checkpoint],
    state: AuditState,
    re_exec: ReExecutor,
) -> Checkpoint:
    """Extract epoch ``index``'s checkpoint from its accepted audit.

    ``parent`` is epoch ``index - 1``'s checkpoint (None at genesis): its
    KV map is the base the epoch's verified write order is replayed over.
    """
    vars: Dict[str, object] = {}
    for var_id, var in re_exec.vars.items():
        if isinstance(var, VarState):
            vars[var_id] = _final_var_value(var)
        # Plain (non-loggable) variables are per-request on the verifier
        # side -- nothing crosses a request boundary, so nothing to carry.
    # The map the audit started from -- the parent's, object for object.
    kv: Dict[str, object] = dict(state.initial_kv)
    for rid, tid, i in state.advice.write_order:
        entry = state.advice.tx_logs[(rid, tid)][i]
        kv[entry.key] = entry.opcontents
    parent_digest = parent.digest if parent is not None else GENESIS_DIGEST
    return Checkpoint.make(index, parent_digest, vars, kv, inherit=parent)


# -- storage -------------------------------------------------------------------


def encode_checkpoint(cp: Checkpoint) -> str:
    # Byte for byte ``canonical_json`` of {"epoch", "parent", "vars",
    # "kv", "digest"} with the two entry lists in key order.
    fragments = cp._fragments or _fragments(cp.vars, cp.kv)
    return '{"digest":%s,"epoch":%s,"kv":[%s],"parent":%s,"vars":[%s]}' % (
        canonical_json(cp.digest),
        canonical_json(cp.epoch),
        ",".join(f.stored for f in fragments.kv.values()),
        canonical_json(cp.parent_digest),
        ",".join(f.stored for f in fragments.vars.values()),
    )


def decode_checkpoint(payload: Union[str, bytes]) -> Checkpoint:
    try:
        doc = json.loads(payload)
        cp = Checkpoint(
            epoch=doc["epoch"],
            parent_digest=doc["parent"],
            vars={k: decode_value(v) for k, v in doc["vars"]},
            kv={k: decode_value(v) for k, v in doc["kv"]},
            digest=doc["digest"],
        )
    except (KeyError, TypeError, ValueError, AdviceFormatError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if (
        not isinstance(cp.epoch, int)
        or isinstance(cp.epoch, bool)
        or cp.epoch < 0
        or not isinstance(cp.parent_digest, str)
        or not isinstance(cp.digest, str)
    ):
        raise CheckpointError("malformed checkpoint: bad epoch or digest field")
    return cp


STREAM_KIND = "checkpoint"
STREAM_NAME = "checkpoints"
RT_CHECKPOINT = 1


class CheckpointStore:
    """Checkpoints by epoch index; in-memory when no ``backend`` is given.

    On a :class:`repro.storage.backend.StorageBackend` the store is one
    append-only ``checkpoints`` record stream, one record per
    :meth:`put`, barriered before :meth:`put` returns so the journal
    never names a checkpoint the store could still lose.  Reopening
    replays the stream (later records for an index win) and recovers a
    torn tail; a whole record that is not a well-formed checkpoint
    raises :class:`CheckpointError`.

    :meth:`verify_chain` recomputes every digest and checks the parent
    links, so tampering with stored state is detected before any carried
    value is trusted.
    """

    def __init__(self, backend: Optional[StorageBackend] = None):
        self.backend = backend
        self._writer = None
        self._by_index: Dict[int, Checkpoint] = {}
        if backend is not None:
            for rtype, payload in backend.load_tolerant(STREAM_NAME, STREAM_KIND):
                if rtype != RT_CHECKPOINT:
                    raise CheckpointError(
                        f"unexpected checkpoint record type {rtype}"
                    )
                cp = decode_checkpoint(payload)
                self._by_index[cp.epoch] = cp

    def __len__(self) -> int:
        return len(self._by_index)

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def get(self, index: int) -> Optional[Checkpoint]:
        return self._by_index.get(index)

    def put(self, cp: Checkpoint) -> None:
        self._by_index[cp.epoch] = cp
        if self.backend is not None:
            if self._writer is None:
                self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
            self._writer.append(
                RT_CHECKPOINT, encode_checkpoint(cp).encode("utf-8")
            )
            self._writer.sync()

    def close(self) -> None:
        """Seal the backend stream (no-op for an in-memory store)."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None

    def latest(self) -> Optional[Checkpoint]:
        if not self._by_index:
            return None
        return self._by_index[max(self._by_index)]

    def verify_chain(self, up_to: Optional[int] = None) -> None:
        """Check digests and parent links for epochs ``0..up_to`` (all
        stored epochs if None); raise :class:`CheckpointChainError` on the
        first inconsistency."""
        if up_to is None:
            up_to = max(self._by_index, default=-1)
        parent = GENESIS_DIGEST
        for index in range(up_to + 1):
            cp = self._by_index.get(index)
            if cp is None:
                raise CheckpointChainError(f"checkpoint {index} missing from chain")
            if cp.parent_digest != parent:
                raise CheckpointChainError(
                    f"checkpoint {index} parent digest does not match "
                    f"checkpoint {index - 1}"
                )
            if not cp.verify():
                raise CheckpointChainError(
                    f"checkpoint {index} digest does not match its contents"
                )
            parent = cp.digest
