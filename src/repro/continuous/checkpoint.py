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
The store writes each session's first checkpoint whole and every later
one as a delta against its parent; the digest is always over the whole
state, so a delta is trusted exactly as a full record is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.errors import AdviceFormatError, KarousosError
from repro.storage.backend import StorageBackend
from repro.storage.records import canonical_json, json_text
from repro.storage.values import decode_value, value_texts
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
    text, sorted_text = value_texts(value)
    key = json_text(key)
    stored = "[%s,%s]" % (key, text)
    digest = stored if sorted_text is text else "[%s,%s]" % (key, sorted_text)
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


def _stored(now: Dict[str, _Fragment], had: Optional[Dict[str, _Fragment]]) -> str:
    """The stored entries of ``now``; given ``had`` (the entries of the
    record written before), only those whose stored text differs there."""
    if had is None:
        return ",".join(f.stored for f in now.values())
    changed = []
    for key, f in now.items():
        old = had.get(key)
        if old is not f and (old is None or old.stored != f.stored):
            changed.append(f.stored)
    return ",".join(changed)


def _record(cp: Checkpoint, fragments: _Fragments, had: Optional[_Fragments]) -> str:
    # Byte for byte ``canonical_json`` of {"epoch", "parent", "vars",
    # "kv", "digest"} with the two entry lists in key order; a delta
    # (``had`` given) lists only the entries that changed, and adds the
    # keys it no longer has as "drop_kv" / "drop_vars".
    head = '{"digest":%s,' % canonical_json(cp.digest)
    if had is not None:
        head += '"drop_kv":[%s],"drop_vars":[%s],' % (
            ",".join(json_text(k) for k in had.kv if k not in fragments.kv),
            ",".join(json_text(k) for k in had.vars if k not in fragments.vars),
        )
    return '%s"epoch":%s,"kv":[%s],"parent":%s,"vars":[%s]}' % (
        head,
        canonical_json(cp.epoch),
        _stored(fragments.kv, had and had.kv),
        canonical_json(cp.parent_digest),
        _stored(fragments.vars, had and had.vars),
    )


def encode_checkpoint(cp: Checkpoint) -> str:
    """``cp``'s full stored record."""
    return _record(cp, cp._fragments or _fragments(cp.vars, cp.kv), None)


def _entries(doc: dict, name: str, base: Optional[Checkpoint]) -> Dict[str, object]:
    """The ``vars`` or ``kv`` map of a decoded record, in key order; a
    delta's entries and dropped keys patch ``base``'s map, every other
    value object carried over."""
    out: Dict[str, object] = {}
    if base is not None:
        out = dict(getattr(base, name))
        dropped = doc["drop_" + name]
        if not isinstance(dropped, list):
            raise CheckpointError(f"malformed checkpoint: bad drop_{name} list")
        for key in dropped:
            del out[key]
    for key, value in doc[name]:
        if type(key) is not str:
            raise CheckpointError(f"malformed checkpoint: {name} key {key!r} is not a string")
        out[key] = decode_value(value)
    return {key: out[key] for key in sorted(out)}


def _decode(payload: Union[str, bytes], base: Optional[Checkpoint]) -> Checkpoint:
    """The one record reader: a full record, or (``base`` given, the
    checkpoint decoded from the record before) a delta that must extend
    ``base``."""
    try:
        doc = json.loads(payload)
        cp = Checkpoint(
            epoch=doc["epoch"],
            parent_digest=doc["parent"],
            vars=_entries(doc, "vars", base),
            kv=_entries(doc, "kv", base),
            digest=doc["digest"],
        )
    except (KeyError, TypeError, ValueError, RecursionError, AdviceFormatError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if (
        not isinstance(cp.epoch, int)
        or isinstance(cp.epoch, bool)
        or cp.epoch < 0
        or not isinstance(cp.parent_digest, str)
        or not isinstance(cp.digest, str)
    ):
        raise CheckpointError("malformed checkpoint: bad epoch or digest field")
    if base is not None and (cp.parent_digest, cp.epoch) != (base.digest, base.epoch + 1):
        raise CheckpointError(
            f"delta checkpoint {cp.epoch} does not extend the record before it "
            f"(checkpoint {base.epoch})"
        )
    return cp


def decode_checkpoint(payload: Union[str, bytes]) -> Checkpoint:
    """The checkpoint a full record holds."""
    return _decode(payload, None)


STREAM_KIND = "checkpoint"
STREAM_NAME = "checkpoints"
RT_CHECKPOINT = 1  # the whole state
RT_DELTA = 2  # what changed since the record before it, its parent


class CheckpointStore:
    """Checkpoints by epoch index; in-memory when no ``backend`` is given.

    On a :class:`repro.storage.backend.StorageBackend` the store is one
    append-only ``checkpoints`` record stream, one record per
    :meth:`put`, barriered before :meth:`put` returns so the journal
    never names a checkpoint the store could still lose.  The first
    :meth:`put` of a writer session writes the whole state
    (``RT_CHECKPOINT``); every later one that extends the checkpoint
    written before it writes a delta (``RT_DELTA``: the entries whose
    stored text changed, the keys that are gone).  Reopening replays the
    stream (later records for an index win; a delta applies to the
    record right before it, which must be its parent) and recovers a
    torn tail; a whole record that is not a well-formed checkpoint
    raises :class:`CheckpointError`.

    :meth:`verify_chain` recomputes every digest over the whole state
    and checks the parent links, so tampering with stored state -- full
    record or delta -- is detected before any carried value is trusted.
    """

    def __init__(self, backend: Optional[StorageBackend] = None):
        self.backend = backend
        self._writer = None
        # (digest, epoch, entries) of the record this writer session
        # wrote last: the base of the next delta.
        self._written: Optional[Tuple[str, int, _Fragments]] = None
        self._by_index: Dict[int, Checkpoint] = {}
        if backend is not None:
            before: Optional[Checkpoint] = None
            for rtype, payload in backend.load_tolerant(STREAM_NAME, STREAM_KIND):
                if rtype not in (RT_CHECKPOINT, RT_DELTA):
                    raise CheckpointError(
                        f"unexpected checkpoint record type {rtype}"
                    )
                if rtype == RT_DELTA and before is None:
                    raise CheckpointError("a delta checkpoint record opens the stream")
                before = _decode(payload, before if rtype == RT_DELTA else None)
                self._by_index[before.epoch] = before

    def __len__(self) -> int:
        return len(self._by_index)

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def get(self, index: int) -> Optional[Checkpoint]:
        return self._by_index.get(index)

    def put(self, cp: Checkpoint) -> None:
        self._by_index[cp.epoch] = cp
        if self.backend is None:
            return
        if self._writer is None:
            self._writer = self.backend.append(STREAM_NAME, STREAM_KIND)
        digest, epoch, had = self._written or (None, None, _NOTHING_KNOWN)
        fragments = cp._fragments or _fragments(cp.vars, cp.kv, had)
        delta = (digest, epoch) == (cp.parent_digest, cp.epoch - 1)
        self._writer.append(
            RT_DELTA if delta else RT_CHECKPOINT,
            _record(cp, fragments, had if delta else None).encode("utf-8"),
        )
        self._writer.sync()
        self._written = (cp.digest, cp.epoch, fragments)

    def close(self) -> None:
        """Seal the backend stream (no-op for an in-memory store); the
        next :meth:`put` starts a new writer session."""
        if self._writer is not None:
            self._writer.seal()
            self._writer = None
        self._written = None

    def latest(self) -> Optional[Checkpoint]:
        if not self._by_index:
            return None
        return self._by_index[max(self._by_index)]

    def verify_chain(self, up_to: Optional[int] = None) -> None:
        """Check digests and parent links for epochs ``0..up_to`` (all
        stored epochs if None); raise :class:`CheckpointChainError` on the
        first inconsistency.  Each link reuses its predecessor's fragment
        for every entry holding the same object, so a chain reopened from
        deltas encodes what each delta wrote."""
        if up_to is None:
            up_to = max(self._by_index, default=-1)
        parent, known = GENESIS_DIGEST, _NOTHING_KNOWN
        for index in range(up_to + 1):
            cp = self._by_index.get(index)
            if cp is None:
                raise CheckpointChainError(f"checkpoint {index} missing from chain")
            if cp.parent_digest != parent:
                raise CheckpointChainError(
                    f"checkpoint {index} parent digest does not match "
                    f"checkpoint {index - 1}"
                )
            known = _fragments(cp.vars, cp.kv, known)
            if cp.digest != _digest(index, parent, known):
                raise CheckpointChainError(
                    f"checkpoint {index} digest does not match its contents"
                )
            parent = cp.digest
