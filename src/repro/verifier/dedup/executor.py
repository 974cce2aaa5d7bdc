"""Deduplicated re-execution (DESIGN.md §11).

:class:`Deduplicator` wraps the activation digest and the verdict cache
behind the three hooks the audit engine's ``dedup`` and ``merge`` nodes
call -- ``fetch`` (digest + validated lookup + rehydration), ``store``
(normalise a cleanly merged group's effects and cache them), and
``begin_stage``/``finish_stage`` (metrics).

Trust model (why a hit can never flip a verdict):

* only *clean* groups are cached: the group executed without rejection,
  its journal replayed through the canonical merge without conflict, and
  every member's re-executed output equalled the trace's claimed
  response.  The cache stores facts about isolated executions, never
  audit verdicts -- ``_final_checks``, postprocess, isolation, and
  checkpoint extraction always run for real over the merged state;
* a hit is honoured only after revalidation: the entry's self-digest
  (load time), spec version, member count, *output digest against the
  current trace's claimed responses*, and effect digest must all match;
  any failure falls back to full re-execution (counted, never fatal);
* effects are stored rid-normalised with *positional* cross-references:
  external precedence references are re-resolved from the current run's
  advice at rehydration time (spec ``["log"]``), so a replayed claim
  conflicts with exactly the writes the current advice names -- a lying
  advice still REJECTs at the same canonical position;
* the digest pins everything an isolated group execution can observe
  (see :mod:`repro.verifier.dedup.digest`), so digest-equal groups are
  isomorphic up to rid renaming and the fanned-out effects are the ones
  execution would have produced.

The cache itself is auditor-private state, in the same trust class as
the checkpoint store: the integrity machinery defends against
corruption, truncation, staleness, and spec drift -- not against an
adversary with arbitrary write access to the auditor's own disk (who
could equally replace the auditor binary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry
from repro.server.variables import INIT_REF
from repro.storage.records import canonical_json
from repro.storage.values import decode_hid, encode_hid
from repro.verifier.dedup.cache import VERDICT_ACCEPT, VerdictCache, effect_sum, make_entry
from repro.verifier.dedup.digest import (
    DIGEST_SPEC,
    GroupDigest,
    Uncacheable,
    array_text,
    denormalize_value,
    group_digest,
    member_token,
    normalize_value,
    object_text,
    row_text,
)
from repro.verifier.parallel import GroupDelta
from repro.verifier.preprocess import AuditState


class RehydrateMismatch(Exception):
    """A cached entry does not replay against the current run's advice."""


# -- op-key and prec-spec codecs ----------------------------------------------


def _encode_key(key: Any, tokens: Dict[str, str]) -> List[object]:
    rid, hid, opnum = key
    return [tokens.get(rid, rid), encode_hid(hid), opnum]


def _decode_key(spec: Any, detokens: Dict[str, str]) -> Tuple[str, object, int]:
    rid, hid_doc, opnum = spec
    return (detokens.get(rid, rid), decode_hid(hid_doc), int(opnum))


def _write_key_spec(key: Any, member_set: Any, tokens: Dict[str, str]) -> List[object]:
    """``["init"]`` / ``["in", ...coords]`` / ``["log"]`` (external: the
    reference is re-resolved from the current advice at rehydration)."""
    if key == INIT_REF:
        return ["init"]
    if key[0] in member_set:
        return ["in"] + _encode_key(key, tokens)
    return ["log"]


# -- effect normalisation ------------------------------------------------------


def normalize_effect(
    state: AuditState, rids: List[str], delta: GroupDelta, tokens: Dict[str, str]
) -> Tuple[Dict[str, object], str]:
    """The storable, rid-free effect document of one clean group delta,
    and its canonical text (what the effect digest hashes).

    Raises :class:`Uncacheable` when any cross-reference cannot be made
    positional or any member rid survives normalisation (a value embeds
    a rid inside a longer string) -- the group then simply is not cached.
    """
    member_set = set(rids)
    journal: List[List[object]] = []
    for event in delta.journal:
        kind = event[0]
        if kind == "handlers":
            journal.append(["handlers", event[1]])
        elif kind == "claim":
            _, var_id, prec, key = event
            journal.append(
                ["claim", var_id,
                 _write_key_spec(prec, member_set, tokens),
                 _encode_key(key, tokens)]
            )
        elif kind == "fallback":
            _, var_id, prec, key = event
            spec = _write_key_spec(prec, member_set, tokens)
            if spec == ["log"]:
                raise Uncacheable(f"fallback prec {prec!r} escapes the group")
            journal.append(["fallback", var_id, spec, _encode_key(key, tokens)])
        elif kind == "initializer":
            _, var_id, key = event
            journal.append(["initializer", var_id, _encode_key(key, tokens)])
        else:
            raise Uncacheable(f"unknown journal event {kind!r}")

    executed = sorted(
        ([tokens.get(rid, rid), encode_hid(hid)] for rid, hid in delta.executed),
        key=canonical_json,
    )

    # The written values (the bulk of an effect) are encoded once, with
    # their section's text; every other section is encoded once below.
    var_dicts, var_texts = [], []
    for var_id in sorted(delta.var_dicts):
        rows = []
        for (rid, hid), writes in delta.var_dicts[var_id].items():
            handler = [tokens.get(rid, rid), encode_hid(hid)]
            # Write order within a handler is load-bearing
            # (FindNearestRPrecedingWrite): keep it verbatim.
            values = [(opnum, *normalize_value(value, tokens)) for opnum, value in writes]
            rows.append((canonical_json(handler), handler, values))
        rows.sort(key=itemgetter(0))  # by handler only, stable
        var_dicts.append([var_id, [[handler, [[n, enc] for n, enc, _ in values]]
                                   for _, handler, values in rows]])
        var_texts.append(row_text([var_id], array_text(
            "[%s,%s]" % (head, array_text(row_text([n], text) for n, _, text in values))
            for head, _, values in rows
        )))

    read_observers = []
    for var_id in sorted(delta.read_observers):
        rows = []
        for write_key, readers in delta.read_observers[var_id].items():
            rows.append(
                [
                    _write_key_spec(write_key, member_set, tokens),
                    sorted((_encode_key(r, tokens) for r in readers),
                           key=canonical_json),
                ]
            )
        rows.sort(key=canonical_json)
        read_observers.append([var_id, rows])

    consumed = []
    for var_id in sorted(delta.consumed):
        consumed.append(
            [
                var_id,
                sorted((_encode_key(k, tokens) for k in delta.consumed[var_id]),
                       key=canonical_json),
            ]
        )

    plain_values = [
        [var_id, sorted(
            ([tokens.get(rid, rid), normalize_value(value, tokens)[0]]
             for rid, value in delta.plain_values[var_id].items()),
            key=canonical_json,
        )]
        for var_id in sorted(delta.plain_values)
    ]

    effect = {
        "journal": journal,
        "executed": executed,
        "var_dicts": var_dicts,
        "read_observers": read_observers,
        "consumed": consumed,
        "plain_values": plain_values,
    }
    serialized = object_text(
        journal=canonical_json(journal),
        executed=canonical_json(executed),
        var_dicts=array_text(var_texts),
        read_observers=canonical_json(read_observers),
        consumed=canonical_json(consumed),
        plain_values=canonical_json(plain_values),
    )
    for rid in rids:
        if rid in serialized:
            raise Uncacheable(f"member rid {rid!r} survives normalisation")
    return effect, serialized


# -- rehydration ---------------------------------------------------------------


def rehydrate_delta(
    state: AuditState,
    tag: str,
    rids: List[str],
    entry: Dict[str, object],
) -> GroupDelta:
    """Rebuild a :class:`GroupDelta` for this run from a cached entry.

    Outputs are set to the trace's claimed responses -- provably what
    execution would produce, since entries are only written for groups
    whose executed outputs matched the claims (and the entry's output
    digest was revalidated against the current claims before this runs).
    External precedence references (``["log"]`` specs) resolve against
    the *current* advice; anything that does not line up raises
    :class:`RehydrateMismatch`, and the caller re-executes in full.
    """
    detokens = {member_token(i): rid for i, rid in enumerate(rids)}
    logs = state.advice.variable_logs

    def resolve_write_key(var_id: str, spec: Any) -> Any:
        if spec[0] == "init":
            return INIT_REF
        if spec[0] == "in":
            return _decode_key(spec[1:], detokens)
        raise RehydrateMismatch(f"unresolvable write key spec {spec!r}")

    def resolve_prec_from_log(var_id: str, key: Any) -> Any:
        log_entry = logs.get(var_id, {}).get(key)
        if log_entry is None or log_entry.prec is None:
            raise RehydrateMismatch(
                f"advice no longer logs a prec at {key!r} for {var_id!r}"
            )
        return log_entry.prec

    try:
        delta = GroupDelta(tag=tag)
        for event in entry["effect"]["journal"]:
            kind = event[0]
            if kind == "handlers":
                delta.journal.append(("handlers", int(event[1])))
            elif kind == "claim":
                _, var_id, prec_spec, key_spec = event
                key = _decode_key(key_spec, detokens)
                if prec_spec[0] == "log":
                    prec = resolve_prec_from_log(var_id, key)
                else:
                    prec = resolve_write_key(var_id, prec_spec)
                delta.journal.append(("claim", var_id, prec, key))
            elif kind == "fallback":
                _, var_id, prec_spec, key_spec = event
                delta.journal.append(
                    ("fallback", var_id,
                     resolve_write_key(var_id, prec_spec),
                     _decode_key(key_spec, detokens))
                )
            elif kind == "initializer":
                _, var_id, key_spec = event
                delta.journal.append(
                    ("initializer", var_id, _decode_key(key_spec, detokens))
                )
            else:
                raise RehydrateMismatch(f"unknown journal event {kind!r}")

        delta.executed = {
            (detokens.get(rid, rid), decode_hid(hid_doc))
            for rid, hid_doc in entry["effect"]["executed"]
        }
        delta.outputs = {rid: state.trace.response(rid) for rid in rids}
        for var_id, rows in entry["effect"]["var_dicts"]:
            var_dict = {}
            for (rid, hid_doc), writes in rows:
                var_dict[(detokens.get(rid, rid), decode_hid(hid_doc))] = [
                    (int(opnum), denormalize_value(value, detokens))
                    for opnum, value in writes
                ]
            delta.var_dicts[var_id] = var_dict
        for var_id, rows in entry["effect"]["read_observers"]:
            observers = {}
            for write_spec, readers in rows:
                decoded = [_decode_key(r, detokens) for r in readers]
                if write_spec[0] == "log":
                    for reader in decoded:
                        prec = resolve_prec_from_log(var_id, reader)
                        observers.setdefault(prec, set()).add(reader)
                else:
                    write_key = resolve_write_key(var_id, write_spec)
                    observers.setdefault(write_key, set()).update(decoded)
            delta.read_observers[var_id] = observers
        for var_id, keys in entry["effect"]["consumed"]:
            delta.consumed[var_id] = {_decode_key(k, detokens) for k in keys}
        for var_id, rows in entry["effect"]["plain_values"]:
            delta.plain_values[var_id] = {
                detokens.get(rid, rid): denormalize_value(value, detokens)
                for rid, value in rows
            }
    except RehydrateMismatch:
        raise
    except Exception as exc:
        raise RehydrateMismatch(f"malformed cache entry: {exc}") from exc
    return delta


# -- the deduplicator ----------------------------------------------------------


@dataclass
class StageStats:
    """One reexec stage's dedup accounting."""

    hits_memo: int = 0
    hits_cache: int = 0
    misses: int = 0
    fallbacks: int = 0
    uncacheable: int = 0
    saved_handlers: List[int] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return self.hits_memo + self.hits_cache


class Deduplicator:
    """Content-addressed re-execution dedup.

    ``cache=None`` disables the verdict cache (the CLI's ``--no-cache``)
    but keeps the in-run memo: digest-identical groups within one stage
    run still execute once and fan out.  One Deduplicator may serve many
    audits (the continuous auditor shares one across epochs; the CLI
    shares one across a ``--epochs`` stream), and the memo spans its
    whole lifetime.
    """

    def __init__(self, cache: Optional[VerdictCache] = None):
        self.cache = cache
        self.memo: Dict[str, Dict[str, object]] = {}
        self.stage_stats: Optional[StageStats] = None

    # -- stage accounting -------------------------------------------------------

    def begin_stage(self) -> StageStats:
        self.stage_stats = StageStats()
        return self.stage_stats

    def finish_stage(self, metrics: MetricsRegistry) -> None:
        stats = self.stage_stats
        if stats is None:
            return
        metrics.counter("reexec.cache_hits").inc(stats.hits_cache)
        metrics.counter("reexec.cache_misses").inc(stats.misses)
        metrics.counter("reexec.dedup_groups").inc(stats.hits)
        metrics.counter("reexec.cache_fallbacks").inc(stats.fallbacks)
        metrics.counter("reexec.uncacheable_groups").inc(stats.uncacheable)
        total = stats.hits + stats.misses
        if total:
            metrics.gauge("reexec.dedup_ratio").set(stats.hits / total)
        for saved in stats.saved_handlers:
            metrics.histogram("reexec.dedup_saved_handlers").observe(saved)
        self.stage_stats = None

    def _count(self, name: str, amount: int = 1) -> None:
        if self.stage_stats is not None:
            setattr(
                self.stage_stats, name, getattr(self.stage_stats, name) + amount
            )

    # -- lookup -----------------------------------------------------------------

    def fetch(
        self, state: AuditState, tag: str, rids: List[str]
    ) -> Tuple[Optional[GroupDigest], Optional[GroupDelta]]:
        """Digest the group and return a rehydrated delta on a validated
        hit.  ``(None, None)``: uncacheable; ``(digest, None)``: miss --
        execute in full (and offer the clean result to :meth:`store`)."""
        digest = group_digest(state, rids)
        if digest is None:
            self._count("uncacheable")
            self._count("misses")
            return None, None
        sources = [("memo", self.memo.get(digest.key))]
        if self.cache is not None:
            sources.append(("cache", self.cache.get(digest.key)))
        for source, entry in sources:
            if entry is None:
                continue
            if not self._validate(digest, entry, len(rids)):
                self._count("fallbacks")
                continue
            try:
                delta = rehydrate_delta(state, tag, rids, entry)
            except RehydrateMismatch:
                self._count("fallbacks")
                continue
            self._count("hits_memo" if source == "memo" else "hits_cache")
            if self.stage_stats is not None:
                self.stage_stats.saved_handlers.append(
                    int(entry.get("handlers", 0))
                )
            return digest, delta
        self._count("misses")
        return digest, None

    @staticmethod
    def _validate(digest: GroupDigest, entry: Dict[str, object], members: int) -> bool:
        try:
            return (
                entry["spec"] == DIGEST_SPEC
                and entry["verdict"] == VERDICT_ACCEPT
                and entry["members"] == members
                and entry["output_digest"] == digest.output_digest
                and effect_sum(entry["effect"]) == entry["effect_digest"]
            )
        except (KeyError, TypeError):
            return False

    # -- store ------------------------------------------------------------------

    def store(
        self,
        state: AuditState,
        rids: List[str],
        digest: GroupDigest,
        delta: GroupDelta,
    ) -> bool:
        """Cache one *cleanly merged* group.  Only groups whose executed
        outputs equal the trace's claimed responses are eligible --
        rehydration feeds the claims back, so caching a group whose
        output diverged would flip a later ``output-mismatch`` REJECT."""
        if delta.rejection is not None or digest.key in self.memo:
            return False
        try:
            for rid in rids:
                if rid not in delta.outputs:
                    return False
                if delta.outputs[rid] != state.trace.response(rid):
                    return False
            handlers = sum(e[1] for e in delta.journal if e[0] == "handlers")
            effect, effect_text = normalize_effect(state, rids, delta, digest.tokens)
            entry = make_entry(
                key=digest.key,
                members=len(rids),
                handlers=handlers,
                output_digest=digest.output_digest,
                effect=effect,
                effect_text=effect_text,
            )
        except Exception:
            # Unencodable effects keep the group out of the cache; it
            # just re-executes next time.
            return False
        self.memo[digest.key] = entry
        if self.cache is not None:
            self.cache.put(entry, effect_text)
        return True

    def close(self) -> None:
        if self.cache is not None:
            self.cache.close()


__all__ = [
    "Deduplicator",
    "RehydrateMismatch",
    "StageStats",
    "normalize_effect",
    "rehydrate_delta",
]
