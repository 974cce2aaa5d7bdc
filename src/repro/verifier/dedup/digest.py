"""The ``repro.digest/1`` activation digest (DESIGN.md §11).

A re-execution group is *value-isolated* (see :mod:`repro.verifier.parallel`):
what it computes is a pure function of

* the application's handler code (and the init function),
* the group's trace slice (routes, inputs, claimed responses),
* the group's advice slice (opcounts, handler logs, variable-log and
  tx-log entries, nondet values, responseEmittedBy), with every value a
  logged read would be *fed* resolved inline -- an external dictating
  write contributes its value, a GET of the initial store contributes
  the carried-in value under its key,
* the initial/carry-in variable state.

This module canonicalises exactly that closure into one SHA-256.  Two
groups with equal digests re-execute identically up to renaming of their
request ids: member rids are replaced by positional tokens before
hashing, so the digest is stable across runs, epochs, and machines.

Conservatism is always allowed and never unsound: any value the spec
cannot canonicalise (unencodable types, malformed cross-references)
makes the group *uncacheable* (``group_digest`` returns None) -- it
simply re-executes, as without the subsystem.  The one direction that
matters is that digest-equal groups really are isomorphic; everything a
group execution consults is covered by the document below, and the
golden tests pin the canonicalisation so an accidental change fails
loudly instead of silently cold-starting (or worse, aliasing) caches.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.advice.records import TX_GET
from repro.kem.program import AppSpec, request_event
from repro.server.variables import INIT_REF
from repro.storage.values import encode_hid, encode_tid, encode_value
from repro.verifier.preprocess import AuditState

DIGEST_SPEC = "repro.digest/1"

# Positional member tokens: NUL bytes cannot appear in collector rids or
# app-level strings, so substitution is collision-free and the residue
# check below (executor.py) can treat any surviving member rid as proof
# that a value embeds a rid inside a longer string.
def member_token(index: int) -> str:
    return f"\x00grp{index}\x00"


class GroupDigest:
    """One group's activation digest plus the revalidation anchors."""

    __slots__ = ("key", "output_digest", "tokens")

    def __init__(self, key: str, output_digest: str, tokens: Dict[str, str]):
        self.key = key
        self.output_digest = output_digest
        self.tokens = tokens  # rid -> token


# -- canonical JSON ------------------------------------------------------------


def canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sort_encoded(doc: object) -> object:
    """Sort encoded dict pair lists so hashing ignores insertion order
    (the checkpoint digest's idiom)."""
    if isinstance(doc, dict):
        if doc.get("t") == "d":
            pairs = [[_sort_encoded(k), _sort_encoded(v)] for k, v in doc["v"]]
            pairs.sort(key=lambda kv: canonical_json(kv[0]))
            return {"t": "d", "v": pairs}
        if "v" in doc:
            return {**doc, "v": _sort_encoded(doc["v"])}
        return doc
    if isinstance(doc, list):
        return [_sort_encoded(x) for x in doc]
    return doc


def normalize_value(value: object, tokens: Dict[str, str]) -> object:
    """Tagged canonical encoding of ``value`` with member rids tokenised.

    Raises (via :func:`repro.storage.values.encode_value`) on types the
    storage codec cannot represent -- callers treat that as uncacheable.
    """
    return _sort_encoded(encode_value(_substitute(value, tokens)))


def _substitute(value: object, mapping: Dict[str, str]) -> object:
    if isinstance(value, str):
        return mapping.get(value, value)
    if isinstance(value, dict):
        return {
            _substitute(k, mapping): _substitute(v, mapping)
            for k, v in value.items()
        }
    if isinstance(value, tuple):
        return tuple(_substitute(v, mapping) for v in value)
    if isinstance(value, list):
        return [_substitute(v, mapping) for v in value]
    return value


def denormalize_value(encoded: object, detokens: Dict[str, str]) -> object:
    """Inverse of :func:`normalize_value` given token -> rid."""
    from repro.storage.values import decode_value

    return _substitute(decode_value(encoded), detokens)


def value_hash(value: object, tokens: Dict[str, str]) -> str:
    payload = canonical_json(normalize_value(value, tokens))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- application code identity -------------------------------------------------

_FP_CACHE: Dict[int, Tuple[AppSpec, str]] = {}


def _callable_identity(fn: Any) -> List[object]:
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        if code is None:
            source = repr(fn)
        else:
            source = code.co_code.hex() + repr(code.co_consts)
    parts: List[object] = [source]
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append(repr(defaults))
    closure = getattr(fn, "__closure__", None)
    if closure:
        # Cell contents repr: closures over mutable state get an
        # address-bearing repr, which only makes the app cache-cold per
        # process -- conservative, never unsound.
        parts.append(repr([cell.cell_contents for cell in closure]))
    return parts


def app_fingerprint(app: AppSpec) -> str:
    """SHA-256 over the app's code identity (functions + init + name)."""
    cached = _FP_CACHE.get(id(app))
    if cached is not None and cached[0] is app:
        return cached[1]
    doc = {
        "name": app.name,
        "functions": [
            [fid, _callable_identity(app.functions[fid])]
            for fid in sorted(app.functions)
        ],
        "init": _callable_identity(app.init),
    }
    fingerprint = hashlib.sha256(
        canonical_json(doc).encode("utf-8")
    ).hexdigest()
    _FP_CACHE[id(app)] = (app, fingerprint)
    return fingerprint


# -- per-group advice/trace slices ---------------------------------------------


def _norm_key(key: Any, tokens: Dict[str, str]) -> List[object]:
    rid, hid, opnum = key
    return [tokens.get(rid, rid), encode_hid(hid), opnum]


def _prec_spec(
    var_log: Any, prec: Any, member_set: Any, tokens: Dict[str, str]
) -> List[object]:
    """How a variable-log entry's ``prec`` reference enters the digest.

    In-group and init references are positional; an *external* reference
    contributes the access kind and value of the dictating entry it
    resolves to (that is what re-execution feeds the read), never its
    coordinates -- so groups in different epochs reading the same value
    digest equal.  A dangling external reference is uncacheable: its
    rejection-vs-feed outcome depends on state outside the slice.
    """
    if prec is None:
        return ["none"]
    if prec == INIT_REF:
        return ["init"]
    if prec[0] in member_set:
        return ["in"] + _norm_key(prec, tokens)
    dictating = var_log.get(prec)
    if dictating is None:
        raise _Uncacheable(f"dangling external prec {prec!r}")
    return ["ext", dictating.access, normalize_value(dictating.value, tokens)]


class _Uncacheable(Exception):
    """Internal: this group cannot be canonically digested."""


def _requests_doc(state: AuditState, rids: List[str], tokens: Dict[str, str]) -> List[object]:
    doc = []
    for rid in rids:
        request = state.trace.request(rid)
        doc.append(
            [
                request.route,
                normalize_value(dict(request.inputs), tokens),
                normalize_value(state.trace.response(rid), tokens),
            ]
        )
    return doc


def _advice_doc(
    state: AuditState, rids: List[str], member_set: Any, tokens: Dict[str, str]
) -> Dict[str, object]:
    advice = state.advice
    opcounts = []
    for (rid, hid), count in advice.opcounts.items():
        if rid in member_set:
            opcounts.append([tokens[rid], encode_hid(hid), count])
    opcounts.sort(key=canonical_json)

    handler_logs = []
    for rid in rids:
        entries = [
            [encode_hid(e.hid), e.opnum, e.optype, e.event, e.function_id]
            for e in advice.handler_logs.get(rid, [])
        ]
        handler_logs.append([tokens[rid], entries])

    variable_logs = []
    for var_id in sorted(advice.variable_logs):
        log = advice.variable_logs[var_id]
        for key in log:
            if key[0] not in member_set:
                continue
            entry = log[key]
            variable_logs.append(
                [
                    var_id,
                    _norm_key(key, tokens),
                    entry.access,
                    normalize_value(entry.value, tokens),
                    _prec_spec(log, entry.prec, member_set, tokens),
                ]
            )
    variable_logs.sort(key=canonical_json)

    tx_logs = []
    for (rid, tid), log in advice.tx_logs.items():
        if rid not in member_set:
            continue
        entries = []
        for entry in log:
            if entry.optype == TX_GET:
                contents = _get_contents_spec(state, entry, member_set, tokens)
            else:
                contents = ["v", normalize_value(entry.opcontents, tokens)]
            entries.append(
                [
                    encode_hid(entry.hid),
                    entry.opnum,
                    entry.optype,
                    normalize_value(entry.key, tokens),
                    contents,
                ]
            )
        tx_logs.append([tokens[rid], encode_tid(tid), entries])
    tx_logs.sort(key=canonical_json)

    responses = []
    for rid in rids:
        claimed = advice.response_emitted_by.get(rid)
        if claimed is None:
            responses.append([tokens[rid], None])
        else:
            responses.append([tokens[rid], encode_hid(claimed[0]), claimed[1]])

    nondet = []
    for key, value in advice.nondet.items():
        if key[0] in member_set:
            nondet.append([_norm_key(key, tokens), normalize_value(value, tokens)])
    nondet.sort(key=canonical_json)

    activated = []
    for key, children in state.activated_handlers.items():
        if key[0] in member_set:
            activated.append(
                [_norm_key(key, tokens), [encode_hid(c) for c in children]]
            )
    activated.sort(key=canonical_json)

    return {
        "opcounts": opcounts,
        "handler_logs": handler_logs,
        "variable_logs": variable_logs,
        "tx_logs": tx_logs,
        "responses": responses,
        "nondet": nondet,
        "activated": activated,
    }


def _get_contents_spec(
    state: AuditState, entry: Any, member_set: Any, tokens: Dict[str, str]
) -> List[object]:
    """A TX_GET's fed value: the carried-in store value for an initial
    read, a positional reference for an in-group dictating PUT, and the
    *resolved value* for an external one."""
    if entry.opcontents is None:
        return ["initkv", normalize_value(state.initial_kv.get(entry.key), tokens)]
    rid_w, tid_w, i_w = entry.opcontents
    if rid_w in member_set:
        return ["in", tokens[rid_w], encode_tid(tid_w), i_w]
    log = state.advice.tx_logs.get((rid_w, tid_w))
    if log is None or not 0 <= i_w < len(log):
        raise _Uncacheable(f"dangling external tx reference {entry.opcontents!r}")
    return ["ext", normalize_value(log[i_w].opcontents, tokens)]


def _init_doc(state: AuditState, tokens: Dict[str, str]) -> Dict[str, object]:
    """The init slice of the digest document."""
    init_ctx = state.init_ctx
    return {
        "global_handlers": list(map(list, init_ctx.global_handlers)),
        "initial_vars": sorted(
            (
                [var_id, normalize_value(value, tokens)]
                for var_id, value in init_ctx.initial_vars.items()
            ),
            key=lambda pair: pair[0],
        ),
        "loggable": sorted(
            [var_id, bool(flag)] for var_id, flag in init_ctx.loggable.items()
        ),
    }


# -- the digest ----------------------------------------------------------------


def group_digest(state: AuditState, rids: List[str]) -> Optional[GroupDigest]:
    """The ``repro.digest/1`` digest of one group, or None (uncacheable).

    ``rids`` is the group's member list in the advice's canonical
    (sorted) order; member position defines the rid tokens.
    """
    tokens = {rid: member_token(i) for i, rid in enumerate(rids)}
    member_set = set(rids)
    try:
        requests = _requests_doc(state, rids, tokens)
        route = state.trace.request(rids[0]).route
        doc = {
            "spec": DIGEST_SPEC,
            "app": app_fingerprint(state.app),
            "members": len(rids),
            "requests": requests,
            "event": request_event(route),
            "advice": _advice_doc(state, rids, member_set, tokens),
            "init": _init_doc(state, tokens),
        }
        key = hashlib.sha256(
            canonical_json(doc).encode("utf-8")
        ).hexdigest()
        output_digest = value_hash(
            [state.trace.response(rid) for rid in rids], tokens
        )
    except Exception:
        # Anything the spec cannot canonicalise (unencodable values,
        # malformed cross-references, missing trace rows) simply keeps
        # the group out of the cache: it re-executes in full.
        return None
    return GroupDigest(key=key, output_digest=output_digest, tokens=tokens)


__all__ = [
    "DIGEST_SPEC",
    "GroupDigest",
    "app_fingerprint",
    "canonical_json",
    "denormalize_value",
    "group_digest",
    "member_token",
    "normalize_value",
    "value_hash",
]
