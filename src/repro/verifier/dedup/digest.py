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
cannot canonicalise (unencodable types, NUL in a string, malformed
cross-references) makes the group *uncacheable* (``group_digest``
returns None) -- it simply re-executes, as without the subsystem.  The
one direction that matters is that digest-equal groups really are
isomorphic; everything a group execution consults is covered by the
document below, and the golden tests pin the canonicalisation so an
accidental change fails loudly instead of silently cold-starting (or
worse, aliasing) caches.
"""

from __future__ import annotations

import hashlib
import inspect
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.advice.records import TX_GET
from repro.core.ids import TxId
from repro.kem.program import AppSpec, request_event
from repro.server.variables import INIT_REF
from repro.storage.records import canonical_json
from repro.storage.values import decode_value, encode_hid, encode_tid
from repro.verifier.preprocess import AuditState

DIGEST_SPEC = "repro.digest/1"

# Positional member tokens.  Values are untrusted, so a string holding NUL
# is uncacheable (:func:`text_normaliser`): a token in a normalised value
# is then always a member rid, and the residue check (executor.py) can
# treat any surviving member rid as a rid inside a longer string.
def member_token(index: int) -> str:
    return f"\x00grp{index}\x00"


class GroupDigest:
    """One group's activation digest plus the revalidation anchors."""

    __slots__ = ("key", "output_digest", "tokens")

    def __init__(self, key: str, output_digest: str, tokens: Dict[str, str]):
        self.key = key
        self.output_digest = output_digest
        self.tokens = tokens  # rid -> token


class Uncacheable(Exception):
    """This group cannot be canonically digested or its effect stored."""


# -- canonical text ------------------------------------------------------------


Normaliser = Callable[[object], str]


def text_normaliser(tokens: Dict[str, str]) -> Normaliser:
    """An encoder of a value's canonical text: the compact JSON of its
    tagged storage encoding with the member rids in ``tokens`` replaced
    by their tokens and dict pairs ordered by key text.  Raises on
    unencodable types and NUL (:func:`member_token`): uncacheable."""

    def text(value: object) -> str:
        if isinstance(value, str):
            token = tokens.get(value)
            if token is None:
                if "\x00" in value:
                    raise Uncacheable("NUL in a value string")
                token = value
            return '{"t":"p","v":%s}' % encode_basestring_ascii(token)
        if isinstance(value, dict):
            rows = sorted(  # stable: equal key texts keep their order
                [(text(k), text(v)) for k, v in value.items()], key=itemgetter(0)
            )
            return '{"t":"d","v":[%s]}' % ",".join([f"[{k},{v}]" for k, v in rows])
        if isinstance(value, (list, tuple)):
            return '{"t":"%s","v":[%s]}' % (
                "t" if isinstance(value, tuple) else "l",
                ",".join([text(v) for v in value]),
            )
        if value is None or value is True or value is False:
            return '{"t":"p","v":%s}' % ("null" if value is None else str(value).lower())
        if isinstance(value, int):
            return '{"t":"p","v":%s}' % int.__repr__(value)  # json's text for any int
        if isinstance(value, float):
            return '{"t":"p","v":%s}' % canonical_json(value)  # and for NaN, inf
        if isinstance(value, TxId):
            return '{"t":"x","v":%s}' % canonical_json(encode_tid(value))
        raise Uncacheable(f"unencodable value of type {type(value).__name__}")

    return text


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
    """The value whose normalised text parses to ``encoded``, given
    token -> rid."""
    return _substitute(decode_value(encoded), detokens)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_text(plain: List[object], *texts: str) -> str:
    """Canonical text of the list ``plain + texts`` (``plain`` non-empty,
    ``texts`` canonical already).  Row texts sort in the order that
    ``sort(key=canonical_json)`` gives the rows."""
    return "[%s]" % ",".join((canonical_json(plain)[1:-1],) + texts)


def array_text(texts: Iterable[str]) -> str:
    return "[%s]" % ",".join(texts)


def object_text(**fields: str) -> str:
    """Canonical text of an object whose field values are canonical text."""
    return "{%s}" % ",".join(
        f"{encode_basestring_ascii(name)}:{fields[name]}" for name in sorted(fields)
    )


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
    fingerprint = sha256_text(canonical_json(doc))
    _FP_CACHE[id(app)] = (app, fingerprint)
    return fingerprint


# -- per-group advice/trace slices ---------------------------------------------


def norm_key(key: Any, tokens: Dict[str, str]) -> List[object]:
    rid, hid, opnum = key
    return [tokens.get(rid, rid), encode_hid(hid), opnum]


def _prec_spec(
    var_log: Any, prec: Any, member_set: Any, tokens: Dict[str, str], text: Normaliser
) -> str:
    """How a variable-log entry's ``prec`` reference enters the digest.

    In-group and init references are positional; an *external* reference
    contributes the access kind and value of the dictating entry it
    resolves to (that is what re-execution feeds the read), never its
    coordinates -- so groups in different epochs reading the same value
    digest equal.  A dangling external reference is uncacheable: its
    rejection-vs-feed outcome depends on state outside the slice.
    """
    if prec is None:
        return row_text(["none"])
    if prec == INIT_REF:
        return row_text(["init"])
    if prec[0] in member_set:
        return row_text(["in"] + norm_key(prec, tokens))
    dictating = var_log.get(prec)
    if dictating is None:
        raise Uncacheable(f"dangling external prec {prec!r}")
    return row_text(["ext", dictating.access], text(dictating.value))


def _advice_text(
    state: AuditState, rids: List[str], member_set: Any, tokens: Dict[str, str], text: Normaliser
) -> str:
    advice = state.advice
    opcounts = []
    for (rid, hid), count in advice.opcounts.items():
        if rid in member_set:
            opcounts.append(canonical_json([tokens[rid], encode_hid(hid), count]))

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
        for key, entry in log.items():
            if key[0] in member_set:
                variable_logs.append(
                    row_text(
                        [var_id, norm_key(key, tokens), entry.access],
                        text(entry.value),
                        _prec_spec(log, entry.prec, member_set, tokens, text),
                    )
                )

    tx_logs = []
    for (rid, tid), log in advice.tx_logs.items():
        if rid not in member_set:
            continue
        entries = []
        for entry in log:
            if entry.optype == TX_GET:
                contents = _get_contents_spec(state, entry, member_set, tokens, text)
            else:
                contents = row_text(["v"], text(entry.opcontents))
            entries.append(
                row_text(
                    [encode_hid(entry.hid), entry.opnum, entry.optype],
                    text(entry.key),
                    contents,
                )
            )
        tx_logs.append(row_text([tokens[rid], encode_tid(tid)], array_text(entries)))

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
            nondet.append(row_text([norm_key(key, tokens)], text(value)))

    activated = []
    for key, children in state.activated_handlers.items():
        if key[0] in member_set:
            activated.append(
                canonical_json([norm_key(key, tokens), [encode_hid(c) for c in children]])
            )

    return object_text(
        opcounts=array_text(sorted(opcounts)),
        handler_logs=canonical_json(handler_logs),
        variable_logs=array_text(sorted(variable_logs)),
        tx_logs=array_text(sorted(tx_logs)),
        responses=canonical_json(responses),
        nondet=array_text(sorted(nondet)),
        activated=array_text(sorted(activated)),
    )


def _get_contents_spec(
    state: AuditState, entry: Any, member_set: Any, tokens: Dict[str, str], text: Normaliser
) -> str:
    """A TX_GET's fed value: the carried-in store value for an initial
    read, a positional reference for an in-group dictating PUT, and the
    *resolved value* for an external one."""
    if entry.opcontents is None:
        return row_text(
            ["initkv"], text(state.initial_kv.get(entry.key))
        )
    rid_w, tid_w, i_w = entry.opcontents
    if rid_w in member_set:
        return row_text(["in", tokens[rid_w], encode_tid(tid_w), i_w])
    log = state.advice.tx_logs.get((rid_w, tid_w))
    if log is None or not 0 <= i_w < len(log):
        raise Uncacheable(f"dangling external tx reference {entry.opcontents!r}")
    return row_text(["ext"], text(log[i_w].opcontents))


def _init_text(state: AuditState, text: Normaliser) -> str:
    """The init slice of the digest document: every variable's initial
    (or carried-in) value, whether or not the group reads it."""
    init_ctx = state.init_ctx
    return object_text(
        global_handlers=canonical_json(list(map(list, init_ctx.global_handlers))),
        initial_vars=array_text(
            row_text([var_id], text(value))
            for var_id, value in sorted(init_ctx.initial_vars.items(), key=itemgetter(0))
        ),
        loggable=canonical_json(
            sorted([var_id, bool(flag)] for var_id, flag in init_ctx.loggable.items())
        ),
    )


# -- the digest ----------------------------------------------------------------


def group_digest(state: AuditState, rids: List[str]) -> Optional[GroupDigest]:
    """The ``repro.digest/1`` digest of one group, or None (uncacheable).

    ``rids`` is the group's member list in the advice's canonical
    (sorted) order; member position defines the rid tokens.
    """
    tokens = {rid: member_token(i) for i, rid in enumerate(rids)}
    member_set = set(rids)
    text = text_normaliser(tokens)
    try:
        requests = [state.trace.request(rid) for rid in rids]
        responses = [text(state.trace.response(rid)) for rid in rids]
        key = sha256_text(
            object_text(
                spec=canonical_json(DIGEST_SPEC),
                app=canonical_json(app_fingerprint(state.app)),
                members=canonical_json(len(rids)),
                requests=array_text(
                    row_text([request.route], text(dict(request.inputs)), response)
                    for request, response in zip(requests, responses)
                ),
                event=canonical_json(request_event(requests[0].route)),
                advice=_advice_text(state, rids, member_set, tokens, text),
                init=_init_text(state, text),
            )
        )
        # The text of the list of the members' responses.
        output_digest = sha256_text('{"t":"l","v":[%s]}' % ",".join(responses))
    except Exception:
        # Anything the spec cannot canonicalise (unencodable values, NUL,
        # malformed cross-references, missing trace rows) simply keeps
        # the group out of the cache: it re-executes in full.
        return None
    return GroupDigest(key=key, output_digest=output_digest, tokens=tokens)


__all__ = [
    "DIGEST_SPEC",
    "GroupDigest",
    "Uncacheable",
    "app_fingerprint",
    "array_text",
    "denormalize_value",
    "group_digest",
    "member_token",
    "norm_key",
    "object_text",
    "row_text",
    "sha256_text",
    "text_normaliser",
]
