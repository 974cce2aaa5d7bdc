"""The dedup miss path changes no byte (DESIGN.md §11).

Activation digests, output digests, effect documents and effect digests
are assembled from per-row canonical texts
(:mod:`repro.verifier.dedup.digest`); an entry's effect is normalised
on its first hit and its document parsed from that text.  They key and
revalidate the
verdict cache, so they are pinned against the whole-document formulas below -- the
definitions, spelled the way they were before rows were spliced: build
the document, sort every row list with ``key=canonical_json``, encode
the whole.  The golden runs of :mod:`tests.verdict_goldens` (honest and
tampered) cover what applications write; the properties cover values no
application writes.  The one intended difference: a value string holding
NUL, where the reference lets a literal member token alias a member rid,
is uncacheable.
"""

import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advice.records import TX_GET
from repro.core.ids import HandlerId, TxId
from repro.kem.program import request_event
from repro.server.variables import INIT_REF
from repro.storage.values import encode_hid, encode_tid
from repro.verifier.dedup import app_fingerprint, group_digest
from repro.verifier.dedup.cache import effect_sum, make_entry
from repro.verifier.dedup.digest import DIGEST_SPEC, member_token, text_normaliser
from repro.verifier.dedup.executor import materialize
from repro.verifier.parallel import GroupDelta, execute_group
from repro.verifier.preprocess import preprocess
from tests import verdict_goldens as vg
from tests.encode_oracle import encode_value

pytestmark = pytest.mark.tier1


# -- the definitions, as whole documents ---------------------------------------


canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sort_encoded(doc):
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


def _substitute(value, mapping):
    if isinstance(value, str):
        return mapping.get(value, value)
    if isinstance(value, dict):
        return {_substitute(k, mapping): _substitute(v, mapping) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_substitute(v, mapping) for v in value)
    if isinstance(value, list):
        return [_substitute(v, mapping) for v in value]
    return value


def reference_value(value, tokens):
    return _sort_encoded(encode_value(_substitute(value, tokens)))


def _norm_key(key, tokens):
    rid, hid, opnum = key
    return [tokens.get(rid, rid), encode_hid(hid), opnum]


def _prec_spec(var_log, prec, member_set, tokens):
    if prec is None:
        return ["none"]
    if prec == INIT_REF:
        return ["init"]
    if prec[0] in member_set:
        return ["in"] + _norm_key(prec, tokens)
    dictating = var_log.get(prec)
    if dictating is None:
        raise LookupError(prec)
    return ["ext", dictating.access, reference_value(dictating.value, tokens)]


def _get_contents_spec(state, entry, member_set, tokens):
    if entry.opcontents is None:
        return ["initkv", reference_value(state.initial_kv.get(entry.key), tokens)]
    rid_w, tid_w, i_w = entry.opcontents
    if rid_w in member_set:
        return ["in", tokens[rid_w], encode_tid(tid_w), i_w]
    log = state.advice.tx_logs.get((rid_w, tid_w))
    if log is None or not 0 <= i_w < len(log):
        raise LookupError(entry.opcontents)
    return ["ext", reference_value(log[i_w].opcontents, tokens)]


def _advice_doc(state, rids, member_set, tokens):
    advice = state.advice
    opcounts = [
        [tokens[rid], encode_hid(hid), count]
        for (rid, hid), count in advice.opcounts.items()
        if rid in member_set
    ]
    handler_logs = [
        [tokens[rid], [[encode_hid(e.hid), e.opnum, e.optype, e.event, e.function_id]
                       for e in advice.handler_logs.get(rid, [])]]
        for rid in rids
    ]
    variable_logs = []
    for var_id in sorted(advice.variable_logs):
        log = advice.variable_logs[var_id]
        for key in log:
            if key[0] in member_set:
                entry = log[key]
                variable_logs.append([
                    var_id, _norm_key(key, tokens), entry.access,
                    reference_value(entry.value, tokens),
                    _prec_spec(log, entry.prec, member_set, tokens),
                ])
    tx_logs = []
    for (rid, tid), log in advice.tx_logs.items():
        if rid in member_set:
            entries = []
            for entry in log:
                if entry.optype == TX_GET:
                    contents = _get_contents_spec(state, entry, member_set, tokens)
                else:
                    contents = ["v", reference_value(entry.opcontents, tokens)]
                entries.append([encode_hid(entry.hid), entry.opnum, entry.optype,
                                reference_value(entry.key, tokens), contents])
            tx_logs.append([tokens[rid], encode_tid(tid), entries])
    responses = []
    for rid in rids:
        claimed = advice.response_emitted_by.get(rid)
        responses.append([tokens[rid], None] if claimed is None
                         else [tokens[rid], encode_hid(claimed[0]), claimed[1]])
    nondet = [
        [_norm_key(key, tokens), reference_value(value, tokens)]
        for key, value in advice.nondet.items()
        if key[0] in member_set
    ]
    activated = [
        [_norm_key(key, tokens), [encode_hid(c) for c in children]]
        for key, children in state.activated_handlers.items()
        if key[0] in member_set
    ]
    for rows in (opcounts, variable_logs, tx_logs, nondet, activated):
        rows.sort(key=canonical_json)
    return {
        "opcounts": opcounts, "handler_logs": handler_logs,
        "variable_logs": variable_logs, "tx_logs": tx_logs,
        "responses": responses, "nondet": nondet, "activated": activated,
    }


def reference_digest(state, rids):
    """``(key, output_digest)``, or None when the group is uncacheable."""
    tokens = {rid: member_token(i) for i, rid in enumerate(rids)}
    member_set = set(rids)
    init_ctx = state.init_ctx
    try:
        doc = {
            "spec": DIGEST_SPEC,
            "app": app_fingerprint(state.app),
            "members": len(rids),
            "requests": [
                [state.trace.request(rid).route,
                 reference_value(dict(state.trace.request(rid).inputs), tokens),
                 reference_value(state.trace.response(rid), tokens)]
                for rid in rids
            ],
            "event": request_event(state.trace.request(rids[0]).route),
            "advice": _advice_doc(state, rids, member_set, tokens),
            "init": {
                "global_handlers": list(map(list, init_ctx.global_handlers)),
                "initial_vars": sorted(
                    ([var_id, reference_value(value, tokens)]
                     for var_id, value in init_ctx.initial_vars.items()),
                    key=lambda pair: pair[0],
                ),
                "loggable": sorted(
                    [var_id, bool(flag)] for var_id, flag in init_ctx.loggable.items()
                ),
            },
        }
        outputs = reference_value([state.trace.response(rid) for rid in rids], tokens)
        return sha256(canonical_json(doc)), sha256(canonical_json(outputs))
    except Exception:
        return None


def _encode_key(key, tokens):
    rid, hid, opnum = key
    return [tokens.get(rid, rid), encode_hid(hid), opnum]


def _write_key_spec(key, member_set, tokens):
    if key == INIT_REF:
        return ["init"]
    if key[0] in member_set:
        return ["in"] + _encode_key(key, tokens)
    return ["log"]


def reference_effect(rids, delta, tokens):
    """The effect document; raises when the group is uncacheable."""
    member_set = set(rids)
    journal = []
    for event in delta.journal:
        kind = event[0]
        if kind == "handlers":
            journal.append(["handlers", event[1]])
        elif kind in ("claim", "fallback"):
            _, var_id, prec, key = event
            spec = _write_key_spec(prec, member_set, tokens)
            if kind == "fallback" and spec == ["log"]:
                raise LookupError(prec)
            journal.append([kind, var_id, spec, _encode_key(key, tokens)])
        elif kind == "initializer":
            journal.append(["initializer", event[1], _encode_key(event[2], tokens)])
        else:
            raise LookupError(kind)
    var_dicts = []
    for var_id in sorted(delta.var_dicts):
        rows = [
            [[tokens.get(rid, rid), encode_hid(hid)],
             [[opnum, reference_value(value, tokens)] for opnum, value in writes]]
            for (rid, hid), writes in delta.var_dicts[var_id].items()
        ]
        rows.sort(key=lambda row: canonical_json(row[0]))
        var_dicts.append([var_id, rows])
    read_observers = []
    for var_id in sorted(delta.read_observers):
        rows = [
            [_write_key_spec(write_key, member_set, tokens),
             sorted((_encode_key(r, tokens) for r in readers), key=canonical_json)]
            for write_key, readers in delta.read_observers[var_id].items()
        ]
        rows.sort(key=canonical_json)
        read_observers.append([var_id, rows])
    effect = {
        "journal": journal,
        "executed": sorted(
            ([tokens.get(rid, rid), encode_hid(hid)] for rid, hid in delta.executed),
            key=canonical_json,
        ),
        "var_dicts": var_dicts,
        "read_observers": read_observers,
        "consumed": [
            [var_id, sorted((_encode_key(k, tokens) for k in delta.consumed[var_id]),
                            key=canonical_json)]
            for var_id in sorted(delta.consumed)
        ],
        "plain_values": [
            [var_id, sorted(
                ([tokens.get(rid, rid), reference_value(value, tokens)]
                 for rid, value in delta.plain_values[var_id].items()),
                key=canonical_json,
            )]
            for var_id in sorted(delta.plain_values)
        ],
    }
    serialized = canonical_json(effect)
    for rid in rids:
        if rid in serialized:
            raise LookupError(rid)
    return effect


# -- comparing -----------------------------------------------------------------

UNCACHEABLE = "uncacheable"


def _new_effect(rids, delta, tokens):
    """A stored entry's ``(effect, effect_digest)`` once its first hit
    normalised it, or UNCACHEABLE."""
    entry = make_entry("k" * 64, len(rids), 1, "o" * 64, (rids, tokens, delta))
    try:
        materialize(entry)
    except Exception:
        return UNCACHEABLE
    return entry["effect"], entry["effect_digest"]


def _reference_effect(rids, delta, tokens):
    try:
        effect = reference_effect(rids, delta, tokens)
    except Exception:
        return UNCACHEABLE
    return effect, sha256(canonical_json(effect))


def _groupings(advice):
    """The grouped and the singleton groups, each member list once."""
    grouped = [tuple(rids) for rids in advice.groups().values()]
    singletons = [(rid,) for rids in grouped for rid in rids]
    return [list(rids) for rids in dict.fromkeys(grouped + singletons)]


@pytest.mark.parametrize("run_name", sorted(vg.RUNS))
def test_golden_runs_match_the_whole_document_formula(run_name):
    """Every group of every golden case, grouped and singleton: equal
    key, output digest, and uncacheable outcome; equal effect document
    and effect digest for each distinct key (a tamper leaves most groups
    digest-equal to an honest one); for the honest runs, the entry's
    effect digest is the digest of that document."""
    app = vg.app_of(run_name)()
    compared, entries, executed = 0, 0, set()
    for case, (trace, advice) in vg.cases(run_name).items():
        try:
            state = preprocess(app, trace, advice)
        except Exception:
            continue  # rejected before any group is digested
        for rids in _groupings(advice):
            digest = group_digest(state, rids)
            want = reference_digest(state, rids)
            got = None if digest is None else (digest.key, digest.output_digest)
            assert got == want, (run_name, case, rids)
            compared += 1
            if digest is None or digest.key in executed:
                continue
            executed.add(digest.key)
            delta = execute_group(state, "g", list(rids))
            got = _new_effect(rids, delta, digest.tokens)
            assert got == _reference_effect(rids, delta, digest.tokens), (
                run_name, case, rids,
            )
            if got is UNCACHEABLE or case != "honest":
                continue
            # Every hit's revalidation re-encodes the stored document.
            assert effect_sum(got[0]) == got[1]
            entries += 1
    assert compared > len(executed) > 0 and entries > 0, (compared, entries)


# -- values no application writes ------------------------------------------------

RIDS = ["r000001", "r000002", "r000003"]
TOKENS = {rid: member_token(i) for i, rid in enumerate(RIDS)}

_strings = st.one_of(
    st.sampled_from(RIDS + [
        "", "r0000011", "x-r000002", "é☃", 'q"b\\s\n\t\x7f', " ", "\ud800", "\U0001f600",
    ]),
    st.text(max_size=5),  # may hold NUL
    st.sampled_from([member_token(0), "a\x00b"]),
)
_floats = st.one_of(
    st.sampled_from([1e16, 2.0, -0.0, 0.0, 1e-7, 1.5, math.inf, -math.inf, math.nan]),
    st.floats(),
)
_txids = st.builds(
    lambda f, o: TxId(HandlerId.intern(f, HandlerId.intern("root"), 1), o),
    st.sampled_from(["f", "g"]), st.integers(0, 3),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 3), _floats, _strings, _txids,
)
_keys = st.recursive(
    _scalars, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=4,
)
_unencodable = st.sampled_from([b"bytes", frozenset({1}), 1j, object()])
_values = st.recursive(
    st.one_of(_scalars, _unencodable),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.one_of(_keys, _unencodable), inner, max_size=4)
    ),
    max_leaves=12,
)


def _holds_nul(value):
    if isinstance(value, str):
        return "\x00" in value
    if isinstance(value, dict):
        return any(_holds_nul(k) or _holds_nul(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return any(_holds_nul(v) for v in value)
    return False


def _normalized(value):
    try:
        return text_normaliser(TOKENS)(value)
    except Exception:
        return UNCACHEABLE


def _referenced(value):
    try:
        return canonical_json(reference_value(value, TOKENS))
    except Exception:
        return UNCACHEABLE


HOSTILE = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@HOSTILE
@given(_values)
def test_hostile_values_normalise_to_the_reference_text(value):
    got = _normalized(value)
    if _holds_nul(value):
        assert got is UNCACHEABLE
    else:
        assert got == _referenced(value)


@HOSTILE
@given(st.lists(_values, max_size=3), _values)
def test_hostile_effects_match_the_reference_document(writes, plain):
    hid = HandlerId.intern("h", None, 0)
    delta = GroupDelta(tag="g")
    delta.journal.append(("handlers", 1))
    delta.executed = {(RIDS[0], hid)}
    delta.var_dicts = {"v": {(RIDS[0], hid): list(enumerate(writes, start=1))}}
    delta.plain_values = {"p": {RIDS[1]: plain, RIDS[2]: writes}}
    got = _new_effect(RIDS, delta, TOKENS)
    if _holds_nul(writes) or _holds_nul(plain):
        assert got is UNCACHEABLE
        return
    want = _reference_effect(RIDS, delta, TOKENS)
    if got is UNCACHEABLE or want is UNCACHEABLE:
        assert got is want
        return
    # A document parsed from text holds NaNs of its own, and a NaN is
    # never == another object: compare the documents' canonical texts.
    assert (canonical_json(got[0]), got[1]) == (canonical_json(want[0]), want[1])
    # Every hit's revalidation re-encodes the stored document: it must
    # give back the digested text.
    assert effect_sum(got[0]) == got[1]
