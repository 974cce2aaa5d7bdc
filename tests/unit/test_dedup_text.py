"""The dedup digest's text normaliser (DESIGN.md §11).

``text_normaliser`` builds only the canonical text of a value.  It must spell
every value byte for byte as the two-halved ``normalize_value`` did
(tagged document and text from one walk), kept below as the reference:
the golden digests and the verdict cache's keys rest on that text.
"""

import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ids import HandlerId, TxId
from repro.storage.records import canonical_json
from repro.storage.values import encode_tid
from repro.verifier.dedup.digest import Uncacheable, member_token, text_normaliser

pytestmark = pytest.mark.tier1


def normalize_value(value, tokens):
    """The reference: ``value``'s tagged document and its canonical text,
    as the digest computed both before it kept only the text."""
    if isinstance(value, str):
        token = tokens.get(value)
        if token is None:
            if "\x00" in value:
                raise Uncacheable("NUL in a value string")
            token = value
        return {"t": "p", "v": token}, '{"t":"p","v":%s}' % encode_basestring_ascii(token)
    if isinstance(value, dict):
        rows = []
        for k, v in value.items():
            key, key_text = normalize_value(k, tokens)
            encoded, text = normalize_value(v, tokens)
            rows.append((key_text, [key, encoded], text))
        rows.sort(key=itemgetter(0))
        return (
            {"t": "d", "v": [pair for _, pair, _ in rows]},
            '{"t":"d","v":[%s]}' % ",".join([f"[{k},{v}]" for k, _, v in rows]),
        )
    if isinstance(value, (tuple, list)):
        tag = "t" if isinstance(value, tuple) else "l"
        items = [normalize_value(v, tokens) for v in value]
        return (
            {"t": tag, "v": [encoded for encoded, _ in items]},
            '{"t":"%s","v":[%s]}' % (tag, ",".join([text for _, text in items])),
        )
    if value is None or value is True or value is False:
        text = "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        text = int.__repr__(value)
    elif isinstance(value, float):
        text = canonical_json(value)
    elif isinstance(value, TxId):
        tid = encode_tid(value)
        return {"t": "x", "v": tid}, '{"t":"x","v":%s}' % canonical_json(tid)
    else:
        raise Uncacheable(f"unencodable value of type {type(value).__name__}")
    return {"t": "p", "v": value}, '{"t":"p","v":%s}' % text


RIDS = ["r000001", "r000002"]
TOKENS = {rid: member_token(i) for i, rid in enumerate(RIDS)}

_txids = st.builds(
    lambda f, o: TxId(HandlerId.intern(f, HandlerId.intern("root"), 1), o),
    st.sampled_from(["f", "g"]), st.integers(0, 2),
)
_scalars = st.one_of(
    st.sampled_from([None, 0, 1, True, False, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
    st.integers(),
    st.floats(),
    st.sampled_from(RIDS + ["", "x-r000001", "é☃", "\ud800", "a\x00b", member_token(0)]),
    st.text(max_size=4),  # may hold NUL
    _txids,
)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@st.composite
def shared_values(draw):
    """A list of values whose containers share sub-objects: each new
    list, tuple or dict is built from the values drawn before it, so one
    object is met many times in one pass."""
    pool = draw(st.lists(_scalars, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 6))):
        items = draw(st.lists(st.sampled_from(pool), max_size=4))
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            keys = [v for v in pool if _hashable(v)]
            if not keys:
                continue
            pool.append({draw(st.sampled_from(keys)): item for item in items})
        else:
            pool.append(tuple(items) if kind == "tuple" else list(items))
    return pool


def _holds_nul(value):
    if isinstance(value, str):
        return "\x00" in value
    if isinstance(value, dict):
        return any(_holds_nul(k) or _holds_nul(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return any(_holds_nul(v) for v in value)
    return False


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shared_values())
def test_text_normaliser_spells_normalize_values_text(values):
    text = text_normaliser(TOKENS)
    if _holds_nul(values):
        with pytest.raises(Uncacheable):
            text(values)
        return
    assert text(values) == normalize_value(values, TOKENS)[1]
    for value in values:
        assert text(value) == normalize_value(value, TOKENS)[1]
