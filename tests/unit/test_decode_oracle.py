"""The one-walk decoders against the decoders they replaced (DESIGN.md §8).

A sealed epoch is decoded by one walk per value container, one loop over
the variable-log, handler-log and tx-log entries, and a content digest
taken from the frames as read.  The reference below is a frozen copy of
the decoders they replaced: a tagged-node-at-a-time ``decode_value``,
``decode_hid``, ``_decode_opkey`` and the per-entry section accumulators,
and the digest over re-framed records.  For every input, both must
accept it with type-strictly equal results and the same content digest,
or both reject it with the same exception class.
"""

import copy
import dataclasses
import enum
import hashlib
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advice.codec import _decode_opkey
from repro.advice.records import Advice, HandlerOpEntry, TxLogEntry, VariableLogEntry
from repro.continuous.codec import (
    RT_EPOCH_META,
    iter_epoch_content_frames,
    read_epoch_stream,
)
from repro.continuous.epoch import Epoch
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError, KarousosError
from repro.storage import MemoryBackend
from repro.storage.records import RecordFormatError, encode_record, pack_json, unpack_json
from repro.storage.values import decode_hid, decode_value, value_text
from repro.store.kv import IsolationLevel
from repro.trace.codec import RT_EVENT
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


# -- the reference: the decoders as they were before the one-walk pass --------


def ref_expect_int(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise AdviceFormatError(f"expected an int, got {value!r}")
    return value


def ref_decode_hid(data):
    if not isinstance(data, list) or not data:
        raise AdviceFormatError(f"bad handler id encoding: {data!r}")
    hid = None
    for part in data:
        if not isinstance(part, list) or len(part) != 2 or not isinstance(part[0], str):
            raise AdviceFormatError(f"bad handler id segment: {part!r}")
        hid = HandlerId.intern(part[0], hid, ref_expect_int(part[1]))
    return hid


def ref_decode_tid(data):
    if not isinstance(data, dict) or set(data) != {"hid", "opnum"}:
        raise AdviceFormatError(f"bad transaction id encoding: {data!r}")
    return TxId(ref_decode_hid(data["hid"]), ref_expect_int(data["opnum"]))


def ref_decode_value(data):
    try:
        return _ref_decode(data)
    except RecursionError:
        raise RecordFormatError("value nests too deeply") from None


def _ref_decode(data):
    if not isinstance(data, dict) or "t" not in data or "v" not in data:
        raise AdviceFormatError(f"bad value encoding: {data!r}")
    tag, v = data["t"], data["v"]
    if tag == "p":
        if v is not None and not isinstance(v, (bool, int, float, str)):
            raise AdviceFormatError(f"bad primitive: {v!r}")
        return v
    if tag == "t":
        return tuple(_ref_decode(x) for x in _ref_expect_list(v))
    if tag == "l":
        return [_ref_decode(x) for x in _ref_expect_list(v)]
    if tag == "d":
        out = {}
        for pair in _ref_expect_list(v):
            if not isinstance(pair, list) or len(pair) != 2:
                raise AdviceFormatError(f"bad dict entry: {pair!r}")
            key, value = _ref_decode(pair[0]), _ref_decode(pair[1])
            try:
                out[key] = value
            except TypeError:
                raise AdviceFormatError(f"unhashable dict key: {key!r}") from None
        return out
    if tag == "x":
        return ref_decode_tid(v)
    raise AdviceFormatError(f"unknown value tag {tag!r}")


def _ref_expect_list(value):
    if not isinstance(value, list):
        raise AdviceFormatError("expected a list")
    return value


def _ref_expect_str(value):
    if not isinstance(value, str):
        raise AdviceFormatError(f"expected a string, got {value!r}")
    return value


def ref_decode_opkey(data):
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad op key: {data!r}")
    return (data[0], ref_decode_hid(data[1]), ref_expect_int(data[2]))


def _ref_decode_txpos(data):
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad tx position: {data!r}")
    return (data[0], ref_decode_tid(data[1]), ref_expect_int(data[2]))


def _ref_handler_entry(e):
    return HandlerOpEntry(
        ref_decode_hid(e["hid"]),
        ref_expect_int(e["opnum"]),
        _ref_expect_str(e["optype"]),
        _ref_expect_str(e["event"]),
        e.get("fid"),
    )


def _ref_varlog_entry(e):
    key = ref_decode_opkey(e["at"])
    entry = VariableLogEntry(
        _ref_expect_str(e["access"]),
        value=ref_decode_value(e["value"]),
        prec=None if e["prec"] is None else ref_decode_opkey(e["prec"]),
    )
    return key, entry


def _ref_tx_entry(e):
    optype = _ref_expect_str(e["optype"])
    if optype == "GET" and e["contents"] is not None and isinstance(e["contents"], list):
        contents = _ref_decode_txpos(e["contents"])
    else:
        contents = ref_decode_value(e["contents"])
    return TxLogEntry(
        ref_decode_hid(e["hid"]), ref_expect_int(e["opnum"]), optype, e.get("key"), contents,
    )


def _ref_tag(advice, rid, tag):
    if not isinstance(rid, str) or not isinstance(tag, str):
        raise AdviceFormatError("tags must map request ids to strings")
    if rid in advice.tags:
        raise AdviceFormatError(f"duplicate tag for request {rid}")
    advice.tags[rid] = tag


def _ref_handler_log(advice, rid, log):
    rid = _ref_expect_str(rid)
    if rid in advice.handler_logs:
        raise AdviceFormatError(f"duplicate handler log for request {rid}")
    advice.handler_logs[rid] = [_ref_handler_entry(e) for e in _ref_expect_list(log)]


def _ref_variable_log(advice, var_id, entries):
    var_id = _ref_expect_str(var_id)
    if var_id in advice.variable_logs:
        raise AdviceFormatError(f"duplicate variable log for {var_id}")
    log = {}
    for e in _ref_expect_list(entries):
        key, entry = _ref_varlog_entry(e)
        if key in log:
            raise AdviceFormatError(f"duplicate variable log key {key}")
        log[key] = entry
    advice.variable_logs[var_id] = log


def _ref_tx_log(advice, tx):
    rid = _ref_expect_str(tx["rid"])
    tid = ref_decode_tid(tx["tid"])
    ops = [_ref_tx_entry(e) for e in _ref_expect_list(tx["ops"])]
    if (rid, tid) in advice.tx_logs:
        raise AdviceFormatError(f"duplicate transaction {(rid, tid)}")
    advice.tx_logs[(rid, tid)] = ops


def _ref_write_order(advice, doc):
    advice.write_order = [_ref_decode_txpos(p) for p in _ref_expect_list(doc)]


def _ref_response_by(advice, doc):
    if not isinstance(doc, dict):
        raise AdviceFormatError("response_emitted_by must be an object")
    for rid, pair in doc.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise AdviceFormatError("bad response_emitted_by entry")
        advice.response_emitted_by[rid] = (ref_decode_hid(pair[0]), ref_expect_int(pair[1]))


def _ref_opcounts(advice, doc):
    for item in _ref_expect_list(doc):
        if not isinstance(item, list) or len(item) != 3:
            raise AdviceFormatError("bad opcounts entry")
        rid, hid_doc, count = item
        advice.opcounts[(_ref_expect_str(rid), ref_decode_hid(hid_doc))] = ref_expect_int(count)


def _ref_nondet(advice, doc):
    for item in _ref_expect_list(doc):
        if not isinstance(item, list) or len(item) != 2:
            raise AdviceFormatError("bad nondet entry")
        advice.nondet[ref_decode_opkey(item[0])] = ref_decode_value(item[1])


def _ref_tx_windows(advice, doc):
    for item in _ref_expect_list(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise AdviceFormatError("bad tx window entry")
        rid, tid_doc, start, commit = item
        if commit is not None and not isinstance(commit, int):
            raise AdviceFormatError("bad tx window commit")
        advice.tx_windows[(_ref_expect_str(rid), ref_decode_tid(tid_doc))] = (
            ref_expect_int(start),
            commit,
        )


_REF_SINGLETONS = {24: _ref_write_order, 25: _ref_response_by, 26: _ref_opcounts,
                   27: _ref_nondet, 28: _ref_tx_windows}


class RefAccumulator:
    def __init__(self):
        self.advice = Advice()
        self._saw_meta = False
        self._singletons = set()

    def feed(self, rtype, payload):
        try:
            self._feed(rtype, payload)
        except AdviceFormatError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise AdviceFormatError(f"malformed advice record: {exc}") from exc

    def _feed(self, rtype, payload):
        if rtype == 19:
            if self._saw_meta:
                raise AdviceFormatError("duplicate advice meta record")
            doc = unpack_json(payload)
            if not isinstance(doc, dict) or doc.get("version") != 1:
                raise AdviceFormatError(f"unsupported advice stream meta {doc!r}")
            if "isolation" not in doc:
                raise AdviceFormatError("bad isolation level")
            try:
                self.advice.isolation_level = IsolationLevel(doc["isolation"])
            except ValueError as exc:
                raise AdviceFormatError("bad isolation level") from exc
            self._saw_meta = True
            return
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        doc = unpack_json(payload)
        if rtype == 20:
            if not isinstance(doc, list) or len(doc) != 2:
                raise AdviceFormatError(f"bad tag record {doc!r}")
            _ref_tag(self.advice, doc[0], doc[1])
        elif rtype == 21:
            _ref_handler_log(self.advice, doc["rid"], doc["entries"])
        elif rtype == 22:
            _ref_variable_log(self.advice, doc["var"], doc["entries"])
        elif rtype == 23:
            _ref_tx_log(self.advice, doc)
        elif rtype in _REF_SINGLETONS:
            if rtype in self._singletons:
                raise AdviceFormatError(f"duplicate advice section record {rtype}")
            self._singletons.add(rtype)
            _REF_SINGLETONS[rtype](self.advice, doc)
        else:
            raise AdviceFormatError(f"unknown advice record type {rtype}")

    def finish(self):
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        return self.advice


def _ref_trace_event(event):
    if not isinstance(event, dict) or not isinstance(event.get("rid"), str):
        raise AdviceFormatError(f"bad trace event: {event!r}")
    if event.get("kind") == REQ:
        payload_value = ref_decode_value(event.get("payload"))
        if not isinstance(payload_value, dict) or not all(
            isinstance(name, str) for name in payload_value
        ):
            raise AdviceFormatError("request payload must map names to values")
        if not isinstance(event.get("route"), str):
            raise AdviceFormatError("request route must be a string")
        return TraceEvent(REQ, event["rid"], Request.make(event["rid"], event["route"],
                                                          **payload_value))
    if event.get("kind") == RESP:
        return TraceEvent(RESP, event["rid"], ref_decode_value(event.get("data")))
    raise AdviceFormatError(f"unknown trace event kind {event.get('kind')!r}")


def ref_read_epoch(records, name):
    """The epoch reader as it was: every content frame re-framed through
    ``encode_record`` for the digest."""
    meta, trace, accum, saw_advice = None, Trace(), RefAccumulator(), False
    content = hashlib.sha256()
    for rtype, payload in records:
        if rtype == RT_EPOCH_META:
            if meta is not None:
                raise AdviceFormatError("duplicate epoch meta record")
            meta = unpack_json(payload)
            if not isinstance(meta, dict) or meta.get("version") != 1:
                raise AdviceFormatError("unsupported epoch stream")
            continue
        if meta is None:
            raise AdviceFormatError("epoch stream has no meta record")
        content.update(encode_record(rtype, payload))
        if rtype == RT_EVENT:
            trace.append(_ref_trace_event(unpack_json(payload)))
        elif 19 <= rtype <= 28:
            if not meta.get("has_advice"):
                raise AdviceFormatError("advice records in an advice-less epoch")
            saw_advice = True
            accum.feed(rtype, payload)
        else:
            raise AdviceFormatError(f"unknown epoch record type {rtype}")
    if meta is None:
        raise AdviceFormatError("epoch stream has no meta record")
    index, rng = meta.get("index"), meta.get("binlog_range")
    if not isinstance(index, int) or index < 0:
        raise AdviceFormatError("bad epoch index")
    if not isinstance(rng, list) or len(rng) != 2 or not all(isinstance(x, int) for x in rng):
        raise AdviceFormatError("bad epoch binlog range")
    if name != f"epoch-{index}":
        raise AdviceFormatError(f"epoch stream {name!r} holds epoch {index}")
    advice = None
    if meta.get("has_advice"):
        if not saw_advice:
            raise AdviceFormatError("epoch stream promises advice but has none")
        advice = accum.finish()
    return Epoch(index, trace.freeze(), advice, (rng[0], rng[1]), content.hexdigest())


# -- type-strict comparison --------------------------------------------------------


def shape(x):
    """``x`` as nested tuples that spell every type: ``1``, ``True`` and
    ``1.0`` differ, a HandlerId is its typed fields, dict order counts."""
    cls = type(x)
    if x is None or cls in (bool, int, str):
        return (cls.__name__, x)
    if cls is float:
        return ("float", repr(x))
    if cls in (list, tuple):
        return (cls.__name__, [shape(v) for v in x])
    if cls is dict:
        return ("dict", [(shape(k), shape(v)) for k, v in x.items()])
    if cls is HandlerId:  # root first, without recursing up a long parent chain
        return ("hid", [(shape(f), shape(o)) for f, o in x.canonical()])
    if isinstance(x, enum.Enum):
        return (cls.__name__, x.value)
    if cls is Epoch:
        return ("epoch", shape(x.index), shape(x.trace), shape(x.advice),
                shape(x.binlog_range), x.content_digest)
    if dataclasses.is_dataclass(x):
        return (cls.__name__, [(f.name, shape(getattr(x, f.name)))
                               for f in dataclasses.fields(x) if f.compare])
    raise TypeError(f"no shape for {cls.__name__}")


def outcome(fn, *args):
    """``("ok", shape(result))`` or ``("raised", exception class)``."""
    try:
        return ("ok", shape(fn(*args)))
    except Exception as exc:  # the class is what is compared
        return ("raised", type(exc))


def assert_same(new, ref, *args):
    assert outcome(new, *args) == outcome(ref, *args), args


# -- named cases ---------------------------------------------------------------------


def _deep(depth):
    doc = {"t": "p", "v": 1}
    for _ in range(depth):
        doc = {"t": "l", "v": [doc]}
    return doc


NAMED_VALUES = {
    "extra keys": {"t": "p", "v": 1, "extra": [1]},
    "extra keys inline": {"t": "l", "v": [{"t": "p", "v": 1, "x": 0}, {"t": "p", "v": None}]},
    "extra keys on a dict key": {"t": "d", "v": [[{"t": "p", "v": "k", "y": 1}, {"t": "p", "v": 2}]]},
    "p wraps a document": {"t": "p", "v": {"t": "p", "v": 1}},
    "p wraps a document inline": {"t": "t", "v": [{"t": "p", "v": {"t": "p", "v": 1}}]},
    "p wraps a list inline": {"t": "l", "v": [{"t": "p", "v": [1]}]},
    "p wraps a list as a dict value": {"t": "d", "v": [[{"t": "p", "v": 1}, {"t": "p", "v": []}]]},
    "unhashable dict key": {"t": "d", "v": [[{"t": "l", "v": []}, {"t": "p", "v": 1}]]},
    "bool and int keys": {"t": "d", "v": [[{"t": "p", "v": True}, {"t": "p", "v": 1}],
                                          [{"t": "p", "v": 1}, {"t": "p", "v": 2}]]},
    "missing v inline": {"t": "l", "v": [{"t": "p"}]},
    "missing v on a dict key": {"t": "d", "v": [[{"t": "p"}, {"t": "p", "v": 1}]]},
    "missing v on a dict value": {"t": "d", "v": [[{"t": "p", "v": 1}, {"t": "p"}]]},
    "missing t inline": {"t": "l", "v": [{"v": 1}]},
    "bool tx opnum": {"t": "x", "v": {"hid": [["f", 0]], "opnum": True}},
    "unknown tag": {"t": "q", "v": []},
    "dict pair of three": {"t": "d", "v": [[{"t": "p", "v": 1}] * 3]},
    "past the recursion limit": _deep(5 * sys.getrecursionlimit()),
}


@pytest.mark.parametrize("name", sorted(NAMED_VALUES))
def test_named_values(name):
    doc = NAMED_VALUES[name]
    assert_same(decode_value, ref_decode_value, doc)


def _nested(tag, depth):
    doc = {"t": "p", "v": 1}
    for i in range(depth):
        if tag == "d" or (tag == "mixed" and i % 3 == 0):
            doc = {"t": "d", "v": [[{"t": "p", "v": "k"}, doc]]}
        else:
            doc = {"t": "t" if tag == "mixed" and i % 3 == 1 else tag.replace("mixed", "l"),
                   "v": [{"t": "p", "v": 0}, doc]}
    return doc


def _status(fn, doc):
    """``"ok"`` or the exception class, without walking the result (a
    value this deep is too deep to compare or print)."""
    try:
        fn(doc)
    except Exception as exc:
        return type(exc)
    return "ok"


def _deepest(fn, tag):
    """The deepest ``_nested(tag, n)`` that ``fn`` decodes from here, and
    how it fails on one level more."""
    lo, hi = 1, 2 * sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _status(fn, _nested(tag, mid)) == "ok":
            lo = mid
        else:
            hi = mid - 1
    return lo, _status(fn, _nested(tag, lo + 1))


@pytest.mark.parametrize("tag", ["l", "t", "d", "mixed"])
def test_a_level_costs_the_stack_it_cost_the_reference(tag):
    """Called from the same depth, the one-walk decoder accepts the
    documents the reference accepts, and one level more at most: the
    innermost leaf, which it reads without a call.  Past that, a
    ``RecordFormatError``.  (A helper frame per level would accept only
    two thirds of the depth.)"""
    (deepest, past), (ref_deepest, ref_past) = (
        _deepest(decode_value, tag), _deepest(ref_decode_value, tag))
    assert deepest - ref_deepest in (0, 1)
    assert past is ref_past is RecordFormatError


def test_a_value_past_the_recursion_limit_is_a_record_format_error():
    with pytest.raises(RecordFormatError):
        decode_value(NAMED_VALUES["past the recursion limit"])


@pytest.mark.parametrize("doc", [
    [["f", True]], [["f", 0], ["g", False]], [["f", 1.0]], [[1, 0]], [], [["f"]],
    [["f", 0, 1]], "f", [("f", 0)], [["f", 0], "g"], [["f", 0], ["g", 2]],
])
def test_named_handler_ids(doc):
    assert_same(decode_hid, ref_decode_hid, doc)


# -- epochs: a golden epoch's records, one of them damaged ---------------------------


def _golden_frames():
    out = []
    for app in ("wiki", "feed", "motd"):
        epoch = vg.streams(app)["honest"][1]
        meta = pack_json({"version": 1, "index": epoch.index,
                          "binlog_range": list(epoch.binlog_range), "has_advice": True})
        out.append([(RT_EPOCH_META, meta)]
                   + list(iter_epoch_content_frames(epoch.trace, epoch.advice)))
    return out


GOLDEN = _golden_frames()


def _both(frames):
    """The new and the reference reading of one stored epoch stream."""
    meta = unpack_json(frames[0][1])
    index = meta.get("index") if isinstance(meta, dict) else None
    name = f"epoch-{index if type(index) is int and index >= 0 else 0}"
    backend = MemoryBackend()
    with backend.create(name, "epoch") as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)

    def new():
        with backend.reader(name) as reader:
            return read_epoch_stream(reader, name)

    def ref():
        return ref_read_epoch(backend.load_tolerant(name, "epoch"), name)

    return new, ref


@pytest.mark.parametrize("which", range(len(GOLDEN)))
def test_golden_epochs_decode_alike(which):
    new, ref = _both(GOLDEN[which])
    got = outcome(new)
    assert got[0] == "ok"
    assert got == outcome(ref)


def _section(frames, rtype):
    return next(i for i, (t, _) in enumerate(frames) if t == rtype)


def _replace(frames, i, doc):
    return frames[:i] + [(frames[i][0], pack_json(doc))] + frames[i + 1:]


def test_a_duplicate_variable_log_key_is_rejected():
    frames = GOLDEN[0]
    i = _section(frames, 22)
    doc = unpack_json(frames[i][1])
    doc["entries"].append(copy.deepcopy(doc["entries"][0]))
    new, ref = _both(_replace(frames, i, doc))
    assert outcome(new) == outcome(ref) == ("raised", AdviceFormatError)


def test_a_bool_tx_index_is_rejected():
    frames = GOLDEN[0]
    i = _section(frames, 24)
    doc = unpack_json(frames[i][1])
    assert doc, "the golden wiki epoch orders writes"
    doc[0][2] = True
    new, ref = _both(_replace(frames, i, doc))
    assert outcome(new) == outcome(ref) == ("raised", AdviceFormatError)


def test_a_bool_variable_log_opnum_is_rejected():
    frames = GOLDEN[0]
    i = _section(frames, 22)
    doc = unpack_json(frames[i][1])
    doc["entries"][0]["at"][2] = True
    new, ref = _both(_replace(frames, i, doc))
    assert outcome(new) == outcome(ref) == ("raised", AdviceFormatError)


def _long_hid(n):
    return [["f", i] for i in range(n)]


def _put_long_hid(frames, rtype, n, last):
    """``frames`` with one id of ``n`` segments (the last one ``last``) in
    section ``rtype``: the first variable-log ``at``, tx-log op ``hid`` or
    opcounts entry."""
    i = _section(frames, rtype)
    doc = unpack_json(frames[i][1])
    hid = _long_hid(n - 1) + [last]
    if rtype == 22:
        doc["entries"][0]["at"][1] = hid
    elif rtype == 23:
        doc["ops"][0]["hid"] = hid
    else:
        doc[0][1] = hid
    return _replace(frames, i, doc)


@pytest.mark.parametrize("times", [2, 50])
@pytest.mark.parametrize("rtype", [22, 23, 26])
@pytest.mark.parametrize("last", [["g", 1], ["g", True]], ids=["good", "bool-opnum"])
def test_an_id_far_past_the_recursion_limit_decodes_as_the_reference_decodes_it(
    times, rtype, last
):
    frames = _put_long_hid(GOLDEN[0], rtype, times * sys.getrecursionlimit(), last)
    new, ref = _both(frames)
    got = outcome(new)
    assert got == outcome(ref)
    if type(last[1]) is int:
        assert got[0] == "ok"
    else:
        assert got == ("raised", AdviceFormatError)


# -- hostile documents --------------------------------------------------------------

HOSTILE = [
    None, True, False, 0, 1, -1, 2.5, "", "GET", "read", "r000001", [], {}, [[]],
    [["f", 0]], [["f", True]], [["f", 0.0]], [["f", 0], ["g", 1]],
    ["r", [["f", 0]], 1], ["r", [["f", 0]], True], ["r", [["f", 0]], 1.0],
    {"t": "p", "v": 1}, {"t": "p", "v": True}, {"t": "p", "v": [1]},
    {"t": "p", "v": 1, "x": 2}, {"t": "p"}, {"v": 1}, {"t": "q", "v": 1}, {"t": "l", "v": {}},
    {"t": "l", "v": [{"t": "p", "v": 1}, {"t": "p"}]},
    {"t": "d", "v": [[{"t": "l", "v": []}, {"t": "p", "v": 1}]]},
    {"t": "x", "v": {"hid": [["f", 0]], "opnum": 1}},
    {"t": "x", "v": {"hid": [["f", 0]], "opnum": True}},
    {"hid": [["f", 0]], "opnum": 1}, {"hid": [["f", 0]], "opnum": True},
]


@st.composite
def damaged(draw, doc, depth=0):
    """``doc`` with one node replaced, dropped, duplicated or given an
    extra key somewhere along one random path."""
    if not isinstance(doc, (list, dict)) or not doc or (depth and draw(st.integers(0, 5)) == 0):
        return copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    op = draw(st.integers(0, 7))
    if isinstance(doc, list):
        i = draw(st.integers(0, len(doc) - 1))
        out = list(doc)
        if op == 0:
            out.insert(i, copy.deepcopy(doc[i]))
        elif op == 1:
            del out[i]
        else:
            out[i] = draw(damaged(doc[i], depth + 1))
        return out
    key = draw(st.sampled_from(sorted(doc)))
    out = dict(doc)
    if op == 0:
        out["extra"] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    elif op == 1:
        del out[key]
    else:
        out[key] = draw(damaged(doc[key], depth + 1))
    return out


@st.composite
def damaged_epoch(draw):
    frames = GOLDEN[draw(st.integers(0, len(GOLDEN) - 1))]
    i = draw(st.integers(0, len(frames) - 1))
    doc = draw(damaged(unpack_json(frames[i][1])))
    out = _replace(frames, i, doc)
    if draw(st.integers(0, 9)) == 0:  # and sometimes one record twice
        j = draw(st.integers(0, len(out) - 1))
        out = out[:j] + [out[j]] + out[j:]
    return out


HOSTILE_RUNS = settings(max_examples=300, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


@HOSTILE_RUNS
@given(damaged_epoch())
def test_a_damaged_epoch_decodes_as_the_reference_decodes_it(frames):
    new, ref = _both(frames)
    got = outcome(new)
    assert got == outcome(ref)
    assert got[0] == "ok" or issubclass(got[1], KarousosError)  # fails a tenant, not the daemon


# Tagged leaves, whole and damaged (the nodes a container takes inline),
# in containers well or badly formed.
_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
).map(lambda v: {"t": "p", "v": v})
_near_leaves = st.sampled_from([
    {"t": "p"}, {"v": 1}, {"t": "p", "v": [1]}, {"t": "p", "v": []}, {"t": "p", "v": {}},
    {"t": "p", "v": {"t": "p", "v": 1}}, {"t": "q", "v": 1}, {"t": "P", "v": "s"},
    {"t": None, "v": None}, {"t": "t", "v": 1}, {"v": "p"}, {"t": "p", "v": 1, "x": 0},
    {"t": "l", "v": []}, {"t": "l", "v": {}}, {"t": "x", "v": 1}, [], 1, "p", None,
    {"t": "x", "v": {"hid": [["f", 0]], "opnum": 1}},
    {"t": "x", "v": {"hid": [["f", 0]], "opnum": True}},
    {"t": "x", "v": {"hid": [["f", True]], "opnum": 1}},
])
_hostile_values = st.recursive(
    st.one_of(_leaves, _leaves, _near_leaves),
    lambda inner: st.one_of(
        st.builds(lambda t, v: {"t": t, "v": v},
                  st.sampled_from(["t", "l"]), st.lists(inner, max_size=4)),
        st.builds(lambda pairs: {"t": "d", "v": pairs},
                  st.lists(st.tuples(inner, inner).map(list), max_size=3)),
        st.builds(lambda pairs: {"t": "d", "v": pairs},
                  st.lists(st.lists(inner, max_size=3), max_size=2)),
        st.builds(lambda t, v: {"t": t, "v": v, "extra": 0},
                  st.sampled_from(["p", "t", "l", "d", "q"]), st.lists(inner, max_size=2)),
    ),
    max_leaves=12,
)
_hostile_containers = st.builds(
    lambda items: {"t": "l", "v": items}, st.lists(_hostile_values, min_size=1, max_size=4),
) | st.builds(
    lambda pairs: {"t": "d", "v": pairs},
    st.lists(st.tuples(_hostile_values, _hostile_values).map(list), min_size=1, max_size=3),
)

_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.integers() | st.text(max_size=2), inner, max_size=3),
    ),
    max_leaves=16,
)


def _node_paths(doc, path=()):
    """The path of every tagged node of a well-formed document."""
    yield path
    if doc["t"] in ("t", "l"):
        for i, item in enumerate(doc["v"]):
            yield from _node_paths(item, path + ("v", i))
    elif doc["t"] == "d":
        for i, pair in enumerate(doc["v"]):
            for side in (0, 1):
                yield from _node_paths(pair[side], path + ("v", i, side))


def _put(doc, path, node):
    if not path:
        return node
    out = copy.copy(doc)
    out[path[0]] = _put(doc[path[0]], path[1:], node)
    return out


@st.composite
def _one_bad_node(draw):
    """A value's tagged document with one node, anywhere, damaged."""
    doc = json.loads(value_text(draw(_values)))
    path = draw(st.sampled_from(list(_node_paths(doc))))
    return _put(doc, path, copy.deepcopy(draw(_near_leaves)))


@HOSTILE_RUNS
@given(st.one_of(_one_bad_node(), _one_bad_node(), _hostile_values, _hostile_containers))
def test_a_hostile_value_decodes_as_the_reference_decodes_it(doc):
    assert_same(decode_value, ref_decode_value, doc)


_hostile_hids = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["f", "g", 1, None]),
                  st.sampled_from([0, 1, True, False, 1.0, "1", None])).map(list),
        st.sampled_from([[], ["f"], ["f", 0, 0], "f", {"f": 0}]),
    ),
    max_size=3,
) | st.sampled_from(HOSTILE)


@HOSTILE_RUNS
@given(st.lists(_hostile_hids, min_size=1, max_size=4))
def test_hostile_ids_and_op_keys_decode_as_the_reference_decodes_them(docs):
    for doc in docs:
        assert_same(decode_hid, ref_decode_hid, doc)
        assert_same(_decode_opkey, ref_decode_opkey, ["r", doc, 1])
    for doc in docs:
        try:
            want = ref_decode_hid(doc)
        except AdviceFormatError:
            continue
        assert decode_hid(doc) is want  # the process-wide interned instance
