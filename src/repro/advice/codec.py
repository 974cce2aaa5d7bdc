"""Wire format for advice bundles.

The server ships advice to the verifier over a network (paper section 2.1:
"the advice sent from the server to the verifier needs to be kept small").
A bundle is a sequence of record frames (:mod:`repro.storage`): one meta
record, then one record per tag / handler log / variable log /
transaction log and one per singleton section, so a bundle is emitted
and consumed incrementally (:func:`iter_advice_frames` /
:class:`AdviceAccumulator`).  It is stored only inside sealed epoch
streams (:mod:`repro.continuous.codec`), so each advice entry has
exactly one encoding.

Decoding is strict: any structural surprise raises
:class:`~repro.errors.AdviceFormatError`, which the audit treats as a
rejection (malformed advice is server misbehaviour, never a crash).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.advice.records import (
    Advice,
    HandlerOpEntry,
    TxLogEntry,
    VariableLogEntry,
)
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.storage.records import json_text, unpack_json
from repro.storage.values import TextEncoder, decode_hid, decode_tid, decode_value, expect_int
from repro.store.kv import IsolationLevel

FORMAT_VERSION = 1

# Record types (stable wire identifiers; epoch streams embed these, so
# they must not collide with the epoch meta record (1) or the trace
# event record (2)).
RT_META = 19
RT_TAG = 20
RT_HANDLER_LOG = 21
RT_VARIABLE_LOG = 22
RT_TX_LOG = 23
RT_WRITE_ORDER = 24
RT_RESPONSE_BY = 25
RT_OPCOUNTS = 26
RT_NONDET = 27
RT_TX_WINDOWS = 28

ADVICE_RECORD_TYPES = (
    RT_META,
    RT_TAG,
    RT_HANDLER_LOG,
    RT_VARIABLE_LOG,
    RT_TX_LOG,
    RT_WRITE_ORDER,
    RT_RESPONSE_BY,
    RT_OPCOUNTS,
    RT_NONDET,
    RT_TX_WINDOWS,
)


# -- coordinates -----------------------------------------------------------------


def _opkey_text(enc: TextEncoder, key: Tuple[str, HandlerId, int]) -> str:
    rid, hid, opnum = key
    return "[%s,%s,%s]" % (json_text(rid), enc.hid(hid), json_text(opnum))


def _txpos_text(enc: TextEncoder, pos: Tuple[str, TxId, int]) -> str:
    rid, tid, i = pos
    return "[%s,%s,%s]" % (json_text(rid), enc.tid(tid), json_text(i))


def _decode_opkey(data: object) -> Tuple[str, HandlerId, int]:
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad op key: {data!r}")
    return (data[0], decode_hid(data[1]), expect_int(data[2]))


def _decode_txpos(data: object) -> Tuple[str, TxId, int]:
    if not isinstance(data, list) or len(data) != 3 or not isinstance(data[0], str):
        raise AdviceFormatError(f"bad tx position: {data!r}")
    return (data[0], decode_tid(data[1]), expect_int(data[2]))


# -- section accumulators -------------------------------------------------------
#
# The per-entry loops of the three big sections decode each entry's
# fields in one loop, in the order the per-entry decoders they replaced
# did, so every entry is accepted or rejected as before and with the same
# first error (tests/unit/test_decode_oracle.py).


def _accum_tag(advice: Advice, rid: object, tag: object) -> None:
    if not isinstance(rid, str) or not isinstance(tag, str):
        raise AdviceFormatError("tags must map request ids to strings")
    if rid in advice.tags:
        raise AdviceFormatError(f"duplicate tag for request {rid}")
    advice.tags[rid] = tag


def _accum_handler_log(advice: Advice, rid: object, log: object) -> None:
    rid = _expect_str(rid)
    if rid in advice.handler_logs:
        raise AdviceFormatError(f"duplicate handler log for request {rid}")
    entries = []
    for e in _expect_list(log):
        hid, opnum = decode_hid(e["hid"]), expect_int(e["opnum"])
        optype, event = _expect_str(e["optype"]), _expect_str(e["event"])
        entries.append(HandlerOpEntry(hid, opnum, optype, event, e.get("fid")))
    advice.handler_logs[rid] = entries


def _accum_variable_log(advice: Advice, var_id: object, entries: object) -> None:
    var_id = _expect_str(var_id)
    if var_id in advice.variable_logs:
        raise AdviceFormatError(f"duplicate variable log for {var_id}")
    log = {}
    for e in _expect_list(entries):
        key = _decode_opkey(e["at"])
        access = _expect_str(e["access"])
        v, prec = decode_value(e["value"]), e["prec"]
        if prec is not None:
            prec = _decode_opkey(prec)
        if key in log:
            raise AdviceFormatError(f"duplicate variable log key {key}")
        log[key] = VariableLogEntry(access, v, prec)
    advice.variable_logs[var_id] = log


def _accum_tx_log(advice: Advice, tx: Dict) -> None:
    rid = _expect_str(tx["rid"])
    tid = decode_tid(tx["tid"])
    ops = []
    for e in _expect_list(tx["ops"]):
        optype, contents = _expect_str(e["optype"]), e["contents"]
        if optype == "GET" and contents is not None and isinstance(contents, list):
            contents = _decode_txpos(contents)
        else:
            contents = decode_value(contents)
        hid, opnum = decode_hid(e["hid"]), expect_int(e["opnum"])
        ops.append(TxLogEntry(hid, opnum, optype, e.get("key"), contents))
    if (rid, tid) in advice.tx_logs:
        raise AdviceFormatError(f"duplicate transaction {(rid, tid)}")
    advice.tx_logs[(rid, tid)] = ops


def _accum_write_order(advice: Advice, doc: object) -> None:
    advice.write_order = [_decode_txpos(p) for p in _expect_list(doc)]


def _accum_response_by(advice: Advice, doc: object) -> None:
    if not isinstance(doc, dict):
        raise AdviceFormatError("response_emitted_by must be an object")
    for rid, pair in doc.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise AdviceFormatError("bad response_emitted_by entry")
        advice.response_emitted_by[rid] = (decode_hid(pair[0]), expect_int(pair[1]))


def _accum_opcounts(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 3:
            raise AdviceFormatError("bad opcounts entry")
        rid, hid_doc, count = item
        advice.opcounts[(_expect_str(rid), decode_hid(hid_doc))] = expect_int(count)


def _accum_nondet(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 2:
            raise AdviceFormatError("bad nondet entry")
        advice.nondet[_decode_opkey(item[0])] = decode_value(item[1])


def _accum_tx_windows(advice: Advice, doc: object) -> None:
    for item in _expect_list(doc):
        if not isinstance(item, list) or len(item) != 4:
            raise AdviceFormatError("bad tx window entry")
        rid, tid_doc, start, commit = item
        if commit is not None and not isinstance(commit, int):
            raise AdviceFormatError("bad tx window commit")
        advice.tx_windows[(_expect_str(rid), decode_tid(tid_doc))] = (
            expect_int(start),
            commit,
        )


def _decode_isolation(value: object) -> IsolationLevel:
    try:
        return IsolationLevel(value)
    except ValueError as exc:
        raise AdviceFormatError("bad isolation level") from exc


# -- record streams ------------------------------------------------------------


def iter_advice_frames(
    advice: Advice, enc: Optional[TextEncoder] = None
) -> Iterable[Tuple[int, bytes]]:
    """The bundle as ``(rtype, payload)`` frames, emitted section by
    section and entry by entry (big sections never serialise as one
    blob).  Epoch streams embed these frames directly.

    Each payload is written in one pass (DESIGN.md §8): the templates
    spell the wire format, object fields in order.  ``enc`` shares one
    id memo across the frames of an encode pass."""
    enc = enc or TextEncoder()
    hid, tid, value = enc.hid, enc.tid, enc.value
    yield RT_META, _record('{"version":%d,"isolation":%s}', FORMAT_VERSION,
                           json_text(advice.isolation_level.value))
    for rid, tag in advice.tags.items():
        yield RT_TAG, _record("[%s,%s]", json_text(rid), json_text(tag))
    for rid, log in advice.handler_logs.items():
        entries = ['{"hid":%s,"opnum":%s,"optype":%s,"event":%s,"fid":%s}' % (
            hid(e.hid), json_text(e.opnum), json_text(e.optype), json_text(e.event),
            json_text(e.function_id),
        ) for e in log]
        yield RT_HANDLER_LOG, _record('{"rid":%s,"entries":[%s]}', json_text(rid),
                                      ",".join(entries))
    for var_id, log in advice.variable_logs.items():
        entries = ['{"at":%s,"access":%s,"value":%s,"prec":%s}' % (
            _opkey_text(enc, key), json_text(e.access), value(e.value),
            "null" if e.prec is None else _opkey_text(enc, e.prec),
        ) for key, e in log.items()]
        yield RT_VARIABLE_LOG, _record('{"var":%s,"entries":[%s]}', json_text(var_id),
                                       ",".join(entries))
    for (rid, t), log in advice.tx_logs.items():
        ops = ['{"hid":%s,"opnum":%s,"optype":%s,"key":%s,"contents":%s}' % (
            hid(e.hid), json_text(e.opnum), json_text(e.optype), json_text(e.key),
            _txpos_text(enc, e.opcontents)
            if e.optype == "GET" and e.opcontents is not None else value(e.opcontents),
        ) for e in log]
        yield RT_TX_LOG, _record('{"rid":%s,"tid":%s,"ops":[%s]}', json_text(rid), tid(t),
                                 ",".join(ops))
    yield RT_WRITE_ORDER, _record("[%s]", ",".join(
        [_txpos_text(enc, pos) for pos in advice.write_order]))
    yield RT_RESPONSE_BY, _record("{%s}", ",".join([
        "%s:[%s,%s]" % (json_text(rid), hid(h), json_text(opnum))
        for rid, (h, opnum) in advice.response_emitted_by.items()]))
    yield RT_OPCOUNTS, _record("[%s]", ",".join([
        "[%s,%s,%s]" % (json_text(rid), hid(h), json_text(count))
        for (rid, h), count in advice.opcounts.items()]))
    yield RT_NONDET, _record("[%s]", ",".join([
        "[%s,%s]" % (_opkey_text(enc, key), value(v)) for key, v in advice.nondet.items()]))
    yield RT_TX_WINDOWS, _record("[%s]", ",".join([
        "[%s,%s,%s,%s]" % (json_text(rid), tid(t), json_text(start), json_text(commit))
        for (rid, t), (start, commit) in advice.tx_windows.items()]))


def _record(template: str, *fields: object) -> bytes:
    return (template % fields).encode()


class AdviceAccumulator:
    """Builds an :class:`Advice` from a sequence of advice frames, with
    strict per-section validation: the epoch stream reader feeds it the
    advice frames of each stored epoch."""

    def __init__(self) -> None:
        self.advice = Advice()
        self._saw_meta = False
        self._singletons: set = set()

    def feed(self, rtype: int, payload: bytes) -> None:
        try:
            self._feed(rtype, payload)
        except AdviceFormatError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise AdviceFormatError(
                f"malformed advice record: {type(exc).__name__}: {exc}"
            ) from exc

    def _feed(self, rtype: int, payload: bytes) -> None:
        if rtype == RT_META:
            if self._saw_meta:
                raise AdviceFormatError("duplicate advice meta record")
            doc = unpack_json(payload)
            if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
                raise AdviceFormatError(f"unsupported advice stream meta {doc!r}")
            if "isolation" not in doc:
                raise AdviceFormatError("bad isolation level")
            self.advice.isolation_level = _decode_isolation(doc["isolation"])
            self._saw_meta = True
            return
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        doc = unpack_json(payload)
        if rtype == RT_TAG:
            if not isinstance(doc, list) or len(doc) != 2:
                raise AdviceFormatError(f"bad tag record {doc!r}")
            _accum_tag(self.advice, doc[0], doc[1])
        elif rtype == RT_HANDLER_LOG:
            _accum_handler_log(self.advice, doc["rid"], doc["entries"])
        elif rtype == RT_VARIABLE_LOG:
            _accum_variable_log(self.advice, doc["var"], doc["entries"])
        elif rtype == RT_TX_LOG:
            _accum_tx_log(self.advice, doc)
        elif rtype in _SINGLETON_SECTIONS:
            if rtype in self._singletons:
                raise AdviceFormatError(f"duplicate advice section record {rtype}")
            self._singletons.add(rtype)
            _SINGLETON_SECTIONS[rtype](self.advice, doc)
        else:
            raise AdviceFormatError(f"unknown advice record type {rtype}")

    def finish(self) -> Advice:
        if not self._saw_meta:
            raise AdviceFormatError("advice stream has no meta record")
        return self.advice


_SINGLETON_SECTIONS = {
    RT_WRITE_ORDER: _accum_write_order,
    RT_RESPONSE_BY: _accum_response_by,
    RT_OPCOUNTS: _accum_opcounts,
    RT_NONDET: _accum_nondet,
    RT_TX_WINDOWS: _accum_tx_windows,
}


# -- small validators ------------------------------------------------------------------


def _expect_list(value: object) -> list:
    if not isinstance(value, list):
        raise AdviceFormatError("expected a list")
    return value


def _expect_str(value: object) -> str:
    if not isinstance(value, str):
        raise AdviceFormatError(f"expected a string, got {value!r}")
    return value
