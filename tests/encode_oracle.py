"""The record encoders as documents: the reference the one-pass writers
are held to, byte for byte (DESIGN.md §8).

Each function builds the record's JSON document -- values as tagged
``{"t": tag, "v": ...}`` trees -- and serialises it with ``pack_json``
(or, for checkpoint fragments, ``canonical_json``), the way every record
was written before the writers produced text directly.  Nothing under
``src/`` imports this module; the tests compare the two.
"""

import json

from repro.core.ids import TxId
from repro.errors import AdviceFormatError
from repro.storage.records import canonical_json, pack_json
from repro.storage.values import encode_hid, encode_tid
from repro.trace.trace import REQ, RESP


def encode_value(value):
    """Tagged encoding preserving tuple-ness and non-string dict keys."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"t": "p", "v": value}
    if isinstance(value, tuple):
        return {"t": "t", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"t": "l", "v": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "t": "d",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, TxId):
        return {"t": "x", "v": encode_tid(value)}
    raise AdviceFormatError(f"unencodable value of type {type(value).__name__}")


def canonical(encoded):
    """An encoded value with dict pair lists sorted by the key's spaced
    JSON text, so the checkpoint digest does not depend on insertion
    order."""
    if isinstance(encoded, dict):
        if encoded.get("t") == "d":
            pairs = [[canonical(k), canonical(v)] for k, v in encoded["v"]]
            pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
            return {"t": "d", "v": pairs}
        if "v" in encoded:
            return {**encoded, "v": canonical(encoded["v"])}
        return encoded
    if isinstance(encoded, list):
        return [canonical(x) for x in encoded]
    return encoded


def value_text(value, sort=False):
    encoded = encode_value(value)
    return canonical_json(canonical(encoded)) if sort else pack_json(encoded).decode()


def fragment(key, value):
    """A checkpoint entry: ``(digest text, stored text)``."""
    encoded = encode_value(value)
    return canonical_json([key, canonical(encoded)]), canonical_json([key, encoded])


# -- trace ---------------------------------------------------------------------


def encode_trace_event(event):
    if event.kind == REQ:
        request = event.data
        return {
            "kind": REQ,
            "rid": event.rid,
            "route": request.route,
            "payload": encode_value(dict(request.payload)),
        }
    return {"kind": RESP, "rid": event.rid, "data": encode_value(event.data)}


def trace_event_record(event):
    return pack_json(encode_trace_event(event))


# -- advice --------------------------------------------------------------------


def _opkey(key):
    rid, hid, opnum = key
    return [rid, encode_hid(hid), opnum]


def _txpos(pos):
    rid, tid, i = pos
    return [rid, encode_tid(tid), i]


def _tx_entry(e):
    return {
        "hid": encode_hid(e.hid),
        "opnum": e.opnum,
        "optype": e.optype,
        "key": e.key,
        "contents": (
            _txpos(e.opcontents)
            if e.optype == "GET" and e.opcontents is not None
            else encode_value(e.opcontents)
        ),
    }


def advice_frames(advice):
    """``repro.advice.codec.iter_advice_frames``, as documents."""
    from repro.advice import codec as c

    yield c.RT_META, pack_json(
        {"version": c.FORMAT_VERSION, "isolation": advice.isolation_level.value}
    )
    for rid, tag in advice.tags.items():
        yield c.RT_TAG, pack_json([rid, tag])
    for rid, log in advice.handler_logs.items():
        yield c.RT_HANDLER_LOG, pack_json({"rid": rid, "entries": [
            {"hid": encode_hid(e.hid), "opnum": e.opnum, "optype": e.optype,
             "event": e.event, "fid": e.function_id}
            for e in log
        ]})
    for var_id, log in advice.variable_logs.items():
        yield c.RT_VARIABLE_LOG, pack_json({"var": var_id, "entries": [
            {"at": _opkey(key), "access": e.access, "value": encode_value(e.value),
             "prec": None if e.prec is None else _opkey(e.prec)}
            for key, e in log.items()
        ]})
    for (rid, tid), log in advice.tx_logs.items():
        yield c.RT_TX_LOG, pack_json(
            {"rid": rid, "tid": encode_tid(tid), "ops": [_tx_entry(e) for e in log]}
        )
    yield c.RT_WRITE_ORDER, pack_json([_txpos(p) for p in advice.write_order])
    yield c.RT_RESPONSE_BY, pack_json({
        rid: [encode_hid(hid), opnum]
        for rid, (hid, opnum) in advice.response_emitted_by.items()
    })
    yield c.RT_OPCOUNTS, pack_json([
        [rid, encode_hid(hid), count] for (rid, hid), count in advice.opcounts.items()
    ])
    yield c.RT_NONDET, pack_json([
        [_opkey(key), encode_value(value)] for key, value in advice.nondet.items()
    ])
    yield c.RT_TX_WINDOWS, pack_json([
        [rid, encode_tid(tid), start, commit]
        for (rid, tid), (start, commit) in advice.tx_windows.items()
    ])


# -- epochs, binlog ----------------------------------------------------------------


def epoch_records(epoch):
    """Every ``(rtype, payload)`` of ``write_epoch_stored(epoch)``."""
    from repro.continuous.codec import EPOCH_FORMAT_VERSION, RT_EPOCH_META
    from repro.trace.codec import RT_EVENT

    yield RT_EPOCH_META, pack_json({
        "version": EPOCH_FORMAT_VERSION,
        "index": epoch.index,
        "binlog_range": list(epoch.binlog_range),
        "has_advice": epoch.advice is not None,
    })
    for event in epoch.trace:
        yield RT_EVENT, trace_event_record(event)
    if epoch.advice is not None:
        yield from advice_frames(epoch.advice)


def binlog_record(entry):
    return pack_json({"key": entry.key, "token": encode_value(entry.writer_token)})


# -- checkpoint deltas ---------------------------------------------------------------


def checkpoint_delta(cp, before):
    """The delta record of checkpoint ``cp`` written after ``before``
    (its parent): the entries whose stored text differs from
    ``before``'s, and the keys ``before`` had and ``cp`` lacks."""
    def changed(now, had):
        return [
            [k, encode_value(v)] for k, v in sorted(now.items())
            if k not in had or fragment(k, had[k])[1] != fragment(k, v)[1]
        ]

    return canonical_json({
        "epoch": cp.epoch, "parent": cp.parent_digest, "digest": cp.digest,
        "vars": changed(cp.vars, before.vars), "kv": changed(cp.kv, before.kv),
        "drop_vars": sorted(set(before.vars) - set(cp.vars)),
        "drop_kv": sorted(set(before.kv) - set(cp.kv)),
    })
