"""Tagged value encoding shared by every persistence surface.

Round-trips the Python types applications may store -- None, bool, int,
float, str, and (possibly nested) lists/tuples/dicts -- plus the audit
identifiers (:class:`~repro.core.ids.HandlerId`,
:class:`~repro.core.ids.TxId`) that appear inside stored values such as
binlog writer tokens.

This lives in the storage layer because *every* codec needs it: trace
payloads, advice entries, checkpoints, and the binlog all carry values.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError


# -- handler / transaction ids ------------------------------------------------


def encode_hid(hid: HandlerId) -> List[List]:
    """Canonical path encoding: [[function_id, opnum], ...] root-first."""
    return [[fid, opnum] for fid, opnum in hid.canonical()]


def decode_hid(data: object) -> HandlerId:
    if not isinstance(data, list) or not data:
        raise AdviceFormatError(f"bad handler id encoding: {data!r}")
    hid: Optional[HandlerId] = None
    for part in data:
        if (
            not isinstance(part, list)
            or len(part) != 2
            or not isinstance(part[0], str)
            or not isinstance(part[1], int)
        ):
            raise AdviceFormatError(f"bad handler id segment: {part!r}")
        hid = HandlerId.intern(part[0], hid, part[1])
    return hid


def encode_tid(tid: TxId) -> Dict:
    return {"hid": encode_hid(tid.hid), "opnum": tid.opnum}


def decode_tid(data: object) -> TxId:
    if not isinstance(data, dict) or set(data) != {"hid", "opnum"}:
        raise AdviceFormatError(f"bad transaction id encoding: {data!r}")
    if not isinstance(data["opnum"], int):
        raise AdviceFormatError("transaction opnum must be an int")
    return TxId(decode_hid(data["hid"]), data["opnum"])


# -- values --------------------------------------------------------------------


def encode_value(value: object) -> object:
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


def decode_value(data: object) -> object:
    if not isinstance(data, dict) or "t" not in data or "v" not in data:
        raise AdviceFormatError(f"bad value encoding: {data!r}")
    tag, v = data["t"], data["v"]
    if tag == "p":
        if v is not None and not isinstance(v, (bool, int, float, str)):
            raise AdviceFormatError(f"bad primitive: {v!r}")
        return v
    if tag == "t":
        return tuple(decode_value(x) for x in _expect_list(v))
    if tag == "l":
        return [decode_value(x) for x in _expect_list(v)]
    if tag == "d":
        out = {}
        for pair in _expect_list(v):
            if not isinstance(pair, list) or len(pair) != 2:
                raise AdviceFormatError(f"bad dict entry: {pair!r}")
            key, value = decode_value(pair[0]), decode_value(pair[1])
            try:
                out[key] = value
            except TypeError:
                raise AdviceFormatError(f"unhashable dict key: {key!r}") from None
        return out
    if tag == "x":
        return decode_tid(v)
    raise AdviceFormatError(f"unknown value tag {tag!r}")


def _expect_list(value: object) -> list:
    if not isinstance(value, list):
        raise AdviceFormatError("expected a list")
    return value
