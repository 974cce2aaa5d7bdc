"""Tagged value encoding shared by every persistence surface.

Round-trips the Python types applications may store -- None, bool, int,
float, str, and (possibly nested) lists/tuples/dicts -- plus the audit
identifiers (:class:`~repro.core.ids.HandlerId`,
:class:`~repro.core.ids.TxId`) that appear inside stored values such as
binlog writer tokens.

This lives in the storage layer because *every* codec needs it: trace
payloads, advice entries, checkpoints, and the binlog all carry values.
Writers emit a value's tagged document as text in one pass, never
building it (:func:`value_text`, DESIGN.md §8); readers parse it and
:func:`decode_value` inverts it in one walk.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str_text
from typing import Dict, List, Optional, Tuple

from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.storage.records import RecordFormatError, json_text


# -- handler / transaction ids ------------------------------------------------


def encode_hid(hid: HandlerId) -> List[List]:
    """Canonical path encoding: [[function_id, opnum], ...] root-first."""
    return [[fid, opnum] for fid, opnum in hid.canonical()]


def expect_int(value: object) -> int:
    """``value`` if it is an int and not a bool (``True`` is an ``int``
    to ``isinstance``, never an opnum, index or count)."""
    if type(value) is int:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise AdviceFormatError(f"expected an int, got {value!r}")
    return value


def decode_hid(data: object) -> HandlerId:
    if not isinstance(data, list) or not data:
        raise AdviceFormatError(f"bad handler id encoding: {data!r}")
    hid: Optional[HandlerId] = None
    for part in data:
        if (
            not isinstance(part, list)
            or len(part) != 2
            or not isinstance(part[0], str)
        ):
            raise AdviceFormatError(f"bad handler id segment: {part!r}")
        hid = HandlerId.intern(part[0], hid, expect_int(part[1]))
    return hid


def encode_tid(tid: TxId) -> Dict:
    return {"hid": encode_hid(tid.hid), "opnum": tid.opnum}


def decode_tid(data: object) -> TxId:
    if not isinstance(data, dict) or set(data) != {"hid", "opnum"}:
        raise AdviceFormatError(f"bad transaction id encoding: {data!r}")
    return TxId(decode_hid(data["hid"]), expect_int(data["opnum"]))


# -- values --------------------------------------------------------------------


class TextEncoder:
    """One encode pass.  Id and container (dict, list, tuple) texts are
    memoised for the pass by identity, so a value shared by several
    entries is encoded once; each memo holds every object it has seen, so
    no key is reused while it lives.  Nothing is stored on the objects
    themselves: DESIGN.md §8 says why, and why this is sound."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: Dict[int, Tuple[object, str]] = {}
        self._values: Dict[int, Tuple[object, str]] = {}

    def hid(self, hid: HandlerId) -> str:  # the text of encode_hid(hid)
        entry = self._ids.get(id(hid))
        if entry is None:
            head = "[" if hid.parent is None else self.hid(hid.parent)[:-1] + ","
            text = "%s[%s,%s]]" % (head, json_text(hid.function_id), json_text(hid.opnum))
            entry = self._ids[id(hid)] = (hid, text)
        return entry[1]

    def tid(self, tid: TxId) -> str:  # the text of encode_tid(tid)
        entry = self._ids.get(id(tid))
        if entry is None:
            text = '{"hid":%s,"opnum":%s}' % (self.hid(tid.hid), json_text(tid.opnum))
            entry = self._ids[id(tid)] = (tid, text)
        return entry[1]

    def value(self, value: object) -> str:
        return _text(value, self)


# The tags of an ``isinstance`` chain, in chain order, so a subclass
# encodes as its base does; exact types skip the chain.
_CHAIN = (((type(None), bool, int, float, str), "p"), ((tuple,), "t"),
          ((list,), "l"), ((dict,), "d"), ((TxId,), "x"))
_TAGS = {cls: tag for classes, tag in _CHAIN for cls in classes}


def _tag(value: object) -> str:
    tag = _TAGS.get(type(value))
    if tag is None:
        tag = next((t for classes, t in _CHAIN if isinstance(value, classes)), None)
        if tag is None:
            raise AdviceFormatError(f"unencodable value of type {type(value).__name__}")
    return tag


def _text(value: object, enc: TextEncoder) -> str:
    cls = type(value)
    if cls is str:
        return '{"t":"p","v":%s}' % _str_text(value)
    if cls is int:
        return '{"t":"p","v":%d}' % value
    tag = _tag(value)
    if tag == "p":
        return '{"t":"p","v":%s}' % json_text(value)
    if tag == "x":
        return '{"t":"x","v":%s}' % enc.tid(value)
    entry = enc._values.get(id(value))
    if entry is not None:
        return entry[1]
    if tag == "d":
        text = '{"t":"d","v":[%s]}' % ",".join(
            ["[%s,%s]" % (_text(k, enc), _text(v, enc)) for k, v in value.items()]
        )
    else:
        text = '{"t":"%s","v":[%s]}' % (tag, ",".join([_text(v, enc) for v in value]))
    enc._values[id(value)] = (value, text)
    return text


def _texts(value: object, enc: TextEncoder) -> Tuple[str, str]:
    """``_text(value)`` and its key-sorted form, from one walk."""
    tag = _tag(value)
    if tag == "d":
        pairs = [(_texts(k, enc), _texts(v, enc)) for k, v in value.items()]
        ordered = sorted(pairs, key=lambda kv: kv[0][1])  # stable
        items = [["[%s,%s]" % (k[i], v[i]) for k, v in side]
                 for i, side in enumerate((pairs, ordered))]
    elif tag == "t" or tag == "l":
        parts = [_texts(v, enc) for v in value]
        items = [[p[0] for p in parts], [p[1] for p in parts]]
    else:
        text = _text(value, enc)
        return text, text
    stored, digest = ['{"t":"%s","v":[%s]}' % (tag, ",".join(side)) for side in items]
    return stored, stored if digest == stored else digest


def value_text(value: object) -> str:
    """The compact JSON text of ``value``'s tagged document.  Raises
    :class:`~repro.errors.AdviceFormatError` for a value no tag covers."""
    return _text(value, TextEncoder())


def value_texts(value: object) -> Tuple[str, str]:
    """``value_text(value)`` and the key-sorted form (every dict's pairs
    stably ordered by their key's sorted text: the checkpoint digest
    form), from one walk; one string object when no dict is reordered."""
    return _texts(value, TextEncoder())


def decode_value(data: object) -> object:
    """The value a tagged document encodes (too deep: a format error)."""
    try:
        return _decode(data)
    except RecursionError:
        raise RecordFormatError("value nests too deeply") from None


# The exact types of a primitive leaf.  A container takes a ``"p"`` child
# holding one of these inline; any other child (a container, a subclass,
# a damaged node) goes through ``_decode``, which has the last word, so
# both paths accept and reject the same documents.  The test is written
# out where each child is read, not called: a call per child is what
# the inline path saves, and a helper frame per level would reject, as
# nested too deeply, documents the per-node decoder accepted.
_LEAVES = frozenset((type(None), bool, int, float, str))
_ABSENT = object()


def _decode(data: object) -> object:
    if not isinstance(data, dict) or "t" not in data or "v" not in data:
        raise AdviceFormatError(f"bad value encoding: {data!r}")
    tag, v = data["t"], data["v"]
    if tag == "p":
        if v is not None and not isinstance(v, (bool, int, float, str)):
            raise AdviceFormatError(f"bad primitive: {v!r}")
        return v
    if tag == "t" or tag == "l":
        items = [
            x["v"] if type(x) is dict and type(x.get("v", _ABSENT)) in _LEAVES
            and x.get("t") == "p" else _decode(x)
            for x in _expect_list(v)
        ]
        return items if tag == "l" else tuple(items)
    if tag == "d":
        out = {}
        for pair in _expect_list(v):
            if not isinstance(pair, list) or len(pair) != 2:
                raise AdviceFormatError(f"bad dict entry: {pair!r}")
            key, value = pair
            if (type(key) is dict and type(key.get("v", _ABSENT)) in _LEAVES
                    and key.get("t") == "p"):
                key = key["v"]
            else:
                key = _decode(key)
            if (type(value) is dict and type(value.get("v", _ABSENT)) in _LEAVES
                    and value.get("t") == "p"):
                value = value["v"]
            else:
                value = _decode(value)
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
