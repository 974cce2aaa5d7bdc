"""Unit and property tests for the advice wire format."""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.advice.codec import (
    FORMAT_VERSION,
    RT_META,
    RT_OPCOUNTS,
    RT_RESPONSE_BY,
    RT_TAG,
    RT_VARIABLE_LOG,
    RT_WRITE_ORDER,
    AdviceAccumulator,
    iter_advice_frames,
)
from repro.apps import motd_app, stackdump_app, wiki_app
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage.records import RecordFormatError, unpack_json
from repro.storage.values import decode_hid, decode_tid, decode_value, encode_hid, value_text
from repro.store import IsolationLevel, KVStore
from repro.verifier import audit
from repro.workload import motd_workload, stacks_workload, wiki_workload


class TestHidEncoding:
    def test_roundtrip_chain(self):
        hid = HandlerId("c", HandlerId("b", HandlerId("a"), 2), 5)
        assert decode_hid(encode_hid(hid)) == hid

    def test_request_handler(self):
        hid = HandlerId("f", None, 0)
        assert decode_hid(encode_hid(hid)) == hid

    @pytest.mark.parametrize("bad", [[], "x", [[1, 2]], [["f"]], [["f", "x"]]])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AdviceFormatError):
            decode_hid(bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_opnums_rejected(self, flag):
        """``True == 1``: a bool opnum would intern as the int's handler
        id, for every later caller in the process."""
        with pytest.raises(AdviceFormatError):
            decode_hid([["f", 0], ["g", flag]])
        with pytest.raises(AdviceFormatError):
            decode_tid({"hid": [["f", 0]], "opnum": flag})


values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


def _roundtrip(value):
    """A value through its stored text and back."""
    return decode_value(json.loads(value_text(value)))


class TestValueEncoding:
    @settings(max_examples=200)
    @given(values)
    def test_roundtrip(self, value):
        assert _roundtrip((value)) == value

    def test_tuple_vs_list_preserved(self):
        assert _roundtrip(((1, 2))) == (1, 2)
        assert _roundtrip(([1, 2])) == [1, 2]
        assert type(_roundtrip(((1,)))) is tuple

    def test_non_string_dict_keys(self):
        value = {("r1", 2): "x", 5: "y"}
        assert _roundtrip((value)) == value

    def test_txid_values(self):
        tid = TxId(HandlerId("f", None, 0), 3)
        assert _roundtrip((tid)) == tid

    def test_unencodable_rejected(self):
        with pytest.raises(AdviceFormatError):
            value_text(object())

    def test_too_deep_rejected(self):
        doc = {"t": "p", "v": 0}
        for _ in range(sys.getrecursionlimit()):
            doc = {"t": "l", "v": [doc]}
        with pytest.raises(RecordFormatError):
            decode_value(doc)
        with pytest.raises(RecordFormatError):
            unpack_json(b"[" * 100_000 + b"]" * 100_000)

    @pytest.mark.parametrize("bad", [{"t": "z", "v": 1}, {"v": 1}, 42])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AdviceFormatError):
            decode_value(bad)


def _runs():
    yield run_server(
        motd_app(), motd_workload(15, seed=1), KarousosPolicy(),
        scheduler=RandomScheduler(1), concurrency=4,
    ), motd_app
    yield run_server(
        stackdump_app(), stacks_workload(15, mix="mixed", seed=2), KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(2), concurrency=4,
    ), stackdump_app
    yield run_server(
        wiki_app(), wiki_workload(15, seed=3), KarousosPolicy(),
        store=KVStore(IsolationLevel.READ_COMMITTED),
        scheduler=RandomScheduler(3), concurrency=4,
    ), wiki_app


def _decode(frames):
    """Feed ``(rtype, payload)`` frames through the one advice decoder."""
    accum = AdviceAccumulator()
    for rtype, payload in frames:
        accum.feed(rtype, payload)
    return accum.finish()


class TestBundleRoundtrip:
    @pytest.mark.parametrize("run,app_fn", list(_runs()), ids=["motd", "stacks", "wiki"])
    def test_decoded_advice_still_verifies(self, run, app_fn):
        decoded = _decode(iter_advice_frames(run.advice))
        result = audit(app_fn(), run.trace, decoded)
        assert result.accepted, (result.reason, result.detail)

    @pytest.mark.parametrize("run,app_fn", list(_runs()), ids=["motd", "stacks", "wiki"])
    def test_roundtrip_preserves_structure(self, run, app_fn):
        decoded = _decode(iter_advice_frames(run.advice))
        assert decoded.tags == run.advice.tags
        assert decoded.opcounts == run.advice.opcounts
        assert decoded.handler_logs == run.advice.handler_logs
        assert decoded.variable_logs == run.advice.variable_logs
        assert decoded.tx_logs == run.advice.tx_logs
        assert decoded.write_order == run.advice.write_order
        assert decoded.response_emitted_by == run.advice.response_emitted_by
        assert decoded.nondet == run.advice.nondet
        assert decoded.isolation_level == run.advice.isolation_level

    def test_encoding_is_deterministic(self):
        run, _ = next(_runs())
        assert list(iter_advice_frames(run.advice)) == list(
            iter_advice_frames(run.advice)
        )


class TestStrictDecoding:
    def _frames(self):
        run, _ = next(_runs())
        return list(iter_advice_frames(run.advice))

    def _with(self, rtype, edit):
        """The honest frames with the first ``rtype`` frame's JSON document
        passed through ``edit`` (which mutates or replaces it)."""
        frames = self._frames()
        at = next(i for i, (t, _) in enumerate(frames) if t == rtype)
        doc = json.loads(frames[at][1])
        doc = edit(doc) or doc
        frames[at] = (rtype, json.dumps(doc).encode())
        return frames

    def test_wrong_version_rejected(self):
        frames = self._with(
            RT_META, lambda doc: doc.update(version=FORMAT_VERSION + 1)
        )
        with pytest.raises(AdviceFormatError):
            _decode(frames)

    def test_bad_isolation_rejected(self):
        frames = self._with(RT_META, lambda doc: doc.update(isolation="quantum"))
        with pytest.raises(AdviceFormatError):
            _decode(frames)

    def test_non_json_rejected(self):
        with pytest.raises(AdviceFormatError):
            _decode([(RT_META, b"{not json")])

    def test_non_object_rejected(self):
        with pytest.raises(AdviceFormatError):
            _decode([(RT_META, b"[1,2,3]")])

    def test_non_string_tag_rejected(self):
        frames = self._with(RT_TAG, lambda doc: [doc[0], 42])
        with pytest.raises(AdviceFormatError):
            _decode(frames)

    def test_bool_op_key_opnum_rejected(self):
        def edit(doc):
            doc["entries"][0]["at"][2] = True

        with pytest.raises(AdviceFormatError):
            _decode(self._with(RT_VARIABLE_LOG, edit))

    def test_bool_handler_opnum_rejected(self):
        def edit(doc):
            pair = next(iter(doc.values()))
            pair[0][0][1] = False

        with pytest.raises(AdviceFormatError):
            _decode(self._with(RT_RESPONSE_BY, edit))

    def test_bool_tx_position_index_rejected(self):
        position = ["r000001", {"hid": [["handle_set", 0]], "opnum": 1}, True]
        with pytest.raises(AdviceFormatError):
            _decode(self._with(RT_WRITE_ORDER, lambda doc: [position]))

    def test_bool_opcount_rejected(self):
        def edit(doc):
            doc[0][2] = True

        with pytest.raises(AdviceFormatError):
            _decode(self._with(RT_OPCOUNTS, edit))
