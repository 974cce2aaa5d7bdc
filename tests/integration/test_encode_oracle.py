"""The one-pass record writers change no byte (DESIGN.md §8).

Every stored record -- trace events and the ten advice sections (the
frames of an epoch stream), the epoch meta record,
binlog entries and checkpoint records and digests -- is written as text
by one walk over the value.  :mod:`tests.encode_oracle` keeps the
document-building encoders they replaced; these tests hold the writers
to them byte for byte: a property over values no application writes,
and every record of the golden runs.
"""

import enum
import hashlib
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advice.codec import iter_advice_frames
from repro.advice.records import Advice, VariableLogEntry
from repro.continuous import ContinuousAuditor, Epoch, EpochSealer
from repro.continuous.checkpoint import STREAM_NAME as CHECKPOINTS
from repro.continuous.checkpoint import RT_CHECKPOINT, RT_DELTA, CheckpointStore
from repro.continuous.codec import epoch_stream_name, write_epoch_stored
from repro.core.ids import HandlerId, TxId
from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.storage import MemoryBackend
from repro.storage.values import value_text, value_texts
from repro.storage.records import canonical_json
from repro.store import KVStore
from repro.store.binlog import STREAM_NAME as BINLOG
from repro.trace.codec import RT_EVENT
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from tests import encode_oracle as oracle
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1


# -- values no application writes -------------------------------------------------


class Color(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Ratio(float):
    pass


class Bag(dict):
    pass


class Seq(list):
    pass


Pair = namedtuple("Pair", "left right")

_hids = st.recursive(
    st.builds(HandlerId, st.sampled_from(["f", "g", "é"]), st.none(),
              st.integers(0, 3)),
    lambda parents: st.builds(HandlerId, st.sampled_from(["f", "h"]), parents,
                              st.integers(0, 3)),
    max_leaves=3,
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 1.0, -0.0, 0.0, 2 ** 64, -(2 ** 100)]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.builds(TxId, _hids, st.integers(0, 5)),
    st.sampled_from([Color.RED, Label("sub"), Ratio(2.5), Ratio(float("nan"))]),
)
_keys = st.recursive(
    _scalars, lambda inner: st.tuples(inner, inner) | st.builds(Pair, inner, inner),
    max_leaves=4,
)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(Seq),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3).map(Bag),
        st.dictionaries(st.text(max_size=3), inner, max_size=3).map(OrderedDict),
    )


_values = st.recursive(_scalars, _containers, max_leaves=16)

PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(_values)
def test_value_text_is_the_document_text(value):
    stored, digest = value_texts(value)
    assert stored == value_text(value) == oracle.value_text(value)
    assert digest == oracle.value_text(value, sort=True)
    # One object when sorting reorders nothing, so a checkpoint keeps one
    # string per entry.
    assert (digest is stored) == (digest == stored)


def test_subclasses_take_their_base_tag():
    assert value_text(Color.RED) == '{"t":"p","v":1}'
    assert value_text(Pair(1, "a")) == oracle.value_text(Pair(1, "a"))
    assert value_texts(Bag(b=1, a=2))[1] == oracle.value_text(Bag(b=1, a=2), sort=True)
    for encode in (value_text, oracle.value_text):
        with pytest.raises(AdviceFormatError):
            encode({1, 2})


# -- every record of the golden runs ---------------------------------------------


def _records(backend, name):
    with backend.reader(name) as reader:
        return list(reader)


@pytest.mark.parametrize("run_name", sorted(vg.RUNS))
def test_served_records_match_the_documents(run_name):
    """Epoch (trace and advice) and binlog records of a golden run,
    served again as ``repro serve`` stores it: sealed whole as epoch 0."""
    app, workload, level = vg.RUNS[run_name]
    backend = MemoryBackend()
    store = KVStore(level, binlog_backend=backend) if level is not None else None
    sealer = EpochSealer(0, sink=lambda epoch: write_epoch_stored(backend, epoch))
    run = run_server(
        vg.APPS[app](), workload(), KarousosPolicy(), store=store,
        scheduler=RandomScheduler(1), concurrency=5, sealer=sealer,
    )
    assert run.trace == vg.served(run_name).trace
    [epoch] = sealer.epochs
    stored = _records(backend, epoch_stream_name(0))
    assert stored == list(oracle.epoch_records(epoch))
    events = [payload for rtype, payload in stored if rtype == RT_EVENT]
    assert events == [oracle.trace_event_record(e) for e in run.trace]
    if store is not None:
        store.binlog.seal()
        assert [p for _, p in _records(backend, BINLOG)] == [
            oracle.binlog_record(e) for e in store.binlog
        ]
    for case, (_trace, advice) in vg.cases(run_name).items():
        assert list(iter_advice_frames(advice)) == list(
            oracle.advice_frames(advice)
        ), case


def _reference_checkpoint(cp):
    """The stored record and the digest, as whole documents."""
    def entries(values, sort):
        return [
            [k, oracle.canonical(oracle.encode_value(v)) if sort
             else oracle.encode_value(v)]
            for k, v in sorted(values.items())
        ]

    record = canonical_json({
        "epoch": cp.epoch, "parent": cp.parent_digest, "digest": cp.digest,
        "vars": entries(cp.vars, False), "kv": entries(cp.kv, False),
    })
    digest = hashlib.sha256(canonical_json({
        "index": cp.epoch, "parent": cp.parent_digest,
        "vars": entries(cp.vars, True), "kv": entries(cp.kv, True),
    }).encode()).hexdigest()
    return record, digest


@pytest.mark.parametrize("app", sorted(vg.STREAMS))
@pytest.mark.parametrize("which", ["honest", "tampered"])
def test_epoch_and_checkpoint_records_match_the_documents(app, which):
    epochs = vg.streams(app)[which]
    backend = MemoryBackend()
    for epoch in epochs:
        write_epoch_stored(backend, epoch)
        assert _records(backend, epoch_stream_name(epoch.index)) == list(
            oracle.epoch_records(epoch)
        )
    state = MemoryBackend()
    checkpoints = CheckpointStore(state)
    ContinuousAuditor(vg.APPS[app](), checkpoints=checkpoints).run(epochs)
    stored = _records(state, CHECKPOINTS)
    assert len(stored) == len(checkpoints) >= 1
    # One writer session: the whole state first, then one delta per
    # checkpoint against the one before it.
    assert [rtype for rtype, _ in stored] == [RT_CHECKPOINT] + [RT_DELTA] * (
        len(stored) - 1
    )
    for index, (_, payload) in enumerate(stored):
        cp = checkpoints.get(index)
        record, digest = _reference_checkpoint(cp)
        assert cp.digest == digest
        if index:
            record = oracle.checkpoint_delta(cp, checkpoints.get(index - 1))
        assert payload == record.encode()


# -- one text per shared object, per pass --------------------------------------


def _logging_epoch(index, *values):
    """An epoch whose one variable log writes ``values`` in turn, and
    whose one response is the last of them."""
    hid = HandlerId.intern("render")
    advice = Advice()
    advice.variable_logs["acc"] = {
        ("r1", hid, i): VariableLogEntry(
            "write", value=v, prec=("r1", hid, i - 1) if i else None
        )
        for i, v in enumerate(values)
    }
    trace = Trace([TraceEvent(REQ, "r1", Request.make("r1", "render")),
                   TraceEvent(RESP, "r1", values[-1])], frozen=True)
    return Epoch(index, trace, advice)


def _stored_epoch(backend, epoch):
    write_epoch_stored(backend, epoch)
    return _records(backend, epoch_stream_name(epoch.index))


class Walked(dict):
    """A dict that counts the walks over its items."""

    walks = 0

    def items(self):
        Walked.walks += 1
        return super().items()


def test_an_object_shared_by_entries_of_one_epoch():
    """Two writes share sub-values, as wiki's ``{**acc, rid: slot}``
    does, and one object is written twice and sent as the response:
    each object's text is the document's, and is built once."""
    slot = Walked(page="p", parts=[1, (2, "x")])
    first = {"r0": slot}
    second = {**first, "r1": slot, "both": [slot, slot]}
    epoch = _logging_epoch(0, first, second, first)
    expected = list(oracle.epoch_records(epoch))
    Walked.walks = 0
    assert _stored_epoch(MemoryBackend(), epoch) == expected
    assert Walked.walks == 1


def test_a_value_replaced_between_two_passes():
    """Each epoch is encoded as its values stand at its own pass: one
    mutated in place, and one freed and replaced (its id free for reuse)."""
    backend = MemoryBackend()
    kept, dropped = {"k": [1, 2]}, ([3, 4], {"z": 0})
    epoch = _logging_epoch(0, kept, dropped, kept)
    assert _stored_epoch(backend, epoch) == list(oracle.epoch_records(epoch))
    kept["k"].append(5)
    del epoch, dropped
    replacement = ([6], {"z": 1})
    epoch = _logging_epoch(1, kept, replacement, kept)
    assert _stored_epoch(backend, epoch) == list(oracle.epoch_records(epoch))


def test_writing_an_epoch_adds_no_attribute_to_its_ids():
    """Id texts are memoised per encode pass, never on the id: the
    audit's ``HandlerId.__hash__``/``__eq__`` read the instance on every
    probe, and a wider instance made them slower."""
    epoch = vg.streams("wiki")["honest"][1]
    hids = {h for _rid, hid in epoch.advice.opcounts
            for h in (hid, *hid.ancestors())}
    assert hids
    write_epoch_stored(MemoryBackend(), epoch)
    for hid in hids:
        assert set(vars(hid)) == {"function_id", "parent", "opnum", "_hash"}
