"""The checkpoint stream stores what each epoch changed (DESIGN.md §6).

A writer session's first :meth:`CheckpointStore.put` stores the whole
state; every later put stores a delta against the checkpoint written
just before it, its parent.  These tests hold the reopened chain to the
live one on every backend -- digests, type-strict values, dict order --
and pin what a damaged or forged stream does: a torn final delta is a
crash artefact and is dropped, a delta that does not extend the record
before it is malformed, and a delta whose value was altered (CRC
recomputed) refuses resumption as ``checkpoint-chain-forged``.
"""

import gzip
import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.continuous import AuditJournal, ContinuousAuditor
from repro.continuous.checkpoint import (
    GENESIS_DIGEST,
    RT_CHECKPOINT,
    RT_DELTA,
    STREAM_KIND,
    STREAM_NAME,
    Checkpoint,
    CheckpointChainError,
    CheckpointError,
    CheckpointStore,
    encode_checkpoint,
)
from repro.storage import GzipBackend, MemoryBackend, backend_for
from repro.storage.backend import _decompress_tolerant
from repro.storage.values import value_text
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

SCHEMES = ("memory", "file", "gzip")
_dirs = itertools.count()


def _backend(scheme, root):
    return backend_for(scheme, os.path.join(str(root), f"s{next(_dirs)}"))


def _records(backend):
    with backend.reader(STREAM_NAME) as reader:
        return list(reader)


def _rewrite(backend, records):
    """Replace the checkpoint stream with ``records``, every frame re-CRCed."""
    with backend.create(STREAM_NAME, STREAM_KIND) as writer:
        for rtype, payload in records:
            writer.append(rtype, payload)


def _tear(backend, nbytes):
    """Cut ``nbytes`` off the end of the stream's record bytes: what a
    crash in the middle of the last append leaves."""
    if isinstance(backend, MemoryBackend):
        del backend.raw(STREAM_NAME)[-nbytes:]
    elif isinstance(backend, GzipBackend):
        path = backend._path(STREAM_NAME)
        with open(path, "rb") as fh:
            data = _decompress_tolerant(fh.read())
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data[:-nbytes], mtime=0))
    else:
        path = backend._path(STREAM_NAME)
        os.truncate(path, os.path.getsize(path) - nbytes)


def _chain(steps):
    """Checkpoints made the way the auditor makes them: each from its
    parent, carrying every unchanged value as the same object."""
    cps, vars, kv = [], {}, {}
    for index, (var_edits, kv_edits) in enumerate(steps):
        vars, kv = dict(vars), dict(kv)
        for target, edits in ((vars, var_edits), (kv, kv_edits)):
            for key, edit in edits.items():
                if edit is _DROP:
                    target.pop(key, None)
                else:
                    target[key] = edit(target.get(key))
        parent = cps[-1] if cps else None
        cps.append(Checkpoint.make(
            index, parent.digest if parent else GENESIS_DIGEST, vars, kv,
            inherit=parent,
        ))
    return cps


def _same(stored, live):
    """``stored`` is ``live`` read back: digest, key order (sorted), and
    every value type-strict and in its dict order (its stored text)."""
    assert stored.digest == live.digest
    assert stored.parent_digest == live.parent_digest
    for got, want in ((stored.vars, live.vars), (stored.kv, live.kv)):
        assert list(got) == sorted(want)
        assert {k: value_text(v) for k, v in got.items()} == {
            k: value_text(v) for k, v in want.items()
        }


# -- random put sequences --------------------------------------------------------

_DROP = object()

scalars = st.sampled_from([0, 1, True, False, 1.0, -2.5, None, "", "1", "é"])
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.sampled_from(["a", "b", "c", 1]), inner, max_size=3),
    ),
    max_leaves=6,
)


def _set(value):
    return lambda _old: value


def _swap(_old):
    """An equal value of another type: ``1``/``True``/``1.0`` differ."""
    if _old is True:
        return 1
    if type(_old) is int and _old == 1:
        return 1.0
    return True


def _reorder(old):
    """The same dict pairs in another insertion order (the stored text
    changes, the digest does not); anything else is replaced."""
    if isinstance(old, dict) and len(old) > 1:
        return dict(reversed(list(old.items())))
    return {"b": 1, "a": [old]}


edits = st.dictionaries(
    st.sampled_from(["k0", "k1", "k2", "k3", "k4"]),
    st.one_of(
        values.map(_set), st.just(_DROP), st.just(_swap), st.just(_reorder)
    ),
    max_size=3,
)
steps = st.lists(
    st.tuples(st.tuples(edits, edits), st.booleans()), min_size=1, max_size=7
)


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=steps)
def test_reopened_chain_is_the_live_chain(scheme, tmp_path, steps):
    cps = _chain([edit for edit, _ in steps])
    backend = _backend(scheme, tmp_path)
    store = CheckpointStore(backend=backend)
    kinds = []
    for cp, (_, new_session) in zip(cps, steps):
        if new_session:
            store.close()
        kinds.append(RT_DELTA if kinds and not new_session else RT_CHECKPOINT)
        store.put(cp)
    store.close()
    assert [rtype for rtype, _ in _records(backend)] == kinds

    reopened = CheckpointStore(backend=backend)
    reopened.verify_chain()
    assert len(reopened) == len(cps)
    for cp in cps:
        _same(reopened.get(cp.epoch), cp)


# -- damage and forgery -------------------------------------------------------------


def _three(scheme, root):
    cps = _chain([
        ({"v": _set(1)}, {"a": _set([1]), "b": _set({"y": 2, "x": 1})}),
        ({"v": _set(True)}, {"c": _set("new")}),
        ({"v": _DROP}, {"b": _reorder, "a": _DROP}),
    ])
    backend = _backend(scheme, root)
    store = CheckpointStore(backend=backend)
    for cp in cps:
        store.put(cp)
    store.close()
    return cps, backend


@pytest.mark.parametrize("scheme", SCHEMES)
def test_torn_final_delta_is_dropped_and_the_next_session_writes_whole(
    scheme, tmp_path
):
    cps, backend = _three(scheme, tmp_path)
    assert [rtype for rtype, _ in _records(backend)] == [
        RT_CHECKPOINT, RT_DELTA, RT_DELTA
    ]
    _tear(backend, 3)
    reopened = CheckpointStore(backend=backend)
    reopened.verify_chain()
    assert len(reopened) == 2 and reopened.get(2) is None
    reopened.put(cps[2])
    reopened.close()
    assert [rtype for rtype, _ in _records(backend)] == [
        RT_CHECKPOINT, RT_DELTA, RT_CHECKPOINT
    ]
    again = CheckpointStore(backend=backend)
    again.verify_chain()
    for cp in cps:
        _same(again.get(cp.epoch), cp)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("keep", [[0, 2], [1, 2], [0, 2, 1], [0, 1, 1]],
                         ids=["skipped", "opens", "reordered", "repeated"])
def test_delta_that_does_not_extend_the_record_before_it_is_malformed(
    scheme, tmp_path, keep
):
    _, backend = _three(scheme, tmp_path)
    records = _records(backend)
    _rewrite(backend, [records[i] for i in keep])
    with pytest.raises(CheckpointError):
        CheckpointStore(backend=backend)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("field", ["drop_vars", "drop_kv"])
def test_delta_dropping_a_key_its_parent_lacks_is_malformed(
    scheme, tmp_path, field
):
    _, backend = _three(scheme, tmp_path)
    records = _records(backend)
    doc = json.loads(records[1][1])
    doc[field] = ["never-there"]
    records[1] = (RT_DELTA, json.dumps(doc).encode())
    _rewrite(backend, records)
    with pytest.raises(CheckpointError):
        CheckpointStore(backend=backend)


def _durable(backend):
    return ContinuousAuditor(
        vg.APPS["wiki"](),
        checkpoints=CheckpointStore(backend=backend),
        journal=AuditJournal(backend=backend),
    )


def _run(auditor, epochs):
    try:
        return [
            (v.epoch, v.accepted, v.result.reason, v.checkpoint_digest)
            for v in auditor.run(epochs)
        ]
    finally:
        auditor.checkpoints.close()
        auditor.journal.close()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_altered_delta_refuses_resumption(scheme, tmp_path):
    """One value of a stored delta altered and the frame re-CRCed: the
    stream still loads, the chain does not verify, and a restarted audit
    reports ``checkpoint-chain-forged``."""
    epochs = vg.streams("wiki")["honest"]
    backend = _backend(scheme, tmp_path)
    assert all(accepted for _, accepted, _, _ in _run(_durable(backend), epochs))
    records = _records(backend)
    assert [rtype for rtype, _ in records][1:] == [RT_DELTA] * (len(epochs) - 1)
    doc = json.loads(records[1][1])
    entries = doc["kv"] or doc["vars"]
    assert entries, "the delta wrote nothing to alter"
    entries[0][1] = {"t": "p", "v": "forged"}
    records[1] = (RT_DELTA, json.dumps(doc).encode())
    _rewrite(backend, records)

    with pytest.raises(CheckpointChainError):
        CheckpointStore(backend=backend).verify_chain()
    verdicts = _run(_durable(backend), epochs)
    assert verdicts and all(not accepted for _, accepted, _, _ in verdicts)
    assert verdicts[0][2] == "checkpoint-chain-forged"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_stream_of_whole_records_resumes(scheme, tmp_path):
    """The stream a store that wrote every checkpoint whole left behind
    reads through the same reader: the audit resumes after it, and the
    resumed session's first put is whole, its next a delta."""
    epochs = vg.streams("wiki")["honest"]
    want = _run(_durable(MemoryBackend()), epochs)
    backend = _backend(scheme, tmp_path)
    _run(_durable(backend), epochs[:2])
    stored = CheckpointStore(backend=backend)
    _rewrite(backend, [
        (RT_CHECKPOINT, encode_checkpoint(stored.get(i)).encode())
        for i in range(2)
    ])
    resumed = _durable(backend)
    assert _run(resumed, epochs) == want[2:]
    assert resumed.skipped_resumed == 2
    assert [rtype for rtype, _ in _records(backend)] == [
        RT_CHECKPOINT, RT_CHECKPOINT, RT_CHECKPOINT
    ] + [RT_DELTA] * (len(epochs) - 3)
    reopened = CheckpointStore(backend=backend)
    reopened.verify_chain()
    assert [reopened.get(i).digest for i in range(len(epochs))] == [
        digest for *_, digest in want
    ]
