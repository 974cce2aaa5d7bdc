"""Robustness fuzzing for the wire formats.

The verifier consumes advice from an adversary: the decoder must never
crash with anything other than a clean AdviceFormatError, no matter how
a CRC-valid frame's payload is corrupted.  Trace events and advice
sections are stored only inside epoch streams, so every hostile frame
is decoded through :func:`~repro.continuous.codec.read_epoch_stream`.  (A crash inside the audit
would still be caught and rejected, but the codec contract is stricter:
corrupt bytes are a *format* error, not an internal failure.)
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.advice.codec import ADVICE_RECORD_TYPES, iter_advice_frames
from repro.advice.records import Advice
from repro.apps import stackdump_app
from repro.continuous.codec import (
    EPOCH_FORMAT_VERSION,
    RT_EPOCH_META,
    read_epoch_stream,
)
from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.storage import MemoryBackend, pack_json
from repro.trace.codec import RT_EVENT, trace_event_record
from repro.verifier import audit
from repro.workload import stacks_workload


@pytest.fixture(scope="module")
def honest():
    return run_server(
        stackdump_app(),
        stacks_workload(12, mix="mixed", seed=7),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SNAPSHOT),
        scheduler=RandomScheduler(7),
        concurrency=4,
    )


def _mutate_json(doc, rng):
    """Randomly corrupt one node of a parsed JSON document."""
    def walk(node, path):
        sites = [(node, path)]
        if isinstance(node, dict):
            for k, v in node.items():
                sites.extend(walk(v, path + [k]))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                sites.extend(walk(v, path + [i]))
        return sites

    sites = walk(doc, [])
    target, path = sites[rng.randrange(len(sites))]
    mutation = rng.choice(["null", "string", "number", "drop", "list"])
    if not path:
        return {"corrupted": True}
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if mutation == "drop" and isinstance(parent, dict):
        del parent[key]
    elif mutation == "null":
        parent[key] = None
    elif mutation == "string":
        parent[key] = "garbage"
    elif mutation == "number":
        parent[key] = 424242
    else:
        parent[key] = ["garbage"]
    return doc


def _mutate_frames(frames, rng):
    """Corrupt one frame of a ``(rtype, payload)`` sequence: its JSON
    document (most of the time), or the sequence itself -- a frame
    dropped, repeated, or retyped."""
    at = rng.randrange(len(frames))
    rtype, payload = frames[at]
    shape = rng.choice(["doc", "doc", "doc", "drop", "repeat", "retype"])
    if shape == "doc":
        doc = _mutate_json(json.loads(payload), rng)
        frames[at] = (rtype, json.dumps(doc).encode())
    elif shape == "drop":
        del frames[at]
    elif shape == "repeat":
        frames.insert(at, frames[at])
    else:
        frames[at] = (rng.randrange(256), payload)
    return frames


def _epoch_meta(has_advice):
    return RT_EPOCH_META, pack_json({
        "version": EPOCH_FORMAT_VERSION, "index": 0, "binlog_range": [0, 0],
        "has_advice": has_advice,
    })


def _decode_epoch(frames):
    backend = MemoryBackend()
    with backend.create("epoch-0", "epoch") as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)
    with backend.reader("epoch-0") as reader:
        return read_epoch_stream(reader, "epoch-0")


def _decode_advice(frames):
    """Advice sections, decoded as the advice of an epoch stream."""
    return _decode_epoch([_epoch_meta(True), *frames]).advice


def _decode_trace(frames):
    """Epoch frames -- the meta record first -- decoded to their trace."""
    return list(_decode_epoch(frames).trace)


def _trace_frames(trace):
    frames = [_epoch_meta(False)]
    frames += [
        (RT_EVENT, trace_event_record(e)) for e in trace
    ]
    return frames


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_corrupted_advice_never_crashes_decoder(honest, seed):
    rng = random.Random(seed)
    frames = _mutate_frames(list(iter_advice_frames(honest.advice)), rng)
    try:
        decoded = _decode_advice(frames)
    except AdviceFormatError:
        return  # clean rejection at the format boundary
    # Decoding succeeded: the audit must still terminate with a verdict
    # (accept iff the mutation was semantically inert).
    result = audit(stackdump_app(), honest.trace, decoded)
    assert isinstance(result.accepted, bool)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_corrupted_trace_never_crashes_decoder(honest, seed):
    rng = random.Random(seed)
    frames = _mutate_frames(_trace_frames(honest.trace), rng)
    try:
        _decode_trace(frames)
    except AdviceFormatError:
        pass


@settings(max_examples=40, deadline=None)
@given(junk=st.text(max_size=60), rtype=st.sampled_from(ADVICE_RECORD_TYPES))
def test_arbitrary_text_rejected_cleanly(junk, rtype):
    payload = junk.encode()
    meta = next(iter(iter_advice_frames(Advice())))
    for frames in ([(rtype, payload)], [meta, (rtype, payload)]):
        try:
            _decode_advice(frames)
        except AdviceFormatError:
            pass
    for frames in (
        [(RT_EPOCH_META, payload)],
        [_epoch_meta(False), (RT_EVENT, payload)],
    ):
        try:
            _decode_trace(frames)
        except AdviceFormatError:
            pass
