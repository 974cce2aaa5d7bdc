"""Unit tests for the trace wire format, as the epoch streams carry it."""

import json

import pytest

from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.apps import stackdump_app
from repro.continuous import Epoch
from repro.continuous.codec import (
    EPOCH_FORMAT_VERSION,
    RT_EPOCH_META,
    read_epoch_stream,
    write_epoch_stored,
)
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.storage import MemoryBackend, pack_json
from repro.trace.codec import RT_EVENT, trace_event_record
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.verifier import audit
from repro.workload import stacks_workload


def sample_trace():
    t = Trace()
    t.append(TraceEvent(REQ, "r1", Request.make("r1", "get", day="mon", n=3)))
    t.append(TraceEvent(RESP, "r1", {"status": "ok", "items": (1, 2)}))
    return t


def _read(backend):
    with backend.reader("epoch-0") as reader:
        return read_epoch_stream(reader, "epoch-0")


def _roundtrip(trace):
    backend = MemoryBackend()
    write_epoch_stored(backend, Epoch(0, trace, None))
    return _read(backend).trace


def _meta(version=EPOCH_FORMAT_VERSION):
    return RT_EPOCH_META, pack_json(
        {"version": version, "index": 0, "binlog_range": [0, 0], "has_advice": False}
    )


def _decode(frames):
    """Decode hand-built ``(rtype, payload)`` frames as an epoch stream."""
    backend = MemoryBackend()
    with backend.create("epoch-0", "epoch") as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)
    return list(_read(backend).trace)


def _event_docs():
    return [json.loads(trace_event_record(e)) for e in sample_trace()]


class TestRoundtrip:
    def test_events_preserved(self):
        decoded = _roundtrip(sample_trace())
        assert [(e.kind, e.rid) for e in decoded] == [(REQ, "r1"), (RESP, "r1")]
        assert decoded.request("r1").inputs == {"day": "mon", "n": 3}
        assert decoded.response("r1") == {"status": "ok", "items": (1, 2)}

    def test_decoded_trace_audits(self):
        run = run_server(
            stackdump_app(),
            stacks_workload(12, mix="mixed", seed=1),
            KarousosPolicy(),
            store=KVStore(IsolationLevel.SERIALIZABLE),
            scheduler=RandomScheduler(1),
            concurrency=4,
        )
        decoded = _roundtrip(run.trace)
        assert audit(stackdump_app(), decoded, run.advice).accepted

    def test_empty_trace(self):
        assert len(_roundtrip(Trace())) == 0


class TestStrictness:
    def test_bad_json(self):
        with pytest.raises(AdviceFormatError):
            _decode([_meta(), (RT_EVENT, b"nope{")])

    def test_wrong_version(self):
        """The trace is versioned by the epoch stream that carries it."""
        with pytest.raises(AdviceFormatError):
            _decode([_meta(version=99)])

    def test_unknown_event_kind(self):
        doc = _event_docs()[0]
        doc["kind"] = "PING"
        with pytest.raises(AdviceFormatError):
            _decode([_meta(), (RT_EVENT, pack_json(doc))])

    def test_non_mapping_payload(self):
        doc = _event_docs()[0]
        doc["payload"] = {"t": "p", "v": 3}
        with pytest.raises(AdviceFormatError):
            _decode([_meta(), (RT_EVENT, pack_json(doc))])
