"""Unit tests for the trace wire format."""

import pytest

from repro.errors import AdviceFormatError
from repro.kem.scheduler import RandomScheduler
from repro.apps import stackdump_app
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.storage import MemoryBackend, pack_json
from repro.trace.codec import (
    RT_EVENT,
    RT_META,
    encode_trace_event,
    iter_trace_records,
    read_trace,
    trace_meta_record,
    write_trace,
)
from repro.trace.trace import REQ, RESP, Request, Trace, TraceEvent
from repro.verifier import audit
from repro.workload import stacks_workload


def sample_trace():
    t = Trace()
    t.append(TraceEvent(REQ, "r1", Request.make("r1", "get", day="mon", n=3)))
    t.append(TraceEvent(RESP, "r1", {"status": "ok", "items": (1, 2)}))
    return t


def _roundtrip(trace):
    backend = MemoryBackend()
    write_trace(backend, "trace", trace)
    return read_trace(backend, "trace")


def _decode(frames):
    """Decode hand-built ``(rtype, payload)`` frames as a trace stream."""
    backend = MemoryBackend()
    with backend.create("trace", "trace") as writer:
        for rtype, payload in frames:
            writer.append(rtype, payload)
    with backend.reader("trace") as reader:
        return list(iter_trace_records(reader))


def _event_docs():
    return [encode_trace_event(e) for e in sample_trace()]


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
            _decode([(RT_META, trace_meta_record()), (RT_EVENT, b"nope{")])

    def test_wrong_version(self):
        with pytest.raises(AdviceFormatError):
            _decode([(RT_META, pack_json({"version": 99}))])

    def test_unknown_event_kind(self):
        doc = _event_docs()[0]
        doc["kind"] = "PING"
        with pytest.raises(AdviceFormatError):
            _decode([(RT_META, trace_meta_record()), (RT_EVENT, pack_json(doc))])

    def test_non_mapping_payload(self):
        doc = _event_docs()[0]
        doc["payload"] = {"t": "p", "v": 3}
        with pytest.raises(AdviceFormatError):
            _decode([(RT_META, trace_meta_record()), (RT_EVENT, pack_json(doc))])
