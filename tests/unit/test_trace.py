"""Unit tests for traces and the trusted collector."""

import pytest

from repro.trace import Collector, REQ, RESP, Request, Trace, TraceEvent


def req(rid, route="get", **payload):
    return Request.make(rid, route, **payload)


class TestRequest:
    def test_payload_roundtrip(self):
        r = req("r1", "set", msg="hi", day="all")
        assert r.inputs == {"msg": "hi", "day": "all"}

    def test_hashable_and_equal(self):
        assert req("r1", "set", a=1) == req("r1", "set", a=1)
        assert len({req("r1", "set", a=1), req("r1", "set", a=1)}) == 1


class TestCollector:
    def test_records_in_order(self):
        c = Collector()
        c.on_request(req("r1"))
        c.on_request(req("r2"))
        c.on_response("r1", {"ok": True})
        c.on_response("r2", {"ok": False})
        kinds = [(e.kind, e.rid) for e in c.trace()]
        assert kinds == [(REQ, "r1"), (REQ, "r2"), (RESP, "r1"), (RESP, "r2")]

    def test_duplicate_request_rejected(self):
        c = Collector()
        c.on_request(req("r1"))
        with pytest.raises(ValueError):
            c.on_request(req("r1"))

    def test_response_without_request_rejected(self):
        with pytest.raises(ValueError):
            Collector().on_response("ghost", {})

    def test_double_response_rejected(self):
        c = Collector()
        c.on_request(req("r1"))
        c.on_response("r1", {})
        with pytest.raises(ValueError):
            c.on_response("r1", {})

    def test_in_flight_tracking(self):
        c = Collector()
        assert c.in_flight == 0
        c.on_request(req("r1"))
        c.on_request(req("r2"))
        assert c.in_flight == 2
        c.on_response("r2", {})
        assert c.in_flight == 1


class TestTrace:
    def make_balanced(self):
        t = Trace()
        t.append(TraceEvent(REQ, "r1", req("r1")))
        t.append(TraceEvent(RESP, "r1", {"v": 1}))
        t.append(TraceEvent(REQ, "r2", req("r2")))
        t.append(TraceEvent(RESP, "r2", {"v": 2}))
        return t

    def test_balanced(self):
        assert self.make_balanced().is_balanced()

    def test_unanswered_request_unbalanced(self):
        t = Trace()
        t.append(TraceEvent(REQ, "r1", req("r1")))
        assert not t.is_balanced()

    def test_response_before_request_unbalanced(self):
        t = Trace()
        t.append(TraceEvent(RESP, "r1", {}))
        t.append(TraceEvent(REQ, "r1", req("r1")))
        assert not t.is_balanced()

    def test_lookups(self):
        t = self.make_balanced()
        assert t.request_ids() == ["r1", "r2"]
        assert t.response("r1") == {"v": 1}
        assert t.request("r2").rid == "r2"
        assert t.responses() == {"r1": {"v": 1}, "r2": {"v": 2}}

    def test_with_response_substitutes(self):
        tampered = self.make_balanced().with_response("r1", {"v": 666})
        assert tampered.response("r1") == {"v": 666}
        assert tampered.response("r2") == {"v": 2}
        # Original untouched.
        assert self.make_balanced().response("r1") == {"v": 1}

    def test_missing_lookup_raises(self):
        with pytest.raises(KeyError):
            self.make_balanced().request("nope")


class TestFrozenSnapshots:
    def test_collector_trace_is_immutable_snapshot(self):
        c = Collector()
        c.on_request(req("r1"))
        c.on_response("r1", {"ok": True})
        snapshot = c.trace()
        assert snapshot.frozen
        with pytest.raises(TypeError):
            snapshot.append(TraceEvent(REQ, "r2", req("r2")))
        # Later collection must not grow a snapshot already handed out.
        c.on_request(req("r2"))
        c.on_response("r2", {"ok": True})
        assert len(snapshot) == 2
        assert len(c.trace()) == 4

    def test_live_view_tracks_collection(self):
        c = Collector()
        live = c.trace(live=True)
        c.on_request(req("r1"))
        assert len(live) == 1
        assert not live.frozen

    def test_freeze_is_idempotent(self):
        t = Trace()
        t.append(TraceEvent(REQ, "r1", req("r1")))
        frozen = t.freeze()
        assert frozen.freeze() is frozen
        assert frozen == t  # equality ignores frozenness

    def test_slice_returns_frozen_subtrace(self):
        t = Trace()
        t.append(TraceEvent(REQ, "r1", req("r1")))
        t.append(TraceEvent(RESP, "r1", {"v": 1}))
        sub = t.slice(0, 2)
        assert sub.frozen and len(sub) == 2
        with pytest.raises(TypeError):
            sub.append(TraceEvent(REQ, "r2", req("r2")))

    def test_frozen_lookups_answer_like_the_scan(self):
        """A frozen trace indexes its events on the first lookup; a live
        one keeps scanning because it still grows."""
        live = Trace()
        live.append(TraceEvent(REQ, "r1", req("r1", "first")))
        live.append(TraceEvent(RESP, "r1", {"v": 1}))
        assert live.response("r1") == {"v": 1}
        # Duplicates (a malformed trace the auditor will reject): the
        # first event of a kind wins, indexed or scanned.
        live.append(TraceEvent(REQ, "r1", req("r1", "second")))
        live.append(TraceEvent(RESP, "r1", {"v": 2}))
        live.append(TraceEvent(REQ, "r2", req("r2")))
        frozen = live.freeze()
        for trace in (live, frozen, frozen):
            assert trace.request("r1").route == "first"
            assert trace.response("r1") == {"v": 1}
            assert trace.request("r2").rid == "r2"
            with pytest.raises(KeyError, match="r2"):
                trace.response("r2")
            with pytest.raises(KeyError, match="nope"):
                trace.request("nope")
        assert frozen == live.freeze()  # the index is not part of equality
