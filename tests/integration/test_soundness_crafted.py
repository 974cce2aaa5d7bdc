"""Crafted soundness scenarios from the paper.

* Figure 5: a physically impossible interleaving that passes value checks
  and is caught only by cycle detection;
* "reads from the future" (section 4.3);
* the section 4.4 cross-state contradiction (program variable vs store
  ordering);
* the value-coincidence variants of generic attacks, on workloads where
  they provably falsify the execution.
"""

import copy


from repro.advice.records import TxLogEntry, VariableLogEntry, TX_GET
from repro.core.ids import HandlerId
from repro.kem import AppSpec, FifoScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import audit


def serve(app, requests, store=None, concurrency=1):
    return run_server(
        app,
        requests,
        KarousosPolicy(),
        store=store,
        scheduler=FifoScheduler(),
        concurrency=concurrency,
    )


# -- Figure 5: impossible interleaving --------------------------------------


def const_writer_app():
    """v = read(x); write(x, 7); respond {"saw": v}."""

    def handle(ctx, req):
        v = ctx.read("x")
        ctx.write("x", 7)
        ctx.respond({"saw": v})

    def init(ic):
        ic.create_var("x", 0)
        ic.register_route("go", "handle")

    return AppSpec("constw", {"handle": handle}, init)


HID = HandlerId("handle", None, 0)


class TestFigure5ImpossibleInterleaving:
    def test_mutual_reads_rejected_by_cycle_detection(self):
        """Both requests claim to have read the *other's* write.  All value
        checks pass (both write the constant 7), so only the execution
        graph's acyclicity check can reject -- as in Figure 5."""
        app = const_writer_app()
        run = serve(app, [Request.make("r0", "go"), Request.make("r1", "go")])
        # Honest: r0 saw 0 (init), r1 saw 7.
        assert run.trace.response("r0") == {"saw": 0}

        trace = run.trace.with_response("r0", {"saw": 7})
        advice = copy.deepcopy(run.advice)
        advice.variable_logs["x"] = {
            ("r0", HID, 1): VariableLogEntry("read", prec=("r1", HID, 2)),
            ("r0", HID, 2): VariableLogEntry("write", value=7, prec=("r1", HID, 2)),
            ("r1", HID, 1): VariableLogEntry("read", prec=("r0", HID, 2)),
            ("r1", HID, 2): VariableLogEntry("write", value=7, prec=("r0", HID, 2)),
        }
        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "cyclic-execution", (result.reason, result.detail)

    def test_honest_advice_still_accepted(self):
        app = const_writer_app()
        run = serve(app, [Request.make("r0", "go"), Request.make("r1", "go")])
        assert audit(app, run.trace, run.advice).accepted


class TestReadFromFuture:
    def test_read_of_later_requests_write_rejected(self):
        """r0 allegedly read the value written by r1, but the trace shows
        r0's response was delivered before r1 arrived (section 4.3)."""
        app = const_writer_app()
        run = serve(app, [Request.make("r0", "go"), Request.make("r1", "go")])
        trace = run.trace.with_response("r0", {"saw": 7})
        advice = copy.deepcopy(run.advice)
        log = dict(advice.variable_logs.get("x", {}))
        log[("r1", HID, 2)] = VariableLogEntry("write", value=7, prec=None)
        log[("r0", HID, 1)] = VariableLogEntry("read", prec=("r1", HID, 2))
        advice.variable_logs["x"] = log
        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "cyclic-execution", (result.reason, result.detail)


# -- guaranteed variants of the coincidence-prone generic attacks ---------------


def counter_app():
    """v = read(n); write(n, v + 1); respond {"saw": v}: values always
    distinct, so dropping log entries provably changes behaviour."""

    def handle(ctx, req):
        v = ctx.read("n")
        ctx.write("n", ctx.apply(lambda x: x + 1, v))
        ctx.respond({"saw": v})

    def init(ic):
        ic.create_var("n", 0)
        ic.register_route("bump", "handle")

    return AppSpec("counter", {"handle": handle}, init)


class TestDroppedLogEntryWithDistinctValues:
    def test_dropped_read_entry_rejected(self):
        app = counter_app()
        run = serve(app, [Request.make(f"r{i}", "bump") for i in range(3)])
        assert run.trace.response("r2") == {"saw": 2}
        advice = copy.deepcopy(run.advice)
        hid = HandlerId("handle", None, 0)
        dropped = advice.variable_logs["n"].pop(("r2", hid, 1))
        assert dropped.access == "read"
        result = audit(app, run.trace, advice)
        assert not result.accepted
        # The unlogged read now feeds from the init value (0), so the
        # re-executed write (1) contradicts the logged write (3).
        assert result.reason in ("write-mismatch", "output-mismatch"), result.reason


class TestReversedWriteOrderWithDependentWrites:
    def test_rejected_when_key_has_reader_between_writers(self):
        from repro.apps import stackdump_app

        dump = "Traceback: crafted"
        requests = [
            Request.make("r0", "submit", dump=dump),
            Request.make("r1", "submit", dump=dump),
        ]
        store = KVStore(IsolationLevel.SERIALIZABLE)
        run = serve(stackdump_app(), requests, store=store, concurrency=1)
        assert run.trace.response("r1") == {"status": "ok", "new": False}
        advice = copy.deepcopy(run.advice)
        assert len(advice.write_order) == 2
        advice.write_order = list(reversed(advice.write_order))
        result = audit(stackdump_app(), run.trace, advice)
        assert not result.accepted
        assert result.reason == "isolation-violated", (result.reason, result.detail)


# -- section 4.4: cross-state contradiction ------------------------------------------


def cross_state_app():
    """Route a: GET(k) -> callback writes x, commits.  Route b: read(x),
    PUT(k), commit.  Exactly the section 4.4 example."""

    def handle_a(ctx, req):
        tid = ctx.tx_start()
        ctx.tx_get(tid, "k", "a_got")

    def a_got(ctx, payload):
        ctx.write("x", 1)
        ctx.tx_commit(payload["tid"])
        ctx.respond({"ok": True})

    def handle_b(ctx, req):
        v = ctx.read("x")
        tid = ctx.tx_start()
        status = ctx.tx_put(tid, "k", 1)
        if not ctx.branch(ctx.apply(lambda s: s == "ok", status)):
            ctx.respond({"v": v, "status": "retry"})
            return
        ctx.tx_commit(tid)
        ctx.respond({"v": v})

    def init(ic):
        ic.create_var("x", 0)
        ic.register_route("a", "handle_a")
        ic.register_route("b", "handle_b")

    return AppSpec(
        "crossstate",
        {"handle_a": handle_a, "a_got": a_got, "handle_b": handle_b},
        init,
    )


class TestCrossStateContradiction:
    def test_mutually_dependent_orderings_rejected(self):
        """The server claims r_b's read(x) observed r_a's write AND r_a's
        GET(k) observed r_b's PUT: each claim alone is plausible; together
        they are impossible (section 4.4's example)."""
        app = cross_state_app()
        # READ COMMITTED: no read locks, so rb's PUT lands while ra's
        # transaction is still open (the section 4.4 example needs both
        # transactions to commit).
        store = KVStore(IsolationLevel.READ_COMMITTED)
        # Concurrency 2, FIFO: both request handlers run before a_got, so
        # there are no time-precedence edges between the requests and only
        # the cross-state cycle can reject.
        run = serve(
            app,
            [Request.make("ra", "a"), Request.make("rb", "b")],
            store=store,
            concurrency=2,
        )
        # Honest: rb read x before ra's callback wrote it.
        assert run.trace.response("rb") == {"v": 0}

        a_got_hid = HandlerId("a_got", HandlerId("handle_a", None, 0), 2)
        b_hid = HandlerId("handle_b", None, 0)
        advice = copy.deepcopy(run.advice)

        # Claim 1: rb's read(x) observed ra's write(x) (variable log).
        advice.variable_logs["x"] = {
            ("ra", a_got_hid, 1): VariableLogEntry("write", value=1, prec=None),
            ("rb", b_hid, 1): VariableLogEntry("read", prec=("ra", a_got_hid, 1)),
        }
        # Claim 2: ra's GET(k) observed rb's PUT(k) (transaction log).
        (ra_key,) = [k for k in advice.tx_logs if k[0] == "ra"]
        (rb_key,) = [k for k in advice.tx_logs if k[0] == "rb"]
        rb_put_idx = next(
            i for i, e in enumerate(advice.tx_logs[rb_key]) if e.optype == "PUT"
        )
        ra_log = advice.tx_logs[ra_key]
        get_idx = next(i for i, e in enumerate(ra_log) if e.optype == TX_GET)
        old = ra_log[get_idx]
        ra_log[get_idx] = TxLogEntry(
            old.hid, old.opnum, old.optype, old.key,
            (rb_key[0], rb_key[1], rb_put_idx),
        )
        # Make the trace consistent with both claims.
        trace = run.trace.with_response("rb", {"v": 1})

        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "cyclic-execution", (result.reason, result.detail)

    def test_each_claim_alone_would_be_consistent(self):
        """Sanity for the scenario: the honest advice is accepted."""
        app = cross_state_app()
        store = KVStore(IsolationLevel.READ_COMMITTED)
        run = serve(
            app,
            [Request.make("ra", "a"), Request.make("rb", "b")],
            store=store,
            concurrency=2,
        )
        assert audit(app, run.trace, run.advice).accepted


# -- isolation-level lies (misbehaving database) ----------------------------------------


def dirty_rw_app():
    """Route wa: PUT then abort (in a later handler).  Route rd: GET then
    commit.  With an actually-READ-UNCOMMITTED store, rd dirty-reads wa's
    uncommitted write; claiming READ COMMITTED must be rejected (G1a)."""

    def handle_wa(ctx, req):
        tid = ctx.tx_start()
        ctx.tx_put(tid, "k", 99)
        ctx.tx_get(tid, "k", "wa_done")

    def wa_done(ctx, payload):
        ctx.tx_abort(payload["tid"])
        ctx.respond({"ok": True})

    def handle_rd(ctx, req):
        tid = ctx.tx_start()
        ctx.tx_get(tid, "k", "rd_done")

    def rd_done(ctx, payload):
        ctx.tx_commit(payload["tid"])
        ctx.respond({"v": payload["value"]})

    def init(ic):
        ic.register_route("wa", "handle_wa")
        ic.register_route("rd", "handle_rd")

    return AppSpec(
        "dirtyrw",
        {
            "handle_wa": handle_wa,
            "wa_done": wa_done,
            "handle_rd": handle_rd,
            "rd_done": rd_done,
        },
        init,
    )


class TestIsolationLevelLies:
    def _run(self, claimed, actual):
        store = KVStore(claimed, actual_level=actual)
        app = dirty_rw_app()
        run = serve(
            app,
            [Request.make("r0", "wa"), Request.make("r1", "rd")],
            store=store,
            concurrency=2,
        )
        return app, run

    def test_aborted_read_rejected_under_read_committed(self):
        app, run = self._run(
            IsolationLevel.READ_COMMITTED, IsolationLevel.READ_UNCOMMITTED
        )
        # The dirty read really happened:
        assert run.trace.response("r1") == {"v": 99}
        result = audit(app, run.trace, run.advice)
        assert not result.accepted
        assert result.reason == "dirty-read", (result.reason, result.detail)

    def test_same_history_accepted_under_read_uncommitted(self):
        app, run = self._run(
            IsolationLevel.READ_UNCOMMITTED, IsolationLevel.READ_UNCOMMITTED
        )
        assert run.trace.response("r1") == {"v": 99}
        result = audit(app, run.trace, run.advice)
        assert result.accepted, (result.reason, result.detail)


def write_skew_app():
    """Two routes forming classic write skew: sa reads key a then writes b;
    sb reads b then writes a."""

    def _mk(read_key, write_key, get_cb):
        def handler(ctx, req):
            tid = ctx.tx_start()
            ctx.tx_get(tid, read_key, get_cb)

        return handler

    def _mk_done(write_key):
        def done(ctx, payload):
            tid = payload["tid"]
            status = ctx.tx_put(tid, write_key, 1)
            ctx.branch(ctx.apply(lambda s: s == "ok", status))
            ctx.tx_commit(tid)
            ctx.respond({"ok": True})

        return done

    return AppSpec(
        "skew",
        {
            "handle_sa": _mk("a", "b", "sa_done"),
            "sa_done": _mk_done("b"),
            "handle_sb": _mk("b", "a", "sb_done"),
            "sb_done": _mk_done("a"),
        },
        lambda ic: (ic.register_route("sa", "handle_sa"), ic.register_route("sb", "handle_sb")),
    )


class TestWriteSkew:
    def test_write_skew_rejected_under_claimed_serializability(self):
        store = KVStore(
            IsolationLevel.SERIALIZABLE, actual_level=IsolationLevel.READ_COMMITTED
        )
        app = write_skew_app()
        run = serve(
            app,
            [Request.make("r0", "sa"), Request.make("r1", "sb")],
            store=store,
            concurrency=2,
        )
        result = audit(app, run.trace, run.advice)
        assert not result.accepted
        assert result.reason == "isolation-violated", (result.reason, result.detail)

    def test_write_skew_accepted_under_read_committed_claim(self):
        store = KVStore(
            IsolationLevel.READ_COMMITTED, actual_level=IsolationLevel.READ_COMMITTED
        )
        app = write_skew_app()
        run = serve(
            app,
            [Request.make("r0", "sa"), Request.make("r1", "sb")],
            store=store,
            concurrency=2,
        )
        result = audit(app, run.trace, run.advice)
        assert result.accepted, (result.reason, result.detail)


class TestUnplannableAdvice:
    def test_tags_that_cannot_be_grouped_reject_like_the_reference(self):
        """Plan compilation reads the grouping tags before preprocess has
        vetted them; tags that cannot even be sorted into groups must
        come out as the same rejection the straight-line reference
        gives, never as an exception."""
        from repro.apps import motd_app
        from repro.kem.scheduler import RandomScheduler
        from repro.verifier import Auditor
        from repro.verifier.oooaudit import ooo_audit
        from repro.workload import motd_workload

        run = run_server(
            motd_app(),
            motd_workload(6, mix="mixed", seed=3),
            KarousosPolicy(),
            scheduler=RandomScheduler(1),
            concurrency=2,
        )
        advice = copy.deepcopy(run.advice)
        victim = sorted(advice.tags)[0]
        advice.tags[victim] = None  # unsortable next to the str tags
        result = Auditor(motd_app(), run.trace, advice).run()
        reference = ooo_audit(motd_app(), run.trace, advice)
        assert not result.accepted
        assert (result.reason, result.stage) == (reference.reason, reference.stage)
        assert result.reason == "malformed-advice"
