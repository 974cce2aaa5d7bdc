"""The verifier compares values type-strictly (DESIGN.md §4).

Python's ``==`` makes ``1``, ``True`` and ``1.0`` equal, yet an
application tells them apart (``repr(True)`` is ``"True"``).  Each case
below is a server lie that ``==`` lets through: a group whose slots are
``1`` and ``True`` collapsing to one value, a logged variable write, a
transaction PUT, an initial value and a response that swap ``1`` for
``True``.  Branches are the other direction: a grouped ``ctx.branch``
decides on the truth of each slot, as the server's tags do.

The response cases also run with the verdict cache on: a group is cached
only if its outputs are the same values as the claims, so a lie cannot
be stored by one audit and accepted from the cache by the next, and a
dict's key order, which the cache's digest ignores, is not part of its
value either.
"""

import copy

from repro.advice.records import TX_PUT, TxLogEntry, VariableLogEntry
from repro.core.ids import HandlerId
from repro.core.multivalue import Multivalue, same_value
from repro.kem import AppSpec, FifoScheduler
from repro.obs import MetricsRegistry
from repro.server import KarousosPolicy, run_server
from repro.server.variables import INIT_REF
from repro.store import IsolationLevel, KVStore
from repro.trace.trace import Request
from repro.verifier import audit
from repro.verifier.audit import Auditor
from repro.verifier.dedup.cache import VerdictCache
from repro.verifier.dedup.executor import Deduplicator


def serve(app, requests, store=None, concurrency=1):
    return run_server(
        app,
        requests,
        KarousosPolicy(),
        store=store,
        scheduler=FifoScheduler(),
        concurrency=concurrency,
    )


def echo_app():
    """Responds ``repr`` of the request's ``x``."""

    def handle(ctx, req):
        ctx.respond(ctx.apply(repr, req["x"]))

    def init(ic):
        ic.register_route("echo", "handle")

    return AppSpec("echo", {"handle": handle}, init)


def var_app():
    """``set`` writes 1 to ``x``; ``get`` responds ``repr`` of ``x``."""

    def handle_set(ctx, req):
        ctx.write("x", 1)
        ctx.respond("ok")

    def handle_get(ctx, req):
        ctx.respond(ctx.apply(repr, ctx.read("x")))

    def init(ic):
        ic.create_var("x", 1)
        ic.register_route("set", "handle_set")
        ic.register_route("get", "handle_get")

    return AppSpec("strictvar", {"handle_set": handle_set, "handle_get": handle_get}, init)


def kv_app():
    """``put`` stores 1 under ``k``; ``get`` responds ``repr`` of it."""

    def handle_put(ctx, req):
        tid = ctx.tx_start()
        ctx.tx_put(tid, "k", 1)
        ctx.tx_commit(tid)
        ctx.respond("ok")

    def handle_get(ctx, req):
        tid = ctx.tx_start()
        ctx.tx_get(tid, "k", "got")

    def got(ctx, payload):
        ctx.tx_commit(payload["tid"])
        ctx.respond(ctx.apply(repr, payload["value"]))

    def init(ic):
        ic.register_route("put", "handle_put")
        ic.register_route("get", "handle_get")

    return AppSpec(
        "strictkv",
        {"handle_put": handle_put, "handle_get": handle_get, "got": got},
        init,
    )


def branch_app():
    """Answers whether ``x`` is truthy, through ``ctx.branch``."""

    def handle(ctx, req):
        if ctx.branch(req["x"]):
            ctx.respond("yes")
        else:
            ctx.respond("no")

    def init(ic):
        ic.register_route("go", "handle")

    return AppSpec("strictbranch", {"handle": handle}, init)


def test_same_value_is_type_strict():
    assert same_value(1, 1) and same_value({"a": (1, [2.5])}, {"a": (1, [2.5])})
    assert not same_value(1, True)
    assert not same_value(1, 1.0)
    assert not same_value((1, 2), [1, 2])
    assert not same_value({"n": 1}, {"n": True})
    assert not same_value(0.0, -0.0)
    assert same_value({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not same_value({"a": 1, "b": 2}, {"b": 2, "a": True})
    assert not same_value({1: "x", "b": 2}, {"b": 2, True: "x"})
    assert not same_value({"a": 1}, {"b": 1})
    assert not Multivalue(("r0", "r1"), [1, True]).is_collapsed


class TestGroupCollapse:
    """(a) A group with ``x=1`` and ``x=True``: the two slots must not
    collapse into one value."""

    def run(self):
        return serve(
            echo_app(),
            [Request.make("r0", "echo", x=1), Request.make("r1", "echo", x=True)],
        )

    def test_honest_run_accepted(self):
        run = self.run()
        assert run.advice.tags["r0"] == run.advice.tags["r1"]
        assert run.trace.response("r1") == "True"
        result = audit(echo_app(), run.trace, run.advice)
        assert result.accepted, (result.reason, result.detail)

    def test_response_of_the_other_slot_rejected(self):
        run = self.run()
        trace = run.trace.with_response("r1", "1")
        result = audit(echo_app(), trace, run.advice)
        assert not result.accepted
        assert result.reason == "output-mismatch", (result.reason, result.detail)


class TestLoggedWrite:
    """(b) A logged write of ``True`` where re-execution computed ``1``."""

    def test_forged_write_value_rejected(self):
        app = var_app()
        run = serve(app, [Request.make("r0", "set"), Request.make("r1", "get")])
        log = run.advice.variable_logs["x"]
        at = ("r0", HandlerId("handle_set", None, 0), 1)
        assert log[at].access == "write" and log[at].value == 1
        advice = copy.deepcopy(run.advice)
        old = advice.variable_logs["x"][at]
        advice.variable_logs["x"][at] = VariableLogEntry(
            "write", value=True, prec=old.prec
        )
        trace = run.trace.with_response("r1", "True")
        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "write-mismatch", (result.reason, result.detail)


class TestInitialValue:
    """A backfilled initial-value entry of ``True`` for a program's ``1``."""

    def test_forged_initial_value_rejected(self):
        app = var_app()
        run = serve(app, [Request.make("r0", "get")])
        advice = copy.deepcopy(run.advice)
        reader = ("r0", HandlerId("handle_get", None, 0), 1)
        advice.variable_logs["x"] = {
            INIT_REF: VariableLogEntry("write", value=True),
            reader: VariableLogEntry("read", prec=INIT_REF),
        }
        trace = run.trace.with_response("r0", "True")
        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "forged-initial-value", (result.reason, result.detail)


class TestTransactionPut:
    """(c) A PUT logged as ``True`` where re-execution put ``1``."""

    def test_forged_put_value_rejected(self):
        app = kv_app()
        run = serve(
            app,
            [Request.make("r0", "put"), Request.make("r1", "get")],
            store=KVStore(IsolationLevel.SERIALIZABLE),
        )
        assert run.trace.response("r1") == "1"
        advice = copy.deepcopy(run.advice)
        (key,) = [k for k in advice.tx_logs if k[0] == "r0"]
        log = advice.tx_logs[key]
        i = next(i for i, e in enumerate(log) if e.optype == TX_PUT)
        old = log[i]
        log[i] = TxLogEntry(old.hid, old.opnum, old.optype, old.key, True)
        trace = run.trace.with_response("r1", "True")
        result = audit(app, trace, advice)
        assert not result.accepted
        assert result.reason == "state-op-mismatch", (result.reason, result.detail)


def respond_app(payload):
    def handle(ctx, req):
        ctx.respond(payload)

    def init(ic):
        ic.register_route("go", "handle")

    return AppSpec("strictresp", {"handle": handle}, init)


class TestResponse:
    """(d) A response claimed as ``{"n": True}`` for a re-executed
    ``{"n": 1}``."""

    def test_forged_response_rejected(self):
        app = respond_app({"n": 1})
        run = serve(app, [Request.make("r0", "go")])
        trace = run.trace.with_response("r0", {"n": True})
        result = audit(app, trace, run.advice)
        assert not result.accepted
        assert result.reason == "output-mismatch", (result.reason, result.detail)

    def test_forged_response_never_cached(self):
        app = respond_app({"n": 1})
        run = serve(app, [Request.make("r0", "go")])
        trace = run.trace.with_response("r0", {"n": True})
        dedup = Deduplicator(VerdictCache())
        for _ in range(2):
            result = Auditor(app, trace, run.advice, dedup=dedup).run()
            assert not result.accepted
            assert result.reason == "output-mismatch", (result.reason, result.detail)
            assert len(dedup.cache) == 0

    def test_reordered_dict_response_same_verdict_cached_or_not(self):
        app = respond_app({"a": 1, "b": 2})
        run = serve(app, [Request.make("r0", "go")])
        reordered = run.trace.with_response("r0", {"b": 2, "a": 1})
        assert audit(app, reordered, run.advice).accepted
        dedup = Deduplicator(VerdictCache())
        for trace, hits in ((run.trace, 0), (reordered, 1), (reordered, 1)):
            metrics = MetricsRegistry()
            result = Auditor(
                app, trace, run.advice, dedup=dedup, metrics=metrics
            ).run()
            assert result.accepted, (result.reason, result.detail)
            counters = metrics.snapshot()["counters"]
            assert counters.get("reexec.dedup_groups", 0) == hits


class TestBranch:
    """A grouped ``ctx.branch`` decides on each slot's truth."""

    def test_truthy_slots_that_differ_take_one_branch(self):
        run = serve(
            branch_app(),
            [Request.make("r0", "go", x="a"), Request.make("r1", "go", x="b")],
        )
        assert run.advice.tags["r0"] == run.advice.tags["r1"]
        result = audit(branch_app(), run.trace, run.advice)
        assert result.accepted, (result.reason, result.detail)

    def test_divergent_branch_still_rejected(self):
        run = serve(
            branch_app(),
            [Request.make("r0", "go", x="a"), Request.make("r1", "go", x="")],
        )
        advice = copy.deepcopy(run.advice)
        advice.tags["r1"] = advice.tags["r0"]
        result = audit(branch_app(), run.trace, advice)
        assert not result.accepted
        assert result.reason == "divergence", (result.reason, result.detail)
        assert "multivalue diverges across group: ['a', '']" in result.detail
