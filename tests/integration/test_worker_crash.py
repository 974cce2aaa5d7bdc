"""Worker-crash robustness of the audit engine's process backend.

A worker dying or raising is an *infrastructure* failure, not evidence
about the advice: the engine must never hang, never leak worker
processes, and must surface a clean :class:`AuditResult` -- either the
golden verdict (after deterministic in-process recovery of the lost
groups) or, when the failure is in the audit machinery itself, a clean
``audit-crash`` rejection.
"""

import dataclasses
import importlib
import multiprocessing
import time

import pytest

from repro.apps import motd_app, wiki_app
from repro.core.work import scaled_work
from repro.obs import MetricsRegistry
from repro.verifier import Auditor, audit
from repro.verifier.parallel import CRASH_ENV
from tests import verdict_goldens as vg

pytestmark = pytest.mark.tier1

# ``repro.verifier.audit`` the attribute is the audit() function.
audit_mod = importlib.import_module("repro.verifier.audit")

RUN = "motd-s21"


@pytest.fixture(scope="module")
def served():
    return vg.served(RUN)


def _assert_no_orphans(deadline=5.0):
    __tracebackhide__ = True
    end = time.monotonic() + deadline
    while multiprocessing.active_children() and time.monotonic() < end:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "worker processes leaked"


def test_hard_worker_crash_recovers_to_sequential_verdict(served, monkeypatch):
    """A worker process that dies mid-group (os._exit, standing in for a
    segfault or OOM-kill) must not change the verdict: the affected
    groups are re-executed in-process and the result is still the golden
    fingerprint, byte for byte."""
    victim = sorted(served.advice.groups())[0]
    monkeypatch.setenv(CRASH_ENV, victim)

    auditor = Auditor(
        motd_app(), served.trace, served.advice,
        parallelism=2, scheduler="process",
    )
    started = time.monotonic()
    result = auditor.run()
    elapsed = time.monotonic() - started

    assert elapsed < 30, "crashed worker must not stall the audit"
    assert victim in auditor.fallback_tags
    assert vg.fingerprint(result) == vg.expected(RUN, "grouped", "honest")
    _assert_no_orphans()


def test_exception_in_pipeline_machinery_is_clean_reject(served, monkeypatch):
    """If the audit machinery itself raises while recovering a dead
    worker's group (bug, resource exhaustion), the engine reports a clean
    audit-crash rejection rather than hanging or escaping with a
    traceback."""
    real = audit_mod.execute_group
    victim = sorted(served.advice.groups())[0]
    monkeypatch.setenv(CRASH_ENV, victim)

    def sabotaged(state, tag, rids):
        if tag == victim:
            raise RuntimeError("worker machinery failure (injected)")
        return real(state, tag, rids)

    monkeypatch.setattr(audit_mod, "execute_group", sabotaged)
    result = Auditor(
        motd_app(), served.trace, served.advice,
        parallelism=2, scheduler="process",
    ).run()
    assert not result.accepted
    assert result.reason == "audit-crash"
    assert "worker machinery failure" in result.detail
    _assert_no_orphans()


def _exploding_get(ctx, req):  # module-level: crosses the process boundary
    raise RuntimeError("handler blew up mid-group (injected)")


def test_handler_exception_mid_group_matches_sequential(served):
    """An exception raised by *re-executed application code* mid-group is
    evidence, not infrastructure (adversarial advice can feed values that
    crash the app): inline and on workers the engine must reject with the
    identical deterministic reexec-crash result."""

    def sabotage():
        app = motd_app()
        return dataclasses.replace(
            app, functions={**app.functions, "handle_get": _exploding_get}
        )

    inline = audit(sabotage(), served.trace, served.advice)
    pooled = Auditor(
        sabotage(), served.trace, served.advice,
        parallelism=2, scheduler="process",
    )
    result = pooled.run()
    assert not pooled.fallback_tags, "the handler's crash is not a worker's"
    assert not inline.accepted and not result.accepted
    assert inline.reason == "reexec-crash"
    assert vg.fingerprint(result) == vg.fingerprint(inline)


def _unpicklable_motd(marker):
    def closure_get(ctx, req):  # unpicklable: refers to a local cell
        marker.setdefault("called", True)
        return motd_app().functions["handle_get"](ctx, req)

    app = motd_app()
    return dataclasses.replace(
        app, functions={**app.functions, "handle_get": closure_get}
    )


@pytest.mark.parametrize("scheduler", [None, "process"], ids=["auto", "process"])
def test_unpicklable_app_audits_in_process_and_says_so(served, scheduler):
    """Closure-based apps cannot cross a process boundary.  Left to pick
    a backend the engine resolves to serial; told to use processes it
    runs every node inline.  Either way the verdict is the golden one
    and exactly one ``parallel-disabled`` diagnostic names the cause --
    never a silent downgrade."""
    marker = {}
    metrics = MetricsRegistry()
    auditor = Auditor(
        _unpicklable_motd(marker), served.trace, served.advice,
        parallelism=2, scheduler=scheduler, metrics=metrics,
    )
    result = auditor.run()
    assert auditor.scheduler == ("serial" if scheduler is None else "process")
    assert marker, "the patched handler never ran"
    assert not auditor.fallback_tags
    assert vg.fingerprint(result) == vg.expected(RUN, "grouped", "honest")
    assert metrics.diagnostics == [{
        "stage": "prepare",
        "reason": "parallel-disabled",
        "detail": "inputs do not pickle: AttributeError",
    }]
    _assert_no_orphans()


def test_process_workers_time_their_own_groups():
    """Without a metrics registry the process backend still reports each
    re-executed group's seconds (the worker's own clock, not the
    parent's queue wait): --progress and the per-stage fold must not
    read 0.0 just because --metrics-out is absent."""

    def reexec_seconds(**engine):
        auditor = Auditor(wiki_app(), run.trace, run.advice, **engine)
        assert auditor.run().accepted
        return [secs for _, stage, _, secs in auditor.node_seconds
                if stage == "reexec"]

    with scaled_work(4.0):  # serve and audit under one scale
        run = vg.served.__wrapped__("wiki-ser")
        serial = reexec_seconds()
        pooled = reexec_seconds(parallelism=2, scheduler="process")
    assert len(pooled) == len(serial) > 1
    assert all(secs > 0 for secs in pooled), pooled
    assert sum(serial) / 3 < sum(pooled) < sum(serial) * 3
