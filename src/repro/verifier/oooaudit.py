"""OOOAudit: the sequential reference audit (paper Figure 22).

OOOAudit re-executes operations one at a time following an *op schedule*
-- any topological order of the execution graph G that respects program
and activation order (a "well-formed" schedule, Definition 10).  The
paper's correctness argument proceeds in two steps:

* Lemma 1: all well-formed op schedules are equivalent (same verdict,
  same variable-state reconstruction);
* Lemma 3: the batched ``Audit`` is equivalent to OOOAudit on the schedule
  obtained by flattening its groups.

This module realises OOOAudit as the straight-line audit whose groups
are singletons, processed in schedule order by one
:class:`~repro.verifier.reexec.ReExecutor`: preprocess, isolation
verification, re-execution, postprocess, nothing else.  Handler bodies
between operations are deterministic (KEM, section 3), so executing a
handler's ops consecutively is itself a well-formed schedule -- by
Lemma 1 it is equivalent to any interleaved one.  It shares no scheduling
or merge code with the audit engine (:class:`~repro.verifier.audit.Auditor`),
which makes it the independent oracle the test suite compares the engine
against, on honest and tampered inputs and under both group orders.
"""

from __future__ import annotations

import time

from repro.advice.records import Advice
from repro.kem.program import AppSpec
from repro.trace.trace import Trace, TraceLike
from repro.verifier.audit import AuditResult, collect_stats, rejection_result
from repro.verifier.isolation import verify_isolation_level
from repro.verifier.postprocess import postprocess
from repro.verifier.preprocess import preprocess
from repro.verifier.reexec import ReExecutor


def ooo_audit(
    app: AppSpec, trace: TraceLike, advice: Advice, reverse_schedule: bool = False
) -> AuditResult:
    """Audit with singleton groups (one request at a time).

    ``reverse_schedule`` flips the request processing order, giving a
    second well-formed schedule for equivalence testing.
    """
    started = time.perf_counter()
    state = re_exec = None
    stage = "preprocess"
    try:
        state = preprocess(app, Trace.from_events(trace), advice)
        stage = "isolation"
        verify_isolation_level(state)
        stage = "reexec"
        re_exec = ReExecutor(
            state, singleton_groups=True, reverse_groups=reverse_schedule
        )
        re_exec.run()
        stage = "postprocess"
        postprocess(state, re_exec)
    except Exception as exc:
        return rejection_result(exc, stage, started, state, re_exec)
    return AuditResult(accepted=True, stats=collect_stats(started, state, re_exec))
