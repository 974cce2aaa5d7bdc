"""Group-level re-execution: the unit the audit engine fans out, and
the canonical-order merge that makes every schedule verdict-identical
(DESIGN.md §5).

The paper's Lemma 1 (see :mod:`repro.verifier.oooaudit`) proves all
well-formed op schedules equivalent, which licenses re-executing
independent groups in any order, concurrently.  In this verifier group
re-execution is *value-isolated* by construction:

* unlogged variable reads resolve via FindNearestRPrecedingWrite, which
  only consults the reading request's own handler tree and the trusted
  init write (section 4.2);
* logged variable reads take their value from the dictating write's own
  log entry (Figure 20) -- the value travels *in the advice*, not in live
  re-execution state;
* store GETs resolve their dictating PUT from the transaction logs
  (section 4.4), again value-carrying.

So a group re-executes to the same values regardless of what other groups
ran before it.  The only cross-group mutable state is the write-history
bookkeeping of :class:`~repro.verifier.state.VarState` -- overwrite
claims (whose duplication is the ``double-overwrite`` rejection) and
claim fallbacks/initializer updates, all order-sensitive.
:func:`execute_group` records exactly these events in an ordered
per-group *journal* (:class:`GroupDelta`), and the engine's merge node
replays every journal in canonical group order (sorted tags) through
:func:`merge_delta` before merging the group's bulk state.  Consequences:

* the verdict, rejection reason, and deterministic statistics are
  identical no matter how groups were scheduled, on which worker, or in
  which order they finished -- and equal to the straight-line
  :func:`~repro.verifier.oooaudit.ooo_audit` reference on verdict;
* a cross-group conflict (advice is untrusted and may lie about what a
  group touches) surfaces as one deterministic REJECT at its canonical
  position -- never a race.

There is no scheduling constraint between the groups of an epoch: every
cross-group coupling found in well-formed advice is value-carrying (the
three bullets above), so the plan fans all of them out after one barrier
and advice that lies about it is caught by the merge, not by scheduling.
:func:`run_group_in_worker` is the process backend's task: the same
:func:`execute_group`, over audit state the worker rebuilds once per
epoch payload.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AuditRejected
from repro.server.variables import INIT_RID
from repro.verifier.preprocess import AuditState, preprocess
from repro.verifier.reexec import ReExecutor
from repro.verifier.state import VarState

# Test hook: a worker whose task tag equals this environment variable's
# value dies without cleanup, simulating a hard worker crash (segfault,
# OOM-kill).  Inherited by pool workers; never set in production.
CRASH_ENV = "KAROUSOS_TEST_WORKER_CRASH"


# -- per-group execution (runs inside a worker) --------------------------------


@dataclass
class GroupDelta:
    """Everything one group's isolated re-execution produced.

    ``journal`` is the ordered list of cross-group-sensitive events
    (overwrite claims, claim fallbacks, initializer updates, handler
    completions) in execution order; the parent replays it in canonical
    group order.  Bulk state (outputs, var dictionaries, observers) is
    disjoint across groups and merged wholesale after a group's journal
    replays cleanly.
    """

    tag: str
    journal: List[Tuple] = field(default_factory=list)
    executed: Set[Tuple] = field(default_factory=set)
    outputs: Dict[str, object] = field(default_factory=dict)
    var_dicts: Dict[str, Dict] = field(default_factory=dict)
    read_observers: Dict[str, Dict] = field(default_factory=dict)
    consumed: Dict[str, Set] = field(default_factory=dict)
    plain_values: Dict[str, Dict] = field(default_factory=dict)
    # (kind, reason, detail, site); kind is "rejected" (AuditRejected) or
    # "crash" (any other exception: the audit-crash verdict).
    rejection: Optional[Tuple[str, str, str, Optional[dict]]] = None


def execute_group(state: AuditState, tag: str, rids: List[str]) -> GroupDelta:
    """Re-execute one group in isolation and package its delta."""
    journal: List[Tuple] = []
    delta = GroupDelta(tag=tag, journal=journal)
    re_exec = None
    try:
        re_exec = ReExecutor(state, journal=journal)
        re_exec.execute_group(rids)
    except AuditRejected as rejection:
        delta.rejection = (
            "rejected", rejection.reason, rejection.detail, rejection.site
        )
    except Exception as exc:  # the engine's audit-crash clause
        delta.rejection = (
            "crash", "audit-crash", f"{type(exc).__name__}: {exc}", None
        )
    if re_exec is None or delta.rejection is not None:
        # A rejected group contributes only its journal (for stats and the
        # rejection's canonical position); the audit stops before its bulk
        # state could matter.
        return delta
    delta.executed = re_exec.executed
    delta.outputs = re_exec.outputs
    for var_id, var in re_exec.vars.items():
        if isinstance(var, VarState):
            var_dict = {
                key: writes
                for key, writes in var.var_dict.items()
                if key[0] != INIT_RID
            }
            if var_dict:
                delta.var_dicts[var_id] = var_dict
            if var.read_observers:
                delta.read_observers[var_id] = var.read_observers
            if var.consumed:
                delta.consumed[var_id] = var.consumed
        elif var.values:
            delta.plain_values[var_id] = var.values
    return delta


# Worker-side cache of rebuilt audit states, keyed by the payload key the
# engine chose (one per epoch).  Workers are pool-private processes, so
# this global never leaks across runs.
_WORKER_STATES: Dict[str, AuditState] = {}


def run_group_in_worker(
    key: str, payload: bytes, tag: str, rids: List[str]
) -> Tuple[str, GroupDelta, float]:
    """The process backend's task: :func:`execute_group` over the state
    rebuilt from ``payload`` (pickled ``(app, trace, advice, carry)``),
    returned as the finished runner outcome.  The seconds are the
    worker's own: parent wall-clock would count queue wait, not work."""
    if os.environ.get(CRASH_ENV) == tag:
        os._exit(17)  # simulated hard crash (test hook, see CRASH_ENV)
    state = _WORKER_STATES.get(key)
    if state is None:
        app, trace, advice, carry = pickle.loads(payload)
        # Deterministic, and the parent only ships work after its own
        # preprocess succeeded -- this cannot newly reject.
        state = preprocess(app, trace, advice, carry)
        _WORKER_STATES.clear()  # at most one live epoch state per worker
        _WORKER_STATES[key] = state
    t0 = time.perf_counter()
    delta = execute_group(state, tag, rids)
    return ("executed", delta, time.perf_counter() - t0)


def merge_delta(re_exec: ReExecutor, delta: GroupDelta) -> None:
    """Replay one group's delta into the merge-target executor.

    Called in canonical (sorted-tag) order, this reproduces exactly the
    write-history bookkeeping of one executor running the groups in that
    order (:meth:`ReExecutor.run`): journals replay the order-sensitive
    events -- including the ``double-overwrite`` conflict check, raised
    with the same reason, detail, and site
    :class:`~repro.verifier.state.VarState` produces -- and a group's
    own rejection fires at its recorded position.  Bulk state merges
    wholesale only after the journal replayed cleanly.
    """
    re_exec.groups_executed += 1
    for event in delta.journal:
        kind = event[0]
        if kind == "handlers":
            re_exec.handlers_executed += event[1]
        elif kind == "claim":
            _, var_id, prec, key = event
            var = re_exec.vars[var_id]
            if prec in var.write_observer:
                raise AuditRejected(
                    "double-overwrite",
                    f"{var_id!r}: two writes overwrite {prec}",
                    site={"var": var_id, "rid": key[0], "handler": key[1],
                          "opnum": key[2], "prec": prec},
                )
            var.write_observer[prec] = key
        elif kind == "fallback":
            _, var_id, prec, key = event
            re_exec.vars[var_id].write_observer.setdefault(prec, key)
        elif kind == "initializer":
            _, var_id, key = event
            re_exec.vars[var_id].initializer = key
    if delta.rejection is not None:
        _kind, reason, detail, site = delta.rejection
        raise AuditRejected(reason, detail, site=site)
    re_exec.executed.update(delta.executed)
    re_exec.outputs.update(delta.outputs)
    for var_id, var_dict in delta.var_dicts.items():
        re_exec.vars[var_id].var_dict.update(var_dict)
    for var_id, observers in delta.read_observers.items():
        var = re_exec.vars[var_id]
        for key, readers in observers.items():
            var.read_observers.setdefault(key, set()).update(readers)
    for var_id, consumed in delta.consumed.items():
        re_exec.vars[var_id].consumed.update(consumed)
    for var_id, values in delta.plain_values.items():
        re_exec.vars[var_id].values.update(values)
