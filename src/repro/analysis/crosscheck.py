"""Trace-differential crosscheck: does reality match the static analysis?

The linter's verdict is only as good as its model of the handler code.
This module closes the loop dynamically: it serves a workload through the
existing runtime and :class:`~repro.trace.collector.Collector` with every
handler wrapped in a recording proxy, projects the observed execution
onto per-handler read/write/branch/emit/tx footprints, and diffs them
against :func:`~repro.analysis.lint.predict_footprints`:

* an observed operation the static analysis did **not** predict is an
  analyzer bug -- the analysis is *unsound* for this app, and every lint
  verdict on it is suspect (these are errors and fail the gate);
* a predicted operation never observed is reported as dead or
  over-approximated instrumentation (informational: the workload may
  simply not have driven that path).

The same loop gates the symbolic effect analysis
(:mod:`repro.analysis.effects`): observed store keys must be covered by
the route's static key symbols, blind writes and atomic updates must be
predicted with the right access kind, every activated handler must lie
in its route's static closure, and every observed cross-route conflict
must appear in the static conflict matrix.  Escapes land in
``effect_unpredicted`` and fail the gate: the conflict matrix and lint
rules R6-R9 are read off exactly these facts.

The recording proxy wraps the live :class:`HandlerContext`, so the
observation is exactly what the server executed -- same runtime, same
scheduler, same store -- not a re-implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.effects import AppEffects, analyze_effects, any_covers
from repro.analysis.lint import HandlerSummary, predict_footprints
from repro.kem.program import AppSpec
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import KVStore
from repro.trace.trace import Request, Trace
from repro.workload import workload_for


@dataclass
class ObservedFootprint:
    """What one handler function actually did, across all activations."""

    fid: str
    activations: int = 0
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    updates: Set[str] = field(default_factory=set)  # atomic RMW (ctx.update)
    blind_writes: Set[str] = field(default_factory=set)  # bare ctx.write
    kv_reads: Set[str] = field(default_factory=set)  # concrete tx_get keys
    kv_writes: Set[str] = field(default_factory=set)  # concrete tx_put keys
    rids: Set[str] = field(default_factory=set)  # requests that reached us
    emits: Set[str] = field(default_factory=set)
    registers: Set[Tuple[str, str]] = field(default_factory=set)
    unregisters: Set[Tuple[str, str]] = field(default_factory=set)
    tx_callbacks: Set[str] = field(default_factory=set)
    tx_ops: Set[str] = field(default_factory=set)
    responds: bool = False
    branches: int = 0
    controls: int = 0
    nondets: int = 0


class FootprintRecorder:
    """Collects one :class:`ObservedFootprint` per function id."""

    def __init__(self) -> None:
        self.footprints: Dict[str, ObservedFootprint] = {}

    def for_fid(self, fid: str) -> ObservedFootprint:
        if fid not in self.footprints:
            self.footprints[fid] = ObservedFootprint(fid)
        return self.footprints[fid]


class RecordingContext:
    """A transparent proxy over the live handler context.

    Every operation is forwarded unchanged; the footprint is recorded on
    the way through.  Unknown attributes delegate, so the proxy keeps
    working if the context API grows.
    """

    def __init__(self, inner: Any, footprint: ObservedFootprint):
        self._inner = inner
        self._fp = footprint

    @property
    def rid(self) -> str:
        return self._inner.rid

    def read(self, var_id: str) -> Any:
        self._fp.reads.add(var_id)
        return self._inner.read(var_id)

    def write(self, var_id: str, value: Any) -> Any:
        self._fp.writes.add(var_id)
        self._fp.blind_writes.add(var_id)
        return self._inner.write(var_id, value)

    def update(self, var_id: str, fn: Any, *args: Any) -> Any:
        self._fp.reads.add(var_id)
        self._fp.writes.add(var_id)
        self._fp.updates.add(var_id)
        return self._inner.update(var_id, fn, *args)

    def branch(self, cond: Any) -> Any:
        self._fp.branches += 1
        return self._inner.branch(cond)

    def control(self, value: Any) -> Any:
        self._fp.controls += 1
        return self._inner.control(value)

    def apply(self, fn: Any, *args: Any) -> Any:
        return self._inner.apply(fn, *args)

    def emit(self, event: str, payload: Any = None) -> Any:
        self._fp.emits.add(event)
        return self._inner.emit(event, payload)

    def register(self, event: str, function_id: str) -> Any:
        self._fp.registers.add((event, function_id))
        return self._inner.register(event, function_id)

    def unregister(self, event: str, function_id: str) -> Any:
        self._fp.unregisters.add((event, function_id))
        return self._inner.unregister(event, function_id)

    def tx_start(self) -> Any:
        self._fp.tx_ops.add("tx_start")
        return self._inner.tx_start()

    def tx_get(self, tid: Any, key: str, callback_fid: str, extra: Any = None) -> Any:
        self._fp.tx_ops.add("tx_get")
        self._fp.tx_callbacks.add(callback_fid)
        self._fp.kv_reads.add(key)
        return self._inner.tx_get(tid, key, callback_fid, extra)

    def tx_put(self, tid: Any, key: str, value: Any) -> Any:
        self._fp.tx_ops.add("tx_put")
        self._fp.kv_writes.add(key)
        return self._inner.tx_put(tid, key, value)

    def tx_commit(self, tid: Any) -> Any:
        self._fp.tx_ops.add("tx_commit")
        return self._inner.tx_commit(tid)

    def tx_abort(self, tid: Any) -> Any:
        self._fp.tx_ops.add("tx_abort")
        return self._inner.tx_abort(tid)

    def nondet(self, fn: Any) -> Any:
        self._fp.nondets += 1
        return self._inner.nondet(fn)

    def respond(self, payload: Any) -> Any:
        self._fp.responds = True
        return self._inner.respond(payload)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def observed_app(app: AppSpec) -> Tuple[AppSpec, FootprintRecorder]:
    """``app`` with every handler wrapped in a recording proxy."""
    recorder = FootprintRecorder()

    def wrap(fid: str, fn: Any) -> Any:
        def wrapped(ctx: Any, payload: Any) -> Any:
            footprint = recorder.for_fid(fid)
            footprint.activations += 1
            footprint.rids.add(ctx.rid)
            return fn(RecordingContext(ctx, footprint), payload)

        wrapped.__name__ = f"observed_{fid}"
        return wrapped

    wrapped_functions = {fid: wrap(fid, fn) for fid, fn in app.functions.items()}
    return (
        AppSpec(name=app.name, functions=wrapped_functions, init=app.init),
        recorder,
    )


@dataclass
class CrosscheckResult:
    """The footprint diff plus the run it came from."""

    app_name: str
    requests_served: int
    unpredicted: List[str] = field(default_factory=list)  # analyzer bugs
    unobserved: List[str] = field(default_factory=list)  # dead / over-approx
    effect_unpredicted: List[str] = field(default_factory=list)  # effects bugs
    observed: Dict[str, ObservedFootprint] = field(default_factory=dict)
    predicted: Dict[str, HandlerSummary] = field(default_factory=dict)
    effects: Optional[AppEffects] = None
    trace: Optional[Trace] = None

    @property
    def sound(self) -> bool:
        """No observed operation escaped the static prediction."""
        return not self.unpredicted and not self.effect_unpredicted

    def format_text(self) -> List[str]:
        lines = [
            f"crosscheck: {self.requests_served} requests, "
            f"{len(self.observed)} handlers activated, "
            f"{len(self.unpredicted)} unpredicted event(s), "
            f"{len(self.effect_unpredicted)} unpredicted effect(s), "
            f"{len(self.unobserved)} predicted-but-unobserved site(s)"
        ]
        for item in self.unpredicted:
            lines.append(f"  UNSOUND {item}")
        for item in self.effect_unpredicted:
            lines.append(f"  UNSOUND-EFFECT {item}")
        for item in self.unobserved:
            lines.append(f"  unobserved {item}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app_name,
            "requests": self.requests_served,
            "sound": self.sound,
            "unpredicted": list(self.unpredicted),
            "effect_unpredicted": list(self.effect_unpredicted),
            "unobserved": list(self.unobserved),
        }


def _diff_fid(
    fid: str, obs: ObservedFootprint, pred: HandlerSummary
) -> Tuple[List[str], List[str]]:
    unpredicted: List[str] = []
    unobserved: List[str] = []
    if pred.opaque:
        unpredicted.append(
            f"{fid}: executed but its source was unavailable to the analysis"
        )
        return unpredicted, unobserved

    def missing(kind: str, values: Any, dynamic_ok: bool) -> None:
        for value in sorted(values):
            if dynamic_ok:
                continue
            unpredicted.append(f"{fid}: {kind} {value!r} was not predicted")

    missing("read of", obs.reads - pred.reads, pred.dynamic_vars)
    missing("write of", obs.writes - pred.writes, pred.dynamic_vars)
    missing("emit of", obs.emits - pred.emits, pred.dynamic_emits)
    missing(
        "registration", obs.registers - pred.registers, pred.dynamic_registrations
    )
    missing(
        "unregistration", obs.unregisters - pred.unregisters,
        pred.dynamic_registrations,
    )
    missing(
        "tx callback", obs.tx_callbacks - pred.tx_callbacks, pred.dynamic_callbacks
    )
    missing("transactional op", obs.tx_ops - pred.tx_ops, False)
    if obs.responds and not pred.responds:
        unpredicted.append(f"{fid}: responded but no ctx.respond site was predicted")
    if obs.branches and not pred.branch_sites:
        unpredicted.append(f"{fid}: issued branches but no ctx.branch site was predicted")
    if obs.controls and not pred.control_sites:
        unpredicted.append(f"{fid}: issued controls but no ctx.control site was predicted")
    if obs.nondets and not pred.nondet_sites:
        unpredicted.append(f"{fid}: used nondet but no ctx.nondet site was predicted")

    for var in sorted(pred.reads - obs.reads):
        unobserved.append(f"{fid}: predicted read of {var!r} never observed")
    for var in sorted(pred.writes - obs.writes):
        unobserved.append(f"{fid}: predicted write of {var!r} never observed")
    for event in sorted(pred.emits - obs.emits):
        unobserved.append(f"{fid}: predicted emit of {event!r} never observed")
    for op in sorted(pred.tx_ops - obs.tx_ops):
        unobserved.append(f"{fid}: predicted {op} never observed")
    for callback in sorted(pred.tx_callbacks - obs.tx_callbacks):
        unobserved.append(
            f"{fid}: predicted tx callback {callback!r} never observed"
        )
    if pred.responds and not obs.responds:
        unobserved.append(f"{fid}: predicted ctx.respond never observed")
    return unpredicted, unobserved


def _check_effects(
    effects: AppEffects,
    footprints: Dict[str, ObservedFootprint],
    route_of: Dict[str, str],
) -> List[str]:
    """Observed effects the symbolic summaries failed to predict.

    Gate checks, each the dynamic complement of a static claim:

    * every activated handler lies in the closure of the route that
      reached it (the closure is what the conflict matrix ranges over);
    * every concrete store key read/written by a handler is covered by a
      key symbol of some route the handler runs under (exact match for
      constant symbols, prefix match for families, anything for ⊤);
    * every blind write / atomic update is predicted with the right kind
      (the conflict predicate distinguishes them);
    * every observed variable read lies in the summary's variable set;
    * every *observed* cross-route conflict is in the static conflict
      matrix -- implied by the per-effect checks for a monotone predicate,
      but checked explicitly so a predicate bug cannot hide behind them.
    """
    problems: List[str] = []
    handler_routes: Dict[str, Set[str]] = {}
    for fid, obs in sorted(footprints.items()):
        routes = {route_of[rid] for rid in obs.rids if rid in route_of}
        handler_routes[fid] = routes
        for route in sorted(routes):
            eff = effects.routes.get(route)
            if eff is None:
                problems.append(
                    f"{fid}: activated by unknown route {route!r}"
                )
            elif fid not in eff.closure:
                problems.append(
                    f"{fid}: activated by route {route!r} but not in its "
                    "static closure"
                )

    for fid, obs in sorted(footprints.items()):
        summary = effects.handlers.get(fid)
        if summary is None or summary.opaque:
            continue  # already reported by the footprint diff
        route_effects = [
            effects.routes[r] for r in sorted(handler_routes.get(fid, set()))
            if r in effects.routes
        ]
        for key in sorted(obs.kv_reads):
            if not any(
                any_covers(r.effect.kv_reads, key) for r in route_effects
            ):
                problems.append(
                    f"{fid}: tx_get of key {key!r} not covered by any "
                    "static key symbol"
                )
        for key in sorted(obs.kv_writes):
            if not any(
                any_covers(r.effect.kv_writes, key) for r in route_effects
            ):
                problems.append(
                    f"{fid}: tx_put of key {key!r} not covered by any "
                    "static key symbol"
                )
        if not summary.dynamic_vars:
            for var in sorted(obs.reads - summary.all_vars()):
                problems.append(
                    f"{fid}: ctx.read of {var!r} not covered by the "
                    "effect summary's variable set"
                )
            for var in sorted(obs.blind_writes - summary.var_writes):
                problems.append(
                    f"{fid}: blind write of {var!r} not predicted as a "
                    "blind write"
                )
            for var in sorted(obs.updates - summary.var_updates):
                problems.append(
                    f"{fid}: atomic update of {var!r} not predicted as an "
                    "update"
                )

    # Observed conflicts vs the static matrix.  Attribute each handler's
    # accesses to every route that activated it -- the same
    # over-approximation the static side uses, so the comparison cannot
    # false-fail.
    route_obs: Dict[str, ObservedFootprint] = {}
    for fid, obs in footprints.items():
        for route in handler_routes.get(fid, set()):
            agg = route_obs.setdefault(route, ObservedFootprint(route))
            agg.reads |= obs.reads
            agg.updates |= obs.updates
            agg.blind_writes |= obs.blind_writes
    names = sorted(route_obs)
    for i, ra in enumerate(names):
        A = route_obs[ra]
        for rb in names[i:]:
            B = route_obs[rb]
            observed_conflict_vars = sorted(
                (A.blind_writes & (B.blind_writes | B.reads | B.updates))
                | (B.blind_writes & (A.reads | A.updates))
            )
            if not observed_conflict_vars:
                continue
            conflict = effects.conflict(ra, rb)
            if conflict is None or conflict.commutes:
                problems.append(
                    f"routes {ra!r} and {rb!r}: observed conflict on "
                    f"{observed_conflict_vars} but the static matrix says "
                    "they commute"
                )
    return problems


def crosscheck_app(
    app: AppSpec,
    requests: Optional[List[Request]] = None,
    n_requests: int = 80,
    mix: str = "mixed",
    seed: int = 0,
    concurrency: int = 8,
) -> CrosscheckResult:
    """Serve a workload with recording handlers and diff the footprints.

    ``requests`` overrides the generated workload (the app's name must be
    a known workload name otherwise).  The store is attached exactly when
    the static prediction says any handler issues transactional ops.
    """
    predicted = predict_footprints(app)
    effects = analyze_effects(app)
    if requests is None:
        requests = workload_for(app.name, n_requests, mix=mix, seed=seed)
    wrapped, recorder = observed_app(app)
    needs_store = any(p.tx_ops or p.opaque for p in predicted.values())
    run = run_server(
        wrapped,
        requests,
        KarousosPolicy(),
        store=KVStore() if needs_store else None,
        scheduler=RandomScheduler(seed=seed),
        concurrency=concurrency,
    )
    result = CrosscheckResult(
        app_name=app.name,
        requests_served=len(requests),
        observed=recorder.footprints,
        predicted=predicted,
        effects=effects,
        trace=run.trace,
    )
    route_of = {req.rid: req.route for req in requests}
    result.effect_unpredicted.extend(
        _check_effects(effects, recorder.footprints, route_of)
    )
    for fid, obs in sorted(recorder.footprints.items()):
        pred = predicted.get(fid)
        if pred is None:  # cannot happen via AppSpec, but stay defensive
            result.unpredicted.append(f"{fid}: executed but unknown to the analysis")
            continue
        unpredicted, unobserved = _diff_fid(fid, obs, pred)
        result.unpredicted.extend(unpredicted)
        result.unobserved.extend(unobserved)
    for fid in sorted(set(predicted) - set(recorder.footprints)):
        result.unobserved.append(
            f"{fid}: handler never activated by this workload"
        )
    return result
