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

The recording proxy wraps the live :class:`HandlerContext`, so the
observation is exactly what the server executed -- same runtime, same
scheduler, same store -- not a re-implementation of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

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
        return self._inner.write(var_id, value)

    def update(self, var_id: str, fn: Any, *args: Any) -> Any:
        self._fp.reads.add(var_id)
        self._fp.writes.add(var_id)
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
        return self._inner.tx_get(tid, key, callback_fid, extra)

    def tx_put(self, tid: Any, key: str, value: Any) -> Any:
        self._fp.tx_ops.add("tx_put")
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
    observed: Dict[str, ObservedFootprint] = field(default_factory=dict)
    predicted: Dict[str, HandlerSummary] = field(default_factory=dict)
    trace: Optional[Trace] = None

    @property
    def sound(self) -> bool:
        """No observed operation escaped the static prediction."""
        return not self.unpredicted

    def format_text(self) -> List[str]:
        lines = [
            f"crosscheck: {self.requests_served} requests, "
            f"{len(self.observed)} handlers activated, "
            f"{len(self.unpredicted)} unpredicted event(s), "
            f"{len(self.unobserved)} predicted-but-unobserved site(s)"
        ]
        for item in self.unpredicted:
            lines.append(f"  UNSOUND {item}")
        for item in self.unobserved:
            lines.append(f"  unobserved {item}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app_name,
            "requests": self.requests_served,
            "sound": self.sound,
            "unpredicted": list(self.unpredicted),
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
        trace=run.trace,
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
