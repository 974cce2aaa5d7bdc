"""Instrumentation-completeness linter: is this app valid transpiler output?

The paper's Babel transpiler mechanically inserts every annotation the
audit depends on; this repo hand-writes the annotated program, so
:func:`lint_app` re-establishes the guarantee statically.  It walks every
handler in an :class:`~repro.kem.program.AppSpec` -- following helper
functions that receive the context at any argument position -- and runs
the rule set of :mod:`repro.analysis.rules` (R1-R5) over each, producing
a :class:`~repro.analysis.report.LintReport` with exact source
coordinates.

Suppressions: a trailing comment ``# lint: disable=R5 -- justification``
on the offending line (or on the function's ``def`` line, to cover the
whole function) moves matching findings into ``report.suppressed``.
Suppression without a justification text is itself bad style but not
enforced here.

:func:`predict_footprints` computes, per handler, the statically
predicted operation footprint (variables read/written, events emitted,
registrations, tx callbacks, responds, branch/nondet sites).  The
dynamic crosscheck (:mod:`repro.analysis.crosscheck`) diffs these
predictions against an observed execution: any operation the prediction
missed is an *analyzer* bug (unsoundness), which is exactly the property
the lint verdict rests on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.ctxutil import (
    ParsedFunction,
    call_argument,
    collect_helper_calls,
    context_names,
    context_params,
    ctx_method_call,
    iter_calls,
    literal_str,
    parse_function,
)
from repro.analysis.dataflow import TaintEnv
from repro.analysis.report import LintReport, Violation
from repro.analysis.rules import (
    AppContext,
    HandlerInfo,
    check_r1,
    check_r2,
    check_r3,
    check_r4,
    check_r5,
    paths_resolve,
)
from repro.kem.program import AppSpec

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:--|$)")


def _suppressed_rules(line: str) -> Set[str]:
    match = _SUPPRESS_RE.search(line)
    if not match:
        return set()
    return {part.strip().upper() for part in match.group(1).split(",") if part.strip()}


# -- per-function analysis ----------------------------------------------------


def make_handler_info(
    fid: str,
    fn: Any,
    ctx_position: int = 0,
    is_request_handler: bool = False,
) -> Optional[HandlerInfo]:
    """Parse and taint-analyse one function; ``None`` without source."""
    parsed = parse_function(fn)
    if parsed is None:
        return None
    params = [a.arg for a in parsed.func_def.args.posonlyargs + parsed.func_def.args.args]
    ctx_param_names = context_params(parsed.func_def, position=ctx_position)
    ctx_names = context_names(parsed.func_def, ctx_param_names)
    # Every non-context parameter may carry per-request data: the payload
    # of a handler, or -- for helpers analysed out of context -- whatever
    # the call site forwarded.  Seeding them tainted keeps R1 sound.
    seed = [p for p in params if p not in ctx_param_names]
    taint = TaintEnv(parsed.func_def, ctx_names, seed_tainted=seed)
    return HandlerInfo(
        fid=fid,
        fn=fn,
        parsed=parsed,
        ctx_names=ctx_names,
        taint=taint,
        is_request_handler=is_request_handler,
    )


def _discover(
    app: AppSpec, request_fids: Set[str]
) -> Tuple[List[HandlerInfo], List[str]]:
    """All handler infos plus reachable context-forwarding helpers.

    Helpers are analysed exactly once each (first discovery wins the
    diagnostic label), with every non-context parameter conservatively
    tainted, so shared helpers like a ``_retry(ctx)`` are not re-linted
    per caller.
    """
    infos: List[HandlerInfo] = []
    unparsed: List[str] = []
    seen_fns: Set[int] = set()

    def add(fid: str, fn: Any, position: int, is_request: bool) -> None:
        if id(fn) in seen_fns:
            return
        seen_fns.add(id(fn))
        info = make_handler_info(
            fid, fn, ctx_position=position, is_request_handler=is_request
        )
        if info is None:
            unparsed.append(fid)
            return
        infos.append(info)
        for helper_name, helper_pos in collect_helper_calls(
            info.parsed.func_def, info.ctx_names
        ).items():
            helper = getattr(fn, "__globals__", {}).get(helper_name)
            if helper is None or not callable(helper):
                continue
            add(f"{fid}>{helper_name}", helper, helper_pos, False)

    for fid in sorted(app.functions):
        add(fid, app.functions[fid], 0, fid in request_fids)
    return infos, unparsed


def _known_events(app: AppSpec, infos: List[HandlerInfo], init_events: Set[str]) -> Set[str]:
    events = set(init_events)
    for info in infos:
        for call in iter_calls(info.parsed.func_def):
            if ctx_method_call(call, info.ctx_names) == "register":
                event = call_argument(call, 0, "event")
                value = literal_str(event) if event is not None else None
                if value is not None:
                    events.add(value)
    return events


def _resolving_helpers(infos: List[HandlerInfo], appctx: AppContext) -> Set[str]:
    """Helper names whose every path responds or defers, to a fixpoint.

    Monotone: a helper can only *gain* resolving status as more helpers
    are proven, so iterating until stable is exact for the recursive case
    (and treats cycles as non-resolving, the safe direction).
    """
    helper_infos = {
        info.fid.rsplit(">", 1)[-1]: info for info in infos if ">" in info.fid
    }
    resolved: Set[str] = set()
    changed = True
    while changed:
        changed = False
        appctx.resolving_helpers = resolved
        for name, info in helper_infos.items():
            if name not in resolved and paths_resolve(info, appctx):
                resolved.add(name)
                changed = True
    return resolved


def lint_app(app: AppSpec) -> LintReport:
    """Run the full rule set over every handler of ``app``."""
    init_ctx = app.run_init()
    request_fids = {
        fid
        for event, fid in init_ctx.global_handlers
        if event.startswith("request/")
    }
    infos, unparsed = _discover(app, request_fids)
    appctx = AppContext(
        app_name=app.name,
        known_fids=set(app.functions),
        known_events=_known_events(
            app, infos, {event for event, _fid in init_ctx.global_handlers}
        ),
    )
    appctx.resolving_helpers = _resolving_helpers(infos, appctx)

    report = LintReport(app_name=app.name, unparsed=unparsed)
    for info in infos:
        found: List[Violation] = []
        found.extend(check_r1(info))
        found.extend(check_r2(info))
        found.extend(check_r3(info))
        found.extend(check_r4(info, appctx))
        found.extend(check_r5(info, appctx))
        _file_report(report, info, found)
    return report


def _file_report(
    report: LintReport, info: HandlerInfo, found: List[Violation]
) -> None:
    """Append ``found`` to ``report``, honouring suppression comments on
    the handler's ``def`` line or the violating line itself."""
    def_line_rules = _suppressed_rules(info.parsed.source_line(info.parsed.firstline))
    for violation in sorted(found, key=lambda v: (v.line, v.col, v.rule)):
        line_rules = _suppressed_rules(info.parsed.source_line(violation.line))
        if violation.rule in line_rules or violation.rule in def_line_rules:
            report.suppressed.append(violation)
        else:
            report.violations.append(violation)


# -- footprint prediction (consumed by the crosscheck) ------------------------


@dataclass
class HandlerSummary:
    """Statically predicted operation footprint of one handler function,
    including everything reachable through context-forwarding helpers."""

    fid: str
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    dynamic_vars: bool = False  # non-literal variable id seen
    # "fid:lineno" of each non-literal variable access (not in to_dict)
    dynamic_sites: List[str] = field(default_factory=list)
    emits: Set[str] = field(default_factory=set)
    dynamic_emits: bool = False
    registers: Set[Tuple[str, str]] = field(default_factory=set)
    unregisters: Set[Tuple[str, str]] = field(default_factory=set)
    dynamic_registrations: bool = False
    tx_callbacks: Set[str] = field(default_factory=set)
    dynamic_callbacks: bool = False
    tx_ops: Set[str] = field(default_factory=set)  # {"tx_start", "tx_get", ...}
    responds: bool = False
    branch_sites: int = 0
    control_sites: int = 0
    nondet_sites: int = 0
    opaque: bool = False  # source unavailable: predict nothing, trust nothing

    def to_dict(self) -> "Dict[str, Any]":
        """JSON form, deterministic; golden-pinned under FOOTPRINTS_SPEC."""
        return {
            "fid": self.fid,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "dynamic_vars": self.dynamic_vars,
            "emits": sorted(self.emits),
            "dynamic_emits": self.dynamic_emits,
            "registers": sorted(map(list, self.registers)),
            "unregisters": sorted(map(list, self.unregisters)),
            "dynamic_registrations": self.dynamic_registrations,
            "tx_callbacks": sorted(self.tx_callbacks),
            "dynamic_callbacks": self.dynamic_callbacks,
            "tx_ops": sorted(self.tx_ops),
            "responds": self.responds,
            "branch_sites": self.branch_sites,
            "control_sites": self.control_sites,
            "nondet_sites": self.nondet_sites,
            "opaque": self.opaque,
        }

    def merge(self, other: "HandlerSummary") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.dynamic_vars |= other.dynamic_vars
        self.dynamic_sites += other.dynamic_sites
        self.emits |= other.emits
        self.dynamic_emits |= other.dynamic_emits
        self.registers |= other.registers
        self.unregisters |= other.unregisters
        self.dynamic_registrations |= other.dynamic_registrations
        self.tx_callbacks |= other.tx_callbacks
        self.dynamic_callbacks |= other.dynamic_callbacks
        self.tx_ops |= other.tx_ops
        self.responds |= other.responds
        self.branch_sites += other.branch_sites
        self.control_sites += other.control_sites
        self.nondet_sites += other.nondet_sites
        self.opaque |= other.opaque


def _summarize_one(fid: str, parsed: ParsedFunction, ctx_names: Set[str]) -> HandlerSummary:
    summary = HandlerSummary(fid=fid)
    for call in iter_calls(parsed.func_def):
        method = ctx_method_call(call, ctx_names)
        if method is None:
            continue
        if method in ("read", "write", "update"):
            arg = call_argument(call, 0, "var_id")
            var_id = literal_str(arg) if arg is not None else None
            if var_id is None:
                summary.dynamic_vars = True
                summary.dynamic_sites.append(f"{fid}:{call.lineno}")
                continue
            if method in ("read", "update"):
                summary.reads.add(var_id)
            if method in ("write", "update"):
                summary.writes.add(var_id)
        elif method == "emit":
            arg = call_argument(call, 0, "event")
            event = literal_str(arg) if arg is not None else None
            if event is None:
                summary.dynamic_emits = True
            else:
                summary.emits.add(event)
        elif method in ("register", "unregister"):
            event_arg = call_argument(call, 0, "event")
            fid_arg = call_argument(call, 1, "function_id")
            event = literal_str(event_arg) if event_arg is not None else None
            target = literal_str(fid_arg) if fid_arg is not None else None
            if event is None or target is None:
                summary.dynamic_registrations = True
            elif method == "register":
                summary.registers.add((event, target))
            else:
                summary.unregisters.add((event, target))
        elif method in ("tx_start", "tx_put", "tx_commit", "tx_abort"):
            summary.tx_ops.add(method)
        elif method == "tx_get":
            summary.tx_ops.add(method)
            arg = call_argument(call, 2, "callback_fid")
            callback = literal_str(arg) if arg is not None else None
            if callback is None:
                summary.dynamic_callbacks = True
            else:
                summary.tx_callbacks.add(callback)
        elif method == "respond":
            summary.responds = True
        elif method == "branch":
            summary.branch_sites += 1
        elif method == "control":
            summary.control_sites += 1
        elif method == "nondet":
            summary.nondet_sites += 1
    return summary


def _summarize_recursive(
    fid: str,
    fn: Any,
    ctx_position: int,
    seen: Set[int],
) -> HandlerSummary:
    if id(fn) in seen:
        return HandlerSummary(fid=fid)
    seen.add(id(fn))
    parsed = parse_function(fn)
    if parsed is None:
        return HandlerSummary(fid=fid, opaque=True)
    ctx_param_names = context_params(parsed.func_def, position=ctx_position)
    ctx_names = context_names(parsed.func_def, ctx_param_names)
    summary = _summarize_one(fid, parsed, ctx_names)
    for helper_name, helper_pos in collect_helper_calls(
        parsed.func_def, ctx_names
    ).items():
        helper = getattr(fn, "__globals__", {}).get(helper_name)
        if helper is None or not callable(helper):
            summary.opaque = True
            continue
        summary.merge(
            _summarize_recursive(f"{fid}>{helper_name}", helper, helper_pos, seen)
        )
    summary.fid = fid
    return summary


#: Version tag for the golden-pinned footprint JSON.  Any intentional
#: change to what predict_footprints reports must bump this and
#: regenerate tests/golden/footprints_*.json (KAROUSOS_REGEN_GOLDEN=1).
FOOTPRINTS_SPEC = "repro.footprints/1"


def predict_footprints(app: AppSpec) -> Dict[str, HandlerSummary]:
    """Per function id: the statically predicted operation footprint."""
    return {
        fid: _summarize_recursive(fid, fn, 0, set())
        for fid, fn in sorted(app.functions.items())
    }
