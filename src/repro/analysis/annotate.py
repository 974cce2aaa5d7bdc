"""Automatic loggable-variable annotation (paper sections 1 and 5).

Marking a variable loggable when it has no R-concurrent accesses only
costs performance; *failing* to mark a genuinely shared variable costs
Completeness (section 5).  The safe automation is therefore a
conservative escape-style analysis over each handler's statically
predicted footprint (:func:`repro.analysis.lint.predict_footprints`, the
one walk of handler source, helpers included), classifying:

* ``read-only``   -- never written by any handler: every read observes the
  initialisation write and is R-ordered with it; safe to leave unlogged.
* ``shared``      -- written by at least one handler: conservatively
  loggable.
* ``dynamic-conservative`` -- some handler accesses a variable through a
  non-literal id, or has no source to analyse (an *opaque* footprint):
  the analysis cannot bound the footprint, so every declared variable
  becomes conservatively loggable and the site or handler is reported.

The analyzer also surfaces plain bugs: variables accessed but never
declared, and declarations never accessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.lint import predict_footprints
from repro.kem.program import AppSpec


@dataclass
class VariableUsage:
    var_id: str
    readers: Set[str] = field(default_factory=set)
    writers: Set[str] = field(default_factory=set)

    @property
    def accessors(self) -> Set[str]:
        return self.readers | self.writers

    @property
    def written(self) -> bool:
        return bool(self.writers)


@dataclass
class AnnotationReport:
    """Result of analysing one application."""

    usage: Dict[str, VariableUsage]
    declared: Dict[str, bool]  # var id -> declared-loggable flag
    dynamic_sites: List[str]  # "fid:lineno" of non-literal accesses
    undeclared: Set[str]  # accessed but never declared
    unused: Set[str]  # declared but never accessed
    unparsed: List[str]  # handlers with an opaque footprint (no source)

    def classification(self, var_id: str) -> str:
        if self.dynamic_sites or self.unparsed:
            return "dynamic-conservative"
        usage = self.usage.get(var_id)
        if usage is None or not usage.accessors:
            return "unused"
        if not usage.written:
            return "read-only"
        return "shared"

    def recommended_loggable(self, var_id: str) -> bool:
        """True iff the variable must be annotated loggable."""
        return self.classification(var_id) in ("shared", "dynamic-conservative")


def analyze_app(app: AppSpec) -> AnnotationReport:
    """Variable usage across all handler functions, from their footprints."""
    init_ctx = app.run_init()
    usage: Dict[str, VariableUsage] = {
        var_id: VariableUsage(var_id) for var_id in init_ctx.initial_vars
    }
    dynamic_sites: List[str] = []
    unparsed: List[str] = []
    undeclared: Set[str] = set()
    for fid, summary in predict_footprints(app).items():
        if summary.opaque:
            unparsed.append(fid)
        dynamic_sites.extend(summary.dynamic_sites)
        for var_id in summary.reads | summary.writes:
            if var_id not in usage:
                undeclared.add(var_id)
                usage[var_id] = VariableUsage(var_id)
            if var_id in summary.reads:
                usage[var_id].readers.add(fid)
            if var_id in summary.writes:
                usage[var_id].writers.add(fid)
    unused = {
        var_id
        for var_id in init_ctx.initial_vars
        if not usage[var_id].accessors
    }
    return AnnotationReport(
        usage=usage,
        declared=dict(init_ctx.loggable),
        dynamic_sites=dynamic_sites,
        undeclared=undeclared,
        unused=unused,
        unparsed=unparsed,
    )


def suggest_annotations(app: AppSpec) -> Dict[str, str]:
    """Per declared variable: 'keep-loggable', 'can-skip-logging', or
    'MUST-be-loggable' when the declaration under-annotates.

    "can-skip-logging" is advisory: treating a read-only variable as
    non-loggable saves log entries with no Completeness risk (all its
    reads are R-ordered with the initialisation write).
    """
    report = analyze_app(app)
    out: Dict[str, str] = {}
    for var_id, declared_loggable in report.declared.items():
        needed = report.recommended_loggable(var_id)
        if needed and not declared_loggable:
            out[var_id] = "MUST-be-loggable"
        elif not needed and declared_loggable:
            out[var_id] = "can-skip-logging"
        else:
            out[var_id] = "keep" if declared_loggable else "keep-unlogged"
    return out
