"""Lint findings and their presentation (text / JSON).

A :class:`Violation` pins one rule breach to an exact source coordinate;
a :class:`LintReport` aggregates them for an application together with
the per-handler footprint summaries the crosscheck layer consumes.

Severities: ``error`` marks a breach of the transpiler contract that
costs audit Completeness (section 5) -- the served execution could
diverge from what the verifier replays without the audit noticing;
``warn`` marks hazards and hygiene findings (dead emits, mutable-global
reads, unordered iteration) that deserve a look but cannot, alone,
silently defeat the audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

ERROR = "error"
WARN = "warn"


@dataclass(frozen=True)
class Violation:
    """One rule breach at one source location."""

    rule: str  # "R1".."R5"
    severity: str  # ERROR | WARN
    fid: str  # handler (or "handler>helper") the finding belongs to
    file: str
    line: int  # absolute 1-based source line
    col: int
    message: str

    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def sort_key(self) -> "tuple[str, int, str, int]":
        return (self.file, self.line, self.rule, self.col)


@dataclass
class LintReport:
    """All findings for one application."""

    app_name: str
    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    unparsed: List[str] = field(default_factory=list)  # fids without source

    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == ERROR]

    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == WARN]

    def by_rule(self, rule: str) -> List[Violation]:
        return [v for v in self.violations if v.rule == rule]

    @property
    def clean(self) -> bool:
        return not self.violations

    def fails(self, fail_on: str = ERROR) -> bool:
        """Should the lint gate fail, under the given threshold?"""
        if fail_on == WARN:
            return bool(self.violations)
        return bool(self.errors())

    # -- rendering --------------------------------------------------------

    def format_text(self, crosscheck: Optional[Any] = None) -> str:
        lines: List[str] = []
        for v in sorted(self.violations, key=lambda v: (v.file, v.line, v.col)):
            lines.append(
                f"{v.location()}: {v.rule} [{v.severity}] {v.fid}: {v.message}"
            )
        for v in sorted(self.suppressed, key=lambda v: (v.file, v.line, v.col)):
            lines.append(
                f"{v.location()}: {v.rule} [suppressed] {v.fid}: {v.message}"
            )
        for fid in self.unparsed:
            lines.append(f"{fid}: source unavailable; handler not analysed")
        if crosscheck is not None:
            lines.extend(crosscheck.format_text())
        n_err, n_warn = len(self.errors()), len(self.warnings())
        verdict = "clean" if self.clean else f"{n_err} error(s), {n_warn} warning(s)"
        suffix = f" ({len(self.suppressed)} suppressed)" if self.suppressed else ""
        lines.append(f"{self.app_name}: {verdict}{suffix}")
        return "\n".join(lines)

    def to_dict(self, crosscheck: Optional[Any] = None) -> Dict[str, Any]:
        """A deterministic JSON document: violations sorted by
        (file, line, rule), with per-rule counts in the summary block, so
        two runs over the same source diff byte-identically."""
        violations = sorted(self.violations, key=Violation.sort_key)
        suppressed = sorted(self.suppressed, key=Violation.sort_key)
        counts: Dict[str, int] = {}
        for v in violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        out: Dict[str, Any] = {
            "app": self.app_name,
            "clean": self.clean,
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "suppressed": len(suppressed),
                "by_rule": counts,
            },
            "violations": [dict(v.__dict__) for v in violations],
            "suppressed": [dict(v.__dict__) for v in suppressed],
            "unparsed": sorted(self.unparsed),
        }
        if crosscheck is not None:
            out["crosscheck"] = crosscheck.to_dict()
        return out

    def format_json(self, crosscheck: Optional[Any] = None) -> str:
        return json.dumps(self.to_dict(crosscheck), indent=2, sort_keys=True)
