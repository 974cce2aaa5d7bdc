"""The Karousos verifier: Audit = Preprocess + ReExec + Postprocess.

Implements Figures 14-21 of the paper (and the OOOAudit reference
procedure of Figure 22 in :mod:`repro.verifier.oooaudit`).  The audit
consumes a trusted trace and untrusted advice and either ACCEPTs or
REJECTs with a machine-readable reason.
"""

from repro.verifier.audit import STAGES, AuditResult, Auditor, audit
from repro.verifier.carry import CarryIn
from repro.verifier.dag import (
    NodeJournal,
    compile_plan,
    format_plan_text,
    validate_plan,
)
from repro.verifier.explain import (
    DivergenceReport,
    explain_rejection,
    report_from_result,
)

__all__ = [
    "STAGES",
    "AuditResult",
    "Auditor",
    "CarryIn",
    "DivergenceReport",
    "NodeJournal",
    "compile_plan",
    "format_plan_text",
    "validate_plan",
    "audit",
    "explain_rejection",
    "report_from_result",
]
