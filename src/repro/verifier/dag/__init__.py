"""The audit engine's execution DAG: plan compiler, node journal, and
the ready-queue loop (DESIGN.md §5).  The engine itself is
:class:`repro.verifier.audit.Auditor`."""

from repro.verifier.dag.journal import (
    NodeJournal,
    NodeJournalError,
    NodeJournalState,
)
from repro.verifier.dag.plan import (
    PLAN_SPEC,
    AuditPlan,
    PlanError,
    PlanNode,
    compile_plan,
    format_plan_text,
    single_epoch,
    validate_plan,
)
from repro.verifier.dag.scheduler import (
    SCHEDULER_PROCESS,
    SCHEDULER_SERIAL,
    SCHEDULERS,
    PlanAborted,
    PlanJob,
    Scheduler,
)

__all__ = [
    "PLAN_SPEC",
    "SCHEDULERS",
    "SCHEDULER_PROCESS",
    "SCHEDULER_SERIAL",
    "AuditPlan",
    "NodeJournal",
    "NodeJournalError",
    "NodeJournalState",
    "PlanAborted",
    "PlanError",
    "PlanJob",
    "PlanNode",
    "Scheduler",
    "compile_plan",
    "format_plan_text",
    "single_epoch",
    "validate_plan",
]
