"""Karousos: efficient auditing of event-driven web applications.

A complete Python reproduction of Tzialla et al., EuroSys 2024.  The
public API covers the full pipeline:

1. write an application against the KEM handler-context API
   (:class:`AppSpec`; see ``repro.apps`` for three complete examples);
2. serve a workload on a server -- unmodified, Karousos (advice
   collecting), or Orochi-JS -- via :func:`run_server`;
3. audit the resulting trusted trace against the untrusted advice with
   :func:`audit`.

>>> from repro import KarousosPolicy, Request, audit, run_server
>>> from repro.apps import motd_app
>>> run = run_server(motd_app(), [Request.make("r1", "get", day="mon")],
...                  KarousosPolicy())
>>> audit(motd_app(), run.trace, run.advice).accepted
True
"""

from repro.advice import Advice, advice_breakdown, advice_size_bytes
from repro.baselines import SequentialResult, sequential_reexecute
from repro.errors import (
    AuditRejected,
    KarousosError,
    ProgramError,
    TransactionAborted,
    TransactionRetry,
)
from repro.kem import (
    AppSpec,
    FifoScheduler,
    InitContext,
    LifoScheduler,
    RandomScheduler,
    Runtime,
    Scheduler,
)
from repro.server import (
    KarousosPolicy,
    OrochiPolicy,
    ServerRun,
    UnmodifiedPolicy,
    run_server,
)
from repro.store import IsolationLevel, KVStore
from repro.continuous import (
    AuditJournal,
    Checkpoint,
    CheckpointStore,
    ContinuousAuditor,
    Epoch,
    EpochSealer,
)
from repro.trace import Collector, Request, Trace
from repro.verifier import AuditResult, Auditor, audit
from repro.verifier.carry import CarryIn
from repro.verifier.oooaudit import ooo_audit

__version__ = "1.0.0"

__all__ = [
    "Advice",
    "advice_breakdown",
    "advice_size_bytes",
    "SequentialResult",
    "sequential_reexecute",
    "AuditRejected",
    "KarousosError",
    "ProgramError",
    "TransactionAborted",
    "TransactionRetry",
    "AppSpec",
    "InitContext",
    "Runtime",
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "KarousosPolicy",
    "OrochiPolicy",
    "UnmodifiedPolicy",
    "ServerRun",
    "run_server",
    "IsolationLevel",
    "KVStore",
    "Collector",
    "Request",
    "Trace",
    "AuditResult",
    "Auditor",
    "audit",
    "ooo_audit",
    "AuditJournal",
    "CarryIn",
    "Checkpoint",
    "CheckpointStore",
    "ContinuousAuditor",
    "Epoch",
    "EpochSealer",
    "__version__",
]
