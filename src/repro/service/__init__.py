"""Fleet-scale audit service: N tenant streams over one shared DAG
scheduler, with backpressure and per-tenant quotas (DESIGN.md §13)."""

from repro.service.daemon import AuditService
from repro.service.http import StatusServer
from repro.service.pool import PlanJob, SharedDagPool
from repro.service.quota import TokenBucket
from repro.service.tenant import (
    EpochSource,
    TenantConfig,
    TenantStream,
    parse_tenant_spec,
)

__all__ = [
    "AuditService",
    "EpochSource",
    "PlanJob",
    "SharedDagPool",
    "StatusServer",
    "TenantConfig",
    "TenantStream",
    "TokenBucket",
    "parse_tenant_spec",
]
