"""The fleet service's pick policy over the shared ready-queue loop
(DESIGN.md §13).

One :class:`SharedDagPool` executes the node DAGs of *many* tenants'
epoch audits at once.  It is the audit engine's own loop
(:class:`~repro.verifier.dag.scheduler.Scheduler`: per-plan ready heaps,
one worker pool, deterministic ticks) with the service's answer to
"which plan's next node runs":

* **fair mode** (quotas on): round-robin over tenants with ready work;
  a re-execution node costs one token from the tenant's
  :class:`~repro.service.quota.TokenBucket`, everything else is free.
  When every ready tenant is token-blocked the pool refills all buckets
  (one *round*), so service rates converge to the quota ratios and a
  super-producer cannot starve a small tenant.
* **FIFO mode** (quotas off): the loop's base policy, strict
  job-admission order -- the head-of-line behaviour that *exhibits* the
  super-producer threat (a huge epoch admitted first delays everyone
  behind it by its full node count; the starvation benchmark measures
  exactly this).  FIFO never charges a bucket.

Correctness does not depend on the pick at all: within one plan, node
results are only *absorbed* by the loop (always in the admitting thread)
and merged by the engine in canonical group order later, so any cross-
or intra-tenant interleaving yields byte-identical per-tenant verdicts
(DESIGN.md §5).  Fairness buys latency, not different answers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.service.quota import TokenBucket
from repro.verifier.dag.plan import NODE_REEXEC
from repro.verifier.dag.scheduler import SCHEDULER_SERIAL, PlanJob, Scheduler


class SharedDagPool(Scheduler):
    """Weighted-fair execution of many plans over one worker pool."""

    def __init__(
        self,
        scheduler: str = SCHEDULER_SERIAL,
        jobs: int = 1,
        quotas: Optional[Dict[str, TokenBucket]] = None,
        fair: bool = True,
    ):
        super().__init__(scheduler, jobs=jobs)
        self.fair = fair
        self.quotas: Dict[str, TokenBucket] = quotas if quotas is not None else {}
        self.quota_rounds = 0
        self.throttled: Dict[str, int] = {}
        self._rr = 0  # round-robin cursor over tenant names

    def _charge(self, job: PlanJob, node: object) -> bool:
        """True if the node may run now (token taken when it costs one)."""
        if not self.fair or node.stage != NODE_REEXEC:
            return True
        bucket = self.quotas.get(job.tenant)
        if bucket is None or bucket.try_take():
            return True
        self.throttled[job.tenant] = self.throttled.get(job.tenant, 0) + 1
        return False

    def _pick(self) -> Optional[PlanJob]:
        if not self.fair:
            return super()._pick()
        candidates = self._runnable()
        if not candidates:
            return None
        # Round-robin over tenants; within a tenant, the earliest job's
        # minimal canonical node (= the solo serial order).
        tenants = sorted({j.tenant for j in candidates})
        for attempt in (0, 1):
            for offset in range(len(tenants)):
                tenant = tenants[(self._rr + offset) % len(tenants)]
                job = min(
                    (j for j in candidates if j.tenant == tenant),
                    key=lambda j: j.seq,
                )
                if self._charge(job, job.peek()):
                    self._rr = (self._rr + offset + 1) % len(tenants)
                    return job
            if attempt == 0:
                # Every ready tenant is token-blocked: round boundary.
                for bucket in self.quotas.values():
                    bucket.refill()
                self.quota_rounds += 1
        return None


__all__ = ["PlanJob", "SharedDagPool"]
