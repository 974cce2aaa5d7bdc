"""The one ready-queue loop over compiled plans (DESIGN.md §5).

A :class:`Scheduler` executes any number of node DAGs at once -- a
single audit's plan, or every tenant's in-flight epoch plan in the fleet
service -- via Kahn's algorithm.  Each admitted :class:`PlanJob` holds
its plan's indegree map and ready heap; :meth:`Scheduler.pump` is the
loop: ask the *pick policy* which job's minimal ready node runs next,
run it (inline, or on the worker pool when the runner declares it
parallel-safe), hand the result back to the runner, promote newly
unblocked successors.

Pick policy: :meth:`Scheduler._pick` / :meth:`Scheduler._charge`.  The
base policy is strict admission order with no budget -- trivial for the
single plan :meth:`Scheduler.execute` runs, and the fleet service's FIFO
mode; :class:`repro.service.pool.SharedDagPool` overrides both with the
weighted-fair round-robin over tenants and per-tenant token buckets.
Within one job the ready heap is keyed by the node's canonical index
(its position in the plan's node order), or by an injected ``order_key``
so the determinism tests can shuffle the ready queue.

The scheduler knows nothing about audits; each job supplies a *runner*:

* ``execute(node) -> outcome`` -- run one node in this process;
* ``absorb(node, outcome)`` -- integrate an outcome; always called in
  the scheduling thread, so runners need no locking.  Raising
  :class:`PlanAborted` stops that job (and only that job);
* ``parallel_safe(node)`` -- may this node leave the scheduling process;
* ``remote_spec(node)`` -- the worker hand-off: a picklable
  ``(fn, args)`` whose call in a worker returns the node's finished
  outcome, or None to run the node inline (inputs that cannot cross a
  process boundary -- no failure implied);
* ``on_worker_failure(node)`` -- a worker died mid-node (killed process,
  broken pool, unpicklable result).  That is infrastructure, not
  evidence about the node's inputs: runners re-execute in-process so the
  result never depends on worker health.

Backends: ``serial`` (everything inline, the reference order) and
``process`` (a worker pool shared by every admitted plan).

Any schedule a runner observes is verdict-identical: outcomes are only
*absorbed* here and merged by the runner in canonical group order later
(DESIGN.md §5 states the value-isolation argument once).  Time is
counted in deterministic *ticks* (one absorbed node = one tick), so the
service's latency bounds hold under any wall-clock conditions.
"""

from __future__ import annotations

import heapq
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SCHEDULER_SERIAL = "serial"
SCHEDULER_PROCESS = "process"
SCHEDULERS = (SCHEDULER_SERIAL, SCHEDULER_PROCESS)


class PlanAborted(Exception):
    """An epoch rejected (or crashed); stop scheduling the rest of its
    plan.  Raised out of a runner's ``absorb``; the loop catches it per
    job, so one tenant's rejection never disturbs another's plan."""


class PlanJob:
    """One plan in the loop: its Kahn bookkeeping and ready heap."""

    def __init__(
        self,
        tenant: str,
        runner: object,
        nodes: Sequence[object],
        edges: Sequence[Tuple[str, str]],
        seq: int = 0,
        tag: object = None,
        order_key: Optional[Callable[[object], object]] = None,
    ):
        self.tenant = tenant
        self.runner = runner
        self.seq = seq  # admission order (the base policy's sort key)
        self.tag = tag  # opaque caller context (the epoch, typically)
        self._by_id = {n.node_id: n for n in nodes}
        self._canonical = {n.node_id: i for i, n in enumerate(nodes)}
        self._order_key = order_key
        self._indegree: Dict[str, int] = {nid: 0 for nid in self._by_id}
        self._successors: Dict[str, List[str]] = {nid: [] for nid in self._by_id}
        for src, dst in edges:
            self._indegree[dst] += 1
            self._successors[src].append(dst)
        self._ready: List[tuple] = []
        for node in nodes:
            if self._indegree[node.node_id] == 0:
                self.push(node)
        self.remaining = len(self._by_id)
        self.outstanding = 0  # futures in flight for this job
        self.aborted = False
        self.admitted_tick: Optional[int] = None
        self.completed_tick: Optional[int] = None

    def key(self, node: object) -> tuple:
        index = self._canonical[node.node_id]
        if self._order_key is not None:
            return (self._order_key(node), index)
        return (index,)

    @property
    def ready(self) -> bool:
        return bool(self._ready)

    @property
    def done(self) -> bool:
        if self.outstanding:
            return False
        return self.aborted or self.remaining == 0

    def push(self, node: object) -> None:
        heapq.heappush(self._ready, self.key(node) + (node,))

    def peek(self) -> Optional[object]:
        return self._ready[0][-1] if self._ready else None

    def pop(self) -> object:
        return heapq.heappop(self._ready)[-1]

    def ready_nodes(self) -> List[object]:
        """Every ready node, in key order."""
        return [entry[-1] for entry in sorted(self._ready)]

    def take(self, nodes: Sequence[object]) -> None:
        """Remove ``nodes`` (being shipped to the pool) from the heap."""
        gone = {n.node_id for n in nodes}
        self._ready = [e for e in self._ready if e[-1].node_id not in gone]
        heapq.heapify(self._ready)

    def complete(self, node: object) -> None:
        """Mark one node absorbed; promote newly unblocked successors."""
        self.remaining -= 1
        for succ in self._successors[node.node_id]:
            self._indegree[succ] -= 1
            if self._indegree[succ] == 0:
                self.push(self._by_id[succ])

    def abort(self) -> None:
        self.aborted = True
        self._ready.clear()


class Scheduler:
    """The ready-queue loop: many plans, one worker pool, one policy."""

    def __init__(
        self,
        name: str = SCHEDULER_SERIAL,
        jobs: int = 1,
        order_key: Optional[Callable[[object], object]] = None,
    ):
        if name not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {name!r}")
        if name == SCHEDULER_SERIAL and jobs > 1:
            raise ValueError(f"the serial scheduler runs one job, not {jobs}")
        self.name = name
        self.jobs = max(1, int(jobs))
        self.parallel = self.jobs > 1
        self.order_key = order_key
        self.ticks = 0
        self._jobs: List[PlanJob] = []
        self._seq = 0
        self._pool = None
        self._futures: Dict[object, Tuple[PlanJob, object]] = {}

    # -- admission ---------------------------------------------------------

    def admit(
        self,
        tenant: str,
        runner: object,
        nodes: Sequence[object],
        edges: Sequence[Tuple[str, str]],
        tag: object = None,
    ) -> PlanJob:
        job = PlanJob(tenant, runner, nodes, edges, seq=self._seq, tag=tag,
                      order_key=self.order_key)
        self._seq += 1
        job.admitted_tick = self.ticks
        self._jobs.append(job)
        return job

    def take_done(self) -> List[PlanJob]:
        """Remove and return every finished job (admission order)."""
        done = [j for j in self._jobs if j.done]
        self._jobs = [j for j in self._jobs if not j.done]
        for job in done:
            if job.completed_tick is None:
                job.completed_tick = self.ticks
        return done

    @property
    def idle(self) -> bool:
        return not self._jobs and not self._futures

    def execute(
        self,
        nodes: Sequence[object],
        edges: Sequence[Tuple[str, str]],
        runner: object,
    ) -> None:
        """Run one plan to completion (or to its :class:`PlanAborted`)."""
        job = self.admit("", runner, nodes, edges)
        try:
            self.pump()
        finally:
            self.shutdown()
        if job.remaining and not job.aborted:
            raise RuntimeError(
                f"scheduler deadlock: {job.remaining} nodes never became "
                "ready (cyclic edges should have failed pre-flight)"
            )

    # -- the loop ----------------------------------------------------------

    def pump(
        self,
        max_nodes: Optional[int] = None,
        launch: bool = True,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Execute ready nodes until nothing is runnable (or
        ``max_nodes`` absorbed).  ``stop`` is polled before each
        launch so a SIGTERM interrupts *between nodes*, not between
        pump batches -- that is what makes the drain node-granular.
        ``launch=False`` is the drain mode: no new work starts,
        outstanding futures are still absorbed (and journaled) so a
        restart resumes past them."""
        executed = 0
        while max_nodes is None or executed < max_nodes:
            if launch and stop is not None and stop():
                break
            if not launch:
                if not self._futures:
                    break
                executed += self._absorb_completed(block=True)
                continue
            if self.parallel:
                self._fan_out()
            job = self._pick()
            if job is not None:
                self._run_inline(job, job.pop())
                executed += 1
            if self._futures:
                executed += self._absorb_completed(block=job is None)
            elif job is None:
                break
        return executed

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- pick policy (overridden by the fleet service) ----------------------

    def _runnable(self) -> List[PlanJob]:
        """Jobs with a ready node, in admission order."""
        return [j for j in self._jobs if j.ready and not j.aborted]

    def _pick(self) -> Optional[PlanJob]:
        """The job whose minimal ready node runs next: strict admission
        order (head-of-line blocking, by design)."""
        for job in self._jobs:  # kept in admission order
            if job.ready and not job.aborted:
                return job
        return None

    def _charge(self, job: PlanJob, node: object) -> bool:
        """May ``node`` run now?  The base policy has no budget."""
        return True

    # -- execution ---------------------------------------------------------

    def _run_inline(self, job: PlanJob, node: object) -> None:
        self._absorb(job, node, job.runner.execute(node))

    def _fan_out(self) -> None:
        """Ship ready parallel-safe nodes the policy has budget for to
        the worker pool, in admission order.  A lone such node with
        nothing in flight runs inline: a worker would only add the
        hand-off."""
        for job in self._runnable():
            safe = [n for n in job.ready_nodes() if job.runner.parallel_safe(n)]
            if len(safe) + job.outstanding < 2:
                continue
            shipped = []
            for node in safe:
                if not self._charge(job, node):
                    break  # out of budget this round
                shipped.append(node)
            job.take(shipped)
            for node in shipped:
                if job.aborted:
                    break  # an inline fallback rejected this plan
                self._ship(job, node)

    def _ship(self, job: PlanJob, node: object) -> None:
        try:
            fut = self._submit(job.runner, node)
        except Exception:
            # Pool already broken by a dead worker: recover
            # deterministically in-process.
            outcome = job.runner.on_worker_failure(node)
        else:
            if fut is None:
                self._run_inline(job, node)
            else:
                self._futures[fut] = (job, node)
                job.outstanding += 1
            return
        self._absorb(job, node, outcome)

    def _submit(self, runner: object, node: object):
        """A future for ``node`` on the worker pool, or None when the
        runner keeps it in this process."""
        spec = runner.remote_spec(node)
        if spec is None:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        fn, args = spec
        return self._pool.submit(fn, *args)

    def _absorb_completed(self, block: bool) -> int:
        done, _ = wait(
            set(self._futures),
            timeout=None if block else 0,
            return_when=FIRST_COMPLETED,
        )

        def order(fut):
            job, node = self._futures[fut]
            return (job.seq, job.key(node))

        absorbed = 0
        for fut in sorted(done, key=order):
            job, node = self._futures.pop(fut)
            job.outstanding -= 1
            if job.aborted:
                continue  # plan already rejected; result is irrelevant
            try:
                outcome = fut.result()
            except Exception:
                outcome = job.runner.on_worker_failure(node)
            self._absorb(job, node, outcome)
            absorbed += 1
        return absorbed

    def _absorb(self, job: PlanJob, node: object, outcome: object) -> None:
        self.ticks += 1
        try:
            job.runner.absorb(node, outcome)
        except PlanAborted:
            job.abort()
        else:
            job.complete(node)
        if job.done and job.completed_tick is None:
            job.completed_tick = self.ticks


__all__ = [
    "SCHEDULERS",
    "SCHEDULER_PROCESS",
    "SCHEDULER_SERIAL",
    "PlanAborted",
    "PlanJob",
    "Scheduler",
]
