"""The audit plan compiler: one run, one explicit DAG (DESIGN.md §5).

Following the ELSPETH execution-graph contract (SNIPPETS.md §3), every
audit run is compiled -- *before* any node executes -- into an explicit
DAG of typed nodes.  The DAG is the single source of truth for what a
run will do: the scheduler (:mod:`repro.verifier.dag.scheduler`)
topologically executes it, the node journal
(:mod:`repro.verifier.dag.journal`) keys completion records by node ID,
and resume (:mod:`repro.verifier.audit`) replays completed nodes by
looking their IDs up again.  If it is not in the plan, it cannot happen.

Node types, per epoch:

* ``decode``, ``preprocess``, ``isolation``, ``postprocess``,
  ``checkpoint`` -- one each (the paper's Figure 14 stages);
* ``dedup`` -- the canonical-order digest/fetch barrier, present only
  when deduplicated re-execution is armed (it is the node every
  dedup-cache dependency edge flows through);
* ``reexec`` -- one per re-execution group (the unit of fan-out and of
  crash-resume granularity);
* ``merge`` -- the canonical-order reduction + final checks (surfaces
  as stage ``reexec`` in verdicts).

Node IDs are structural -- ``<epoch>/<stage>`` or
``<epoch>/reexec/<group tag>`` -- so naming a node costs nothing and a
journal record reads as what it is.  What pins *content* is the plan
digest: SHA-256 over the plan document, which embeds each epoch's digest
(the exact trace + advice frames at rest) and the compile options (which, with
the advice, determine every group's members).  Two runs over the same
inputs compile to byte-identical plans with equal digests -- which is
what makes a node journal written by a killed run addressable from the
resumed one -- and a journal is refused against any other digest.  An
epoch read from storage brings its digest along (hashed frame by frame
as it was decoded); for one built in memory the digest re-encodes the
whole trace and advice, so it is computed on first use, by its two
consumers: the node journal's resume guard and the printed plan
document (``repro plan``).

Edges encode stage order -- per epoch, ``barrier -> every reexec ->
merge``, the barrier being ``isolation`` or, when armed, the ``dedup``
node every dedup-cache dependency flows through -- and the carry-in
chain (``checkpoint(k-1) -> preprocess(k)``).  Nothing orders the groups
of an epoch against each other: the merge replays their journals in
canonical order whatever the schedule was.

:func:`validate_plan` is the pre-flight gate: spec-version match,
edge-endpoint existence, acyclicity, reachability of every node to the
terminal checkpoint, carry-in completeness (contiguous epochs, each
chained to its predecessor), exactly-once group and member coverage, and
node IDs naming what their nodes hold.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import KarousosError
from repro.storage.records import canonical_json

PLAN_SPEC = "repro.plan/3"

NODE_DECODE = "decode"
NODE_PREPROCESS = "preprocess"
NODE_ISOLATION = "isolation"
NODE_DEDUP = "dedup"
NODE_REEXEC = "reexec"
NODE_MERGE = "merge"
NODE_POSTPROCESS = "postprocess"
NODE_CHECKPOINT = "checkpoint"

# Deterministic intra-epoch ordering of node stages (the canonical
# ready-queue order; also the verdict's stage progression).
STAGE_ORDER = (
    NODE_DECODE,
    NODE_PREPROCESS,
    NODE_ISOLATION,
    NODE_DEDUP,
    NODE_REEXEC,
    NODE_MERGE,
    NODE_POSTPROCESS,
    NODE_CHECKPOINT,
)
_STAGE_RANK = {stage: rank for rank, stage in enumerate(STAGE_ORDER)}

# How a node reports itself in AuditResult.stage and in the per-stage
# timing fold: the dedup barrier and the merge reduction are both parts
# of Figure 14's ReExec.
PIPELINE_STAGE = {
    NODE_DEDUP: NODE_REEXEC,
    NODE_MERGE: NODE_REEXEC,
}


class PlanError(KarousosError):
    """A plan failed to compile or failed pre-flight validation."""


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def epoch_digest(trace: object, advice: object) -> str:
    """SHA-256 over the epoch's stored content frames.

    The exact bytes :func:`repro.continuous.codec.write_epoch_stored`
    puts at rest for the trace events and the advice bundle, so the
    digest of a decoded epoch equals the digest taken before it was
    written.  It pins exactly what the epoch's audit consumes; two epochs
    with the same digest would audit identically, so node IDs derived
    from it are stable across runs over the same inputs.
    """
    from repro.continuous.codec import iter_epoch_content_frames
    from repro.storage.records import encode_record

    sha = hashlib.sha256()
    for rtype, payload in iter_epoch_content_frames(trace, advice):
        sha.update(encode_record(rtype, payload))
    return sha.hexdigest()


def node_id(epoch: int, stage: str, group: Optional[str] = None) -> str:
    """The structural node ID: ``<epoch>/<stage>[/<group tag>]``."""
    if group is None:
        return f"{epoch}/{stage}"
    return f"{epoch}/{stage}/{group}"


class PlanNode(NamedTuple):
    """One typed node of the execution DAG."""

    node_id: str
    stage: str
    epoch: int
    group: Optional[str] = None  # the group tag, reexec nodes only
    rids: Tuple[str, ...] = ()

    @property
    def pipeline_stage(self) -> str:
        return PIPELINE_STAGE.get(self.stage, self.stage)

    @property
    def rank(self) -> Tuple[int, int]:
        """``(epoch, stage)``: every edge must advance it."""
        return (self.epoch, _STAGE_RANK.get(self.stage, -1))

    def __repr__(self) -> str:
        group = f" group={self.group}" if self.group is not None else ""
        return (
            f"<PlanNode {self.stage} epoch={self.epoch}{group}>"
        )


@dataclass
class EpochPlanMeta:
    """Per-epoch summary carried by the plan document.  ``requests`` and
    ``digest`` walk the whole trace, so they are computed when a document
    or the journal's resume guard asks.  ``content_digest`` is the
    epoch-like's own, taken where its stored frames were read; an epoch
    that never was at rest has none and is encoded to be hashed."""

    index: int
    groups: int
    trace: object = field(repr=False)
    advice: object = field(repr=False)
    content_digest: Optional[str] = None

    @property
    def requests(self) -> int:
        return len(self.trace.request_ids())

    @functools.cached_property
    def digest(self) -> str:
        return self.content_digest or epoch_digest(self.trace, self.advice)


@dataclass
class AuditPlan:
    """The compiled DAG for one audit run."""

    spec: str
    app: str
    options: Dict[str, object]
    epochs: List[EpochPlanMeta]
    nodes: Dict[str, PlanNode]
    # Canonical order: (epoch, stage rank, group tag).  This is the
    # deterministic ready-queue tiebreak and the serial execution order.
    node_order: List[str] = field(default_factory=list)
    edges: List[Tuple[str, str]] = field(default_factory=list)

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 over the plan document (epoch digests included)."""
        return _sha256(canonical_json(self.to_doc(with_digest=False)))

    def ordered_nodes(self) -> List[PlanNode]:
        return [self.nodes[nid] for nid in self.node_order]

    def nodes_by_epoch(self) -> Dict[int, List[PlanNode]]:
        """Canonical-order node lists per epoch, in one pass."""
        out: Dict[int, List[PlanNode]] = {}
        for node in self.ordered_nodes():
            out.setdefault(node.epoch, []).append(node)
        return out

    def node(self, epoch: int, stage: str, group: Optional[str] = None
             ) -> Optional[PlanNode]:
        return self.nodes.get(node_id(epoch, stage, group))

    # -- serialization (the PLAN_SPEC document) -------------------------

    def to_doc(self, with_digest: bool = True) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "spec": self.spec,
            "app": self.app,
            "options": self.options,
            "epochs": [
                {
                    "index": e.index,
                    "digest": e.digest,
                    "requests": e.requests,
                    "groups": e.groups,
                }
                for e in self.epochs
            ],
            "nodes": [
                {
                    "id": n.node_id,
                    "stage": n.stage,
                    "epoch": n.epoch,
                    "group": n.group,
                    "members": len(n.rids),
                }
                for n in self.ordered_nodes()
            ],
            "edges": [[src, dst] for src, dst in sorted(self.edges)],
        }
        if with_digest:
            doc["digest"] = self.digest
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


def epoch_groups(advice: object, singleton_groups: bool) -> Dict[str, List[str]]:
    """The epoch's re-execution groups (singleton OOOAudit or the
    advice's grouping)."""
    if singleton_groups:
        return {rid: [rid] for rid in advice.tags}
    return advice.groups()


def compile_plan(
    app: str,
    epochs: Sequence[object],
    *,
    singleton_groups: bool = False,
    dedup: bool = False,
) -> AuditPlan:
    """Compile an audit request into an :class:`AuditPlan`.

    ``epochs`` is a sequence of epoch-like objects (``.index``,
    ``.trace``, ``.advice``, optionally ``.content_digest``) -- a
    single-epoch list for a plain audit, a sealed sequence for a
    continuous one.
    """
    if not epochs:
        raise PlanError("cannot compile a plan over zero epochs")
    plan = AuditPlan(
        spec=PLAN_SPEC,
        app=app,
        options={
            "singleton_groups": bool(singleton_groups),
            "dedup": bool(dedup),
        },
        epochs=[],
        nodes={},
    )

    def add_node(node: PlanNode) -> PlanNode:
        if node.node_id in plan.nodes:
            raise PlanError(
                f"duplicate node id {node.node_id!r} "
                f"({node.stage}, epoch {node.epoch})"
            )
        plan.nodes[node.node_id] = node
        plan.node_order.append(node.node_id)
        return node

    prev_checkpoint: Optional[PlanNode] = None
    for epoch in epochs:
        index = int(epoch.index)
        advice = epoch.advice
        if advice is None:
            raise PlanError(f"epoch {index} carries no advice")
        groups = epoch_groups(advice, singleton_groups)
        plan.epochs.append(
            EpochPlanMeta(
                index=index,
                groups=len(groups),
                trace=epoch.trace,
                advice=advice,
                content_digest=getattr(epoch, "content_digest", None),
            )
        )

        def stage_node(stage: str) -> PlanNode:
            return add_node(
                PlanNode(node_id=node_id(index, stage), stage=stage,
                         epoch=index)
            )

        decode = stage_node(NODE_DECODE)
        preprocess = stage_node(NODE_PREPROCESS)
        isolation = stage_node(NODE_ISOLATION)
        barrier = stage_node(NODE_DEDUP) if dedup else isolation
        plan.edges.append((decode.node_id, preprocess.node_id))
        plan.edges.append((preprocess.node_id, isolation.node_id))
        if dedup:
            plan.edges.append((isolation.node_id, barrier.node_id))
        if prev_checkpoint is not None:
            # The carry-in chain: epoch k's preprocess consumes the
            # state checkpoint k-1 proved.
            plan.edges.append((prev_checkpoint.node_id, preprocess.node_id))

        reexec_nodes = [
            add_node(
                PlanNode(
                    node_id=node_id(index, NODE_REEXEC, tag),
                    stage=NODE_REEXEC,
                    epoch=index,
                    group=tag,
                    rids=tuple(groups[tag]),
                )
            )
            for tag in sorted(groups)
        ]
        merge = stage_node(NODE_MERGE)
        postprocess = stage_node(NODE_POSTPROCESS)
        checkpoint = stage_node(NODE_CHECKPOINT)
        for node in reexec_nodes:
            plan.edges.append((barrier.node_id, node.node_id))
            plan.edges.append((node.node_id, merge.node_id))
        if not reexec_nodes:
            plan.edges.append((barrier.node_id, merge.node_id))
        plan.edges.append((merge.node_id, postprocess.node_id))
        plan.edges.append((postprocess.node_id, checkpoint.node_id))
        prev_checkpoint = checkpoint
    return plan


# -- pre-flight validation -----------------------------------------------------


def validate_plan(plan: AuditPlan) -> None:
    """The pre-flight gate; raises :class:`PlanError` on the first
    violated invariant.  Runs before any node executes."""
    if plan.spec != PLAN_SPEC:
        raise PlanError(
            f"plan spec {plan.spec!r} does not match verifier spec "
            f"{PLAN_SPEC!r}"
        )
    if not plan.epochs:
        raise PlanError("plan contains no epochs")
    if len(plan.node_order) != len(plan.nodes):
        raise PlanError("node order and node set disagree")
    for src, dst in plan.edges:
        if src not in plan.nodes or dst not in plan.nodes:
            raise PlanError(
                f"edge ({src!r}, {dst!r}) references an unknown node"
            )

    # Acyclicity, by the stronger invariant compilation maintains: every
    # edge advances (epoch, stage order), so no path can return.
    edge_set = set(plan.edges)
    feeders: Dict[str, List[str]] = {nid: [] for nid in plan.node_order}
    for src, dst in edge_set:
        if not plan.nodes[src].rank < plan.nodes[dst].rank:
            raise PlanError(
                f"plan is cyclic: edge {src!r} -> {dst!r} does not advance "
                "(epoch, stage, wave)"
            )
        feeders[dst].append(src)

    # Epoch contiguity + carry-in completeness.
    indices = [e.index for e in plan.epochs]
    if sorted(indices) != indices or len(set(indices)) != len(indices):
        raise PlanError(f"epoch indices out of order: {indices}")
    for a, b in zip(indices, indices[1:]):
        if b != a + 1:
            raise PlanError(f"epoch indices not contiguous: {a} -> {b}")
    for prev_meta, meta in zip(plan.epochs, plan.epochs[1:]):
        src = plan.node(prev_meta.index, NODE_CHECKPOINT)
        dst = plan.node(meta.index, NODE_PREPROCESS)
        if src is None or dst is None or (src.node_id, dst.node_id) not in edge_set:
            raise PlanError(
                f"carry-in incomplete: no checkpoint({prev_meta.index}) -> "
                f"preprocess({meta.index}) edge"
            )

    # Reachability: every node must feed the terminal checkpoint (a node
    # that feeds nothing is work the plan claims but no verdict consumes).
    terminal = plan.node(plan.epochs[-1].index, NODE_CHECKPOINT)
    if terminal is None:
        raise PlanError("plan has no terminal checkpoint node")
    reached = {terminal.node_id}
    frontier = [terminal.node_id]
    while frontier:
        for feeder in feeders[frontier.pop()]:
            if feeder not in reached:
                reached.add(feeder)
                frontier.append(feeder)
    unreachable = [nid for nid in plan.node_order if nid not in reached]
    if unreachable:
        node = plan.nodes[unreachable[0]]
        raise PlanError(
            f"{len(unreachable)} nodes cannot reach the terminal "
            f"checkpoint (first: {node.stage} epoch {node.epoch})"
        )

    # Exactly-once coverage of groups and of their members, and every
    # node ID must name what its node holds.
    by_epoch = plan.nodes_by_epoch()
    for meta in plan.epochs:
        nodes = by_epoch.get(meta.index, [])
        reexec = [n for n in nodes if n.stage == NODE_REEXEC]
        tags = [n.group for n in reexec]
        if len(tags) != len(set(tags)) or len(tags) != meta.groups:
            raise PlanError(
                f"epoch {meta.index}: reexec nodes cover {len(tags)} groups, "
                f"expected {meta.groups} exactly once"
            )
        members = [rid for n in reexec for rid in n.rids]
        if len(members) != len(set(members)):
            raise PlanError(
                f"epoch {meta.index}: a request is a member of two groups"
            )
        for node in nodes:
            if node.node_id != node_id(node.epoch, node.stage, node.group):
                raise PlanError(
                    f"node id mismatch for {node.stage} in epoch "
                    f"{meta.index}: {node.node_id!r} does not name its node"
                )


# -- text rendering (repro plan --format text) ---------------------------------


def format_plan_text(plan: AuditPlan) -> str:
    lines = [
        f"plan {plan.digest[:16]}  (spec {plan.spec}, app {plan.app})",
        f"options: {canonical_json(plan.options)}",
        f"{len(plan.epochs)} epoch(s), {len(plan.nodes)} nodes, "
        f"{len(plan.edges)} edges",
    ]
    by_epoch = plan.nodes_by_epoch()
    for meta in plan.epochs:
        lines.append(
            f"epoch {meta.index}  digest {meta.digest[:16]}  "
            f"{meta.requests} requests, {meta.groups} groups"
        )
        for node in by_epoch.get(meta.index, []):
            detail = ""
            if node.group is not None:
                detail = f"  ({len(node.rids)} rids)"
            lines.append(f"  {node.node_id}{detail}")
    return "\n".join(lines)


@dataclass(frozen=True)
class SingleEpoch:
    """A minimal epoch-like wrapper for plain (non-continuous) audits."""

    index: int
    trace: object
    advice: object


def single_epoch(index: int, trace: object, advice: object) -> SingleEpoch:
    return SingleEpoch(index=index, trace=trace, advice=advice)


__all__: Iterable[str] = [
    "PLAN_SPEC",
    "STAGE_ORDER",
    "AuditPlan",
    "EpochPlanMeta",
    "PlanError",
    "PlanNode",
    "compile_plan",
    "epoch_digest",
    "epoch_groups",
    "format_plan_text",
    "node_id",
    "single_epoch",
    "validate_plan",
]
