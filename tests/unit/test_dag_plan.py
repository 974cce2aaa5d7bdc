"""Unit tests for the audit plan compiler (repro.verifier.dag.plan):
deterministic compilation, structural node IDs under a content-pinning
plan digest, DAG structure, and the pre-flight validation gate."""

import json

import pytest

from repro.apps import motd_app
from repro.continuous import slice_epochs
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.verifier.dag import compile_plan, format_plan_text, validate_plan
from repro.verifier.dag.plan import (
    NODE_CHECKPOINT,
    NODE_DEDUP,
    NODE_MERGE,
    NODE_PREPROCESS,
    NODE_REEXEC,
    PLAN_SPEC,
    STAGE_ORDER,
    PlanError,
    epoch_digest,
    node_id,
    single_epoch,
)
from repro.workload import motd_workload

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def served():
    run = run_server(
        motd_app(),
        motd_workload(12, mix="mixed", seed=7),
        KarousosPolicy(),
        scheduler=RandomScheduler(3),
        concurrency=1,  # quiescent cut points for the multi-epoch tests
    )
    return run


def _plan(run, **kwargs):
    return compile_plan(
        "motd", [single_epoch(0, run.trace, run.advice)], **kwargs
    )


class TestCompilation:
    def test_same_inputs_compile_to_identical_plans(self, served):
        a = _plan(served)
        b = _plan(served)
        assert a.digest == b.digest
        assert a.node_order == b.node_order
        assert a.edges == b.edges
        assert a.to_json() == b.to_json()

    def test_options_change_the_digest(self, served):
        base = _plan(served)
        assert _plan(served, singleton_groups=True).digest != base.digest
        assert _plan(served, dedup=True).digest != base.digest

    def test_node_ids_follow_the_spec(self, served):
        """Every node ID is ``<epoch>/<stage>[/<group>]``, and looks its
        node up again."""
        plan = _plan(served)
        validate_plan(plan)
        for node in plan.ordered_nodes():
            expected = f"0/{node.stage}"
            if node.stage == NODE_REEXEC:
                expected += f"/{node.group}"
            assert node.node_id == expected
            assert node.node_id == node_id(0, node.stage, node.group)
            assert plan.node(0, node.stage, node.group) is node

    def test_inputs_change_the_digest_not_the_ids(self, served):
        """Content is pinned by the plan digest (what the journal's
        resume guard compares), not by the node IDs."""
        base = _plan(served)
        other = compile_plan(
            "motd",
            [single_epoch(0, served.trace.with_response(
                served.trace.request_ids()[0], {"status": "other"}
            ), served.advice)],
        )
        assert other.node_order == base.node_order
        assert other.digest != base.digest

    def test_structure_one_node_per_stage_one_per_group(self, served):
        plan = _plan(served)
        stages = [n.stage for n in plan.ordered_nodes()]
        for stage in STAGE_ORDER:
            if stage in (NODE_DEDUP,):
                assert stages.count(stage) == 0  # dedup off
            elif stage == NODE_REEXEC:
                assert stages.count(stage) == plan.epochs[0].groups
            else:
                assert stages.count(stage) == 1
        tags = sorted(
            n.group for n in plan.ordered_nodes() if n.stage == NODE_REEXEC
        )
        assert tags == sorted(served.advice.groups())

    def test_dedup_arms_the_barrier_node(self, served):
        plan = _plan(served, dedup=True)
        validate_plan(plan)
        barrier = plan.node(0, NODE_DEDUP)
        assert barrier is not None
        # Every reexec node depends on the barrier.
        edges = set(plan.edges)
        reexec = [n for n in plan.ordered_nodes() if n.stage == NODE_REEXEC]
        assert reexec
        for node in reexec:
            assert (barrier.node_id, node.node_id) in edges

    def test_singleton_groups_one_node_per_request(self, served):
        plan = _plan(served, singleton_groups=True)
        validate_plan(plan)
        reexec = [n for n in plan.ordered_nodes() if n.stage == NODE_REEXEC]
        assert len(reexec) == len(served.advice.tags)
        assert all(len(n.rids) == 1 for n in reexec)

    def test_plan_document_round_trips(self, served):
        plan = _plan(served)
        doc = json.loads(plan.to_json())
        assert doc["spec"] == PLAN_SPEC
        assert doc["digest"] == plan.digest
        assert len(doc["nodes"]) == len(plan.nodes)
        assert len(doc["edges"]) == len(plan.edges)

    def test_zero_epochs_refused(self):
        with pytest.raises(PlanError, match="zero epochs"):
            compile_plan("motd", [])


class TestMultiEpoch:
    def test_carry_in_chain_is_compiled(self, served):
        epochs = slice_epochs(served.trace, served.advice, 4)
        assert len(epochs) > 1
        plan = compile_plan("motd", epochs)
        validate_plan(plan)
        edges = set(plan.edges)
        for prev, meta in zip(plan.epochs, plan.epochs[1:]):
            src = plan.node(prev.index, NODE_CHECKPOINT)
            dst = plan.node(meta.index, NODE_PREPROCESS)
            assert (src.node_id, dst.node_id) in edges
        # ... and nothing else crosses an epoch boundary.
        crossing = [
            (s, d) for s, d in edges
            if plan.nodes[s].epoch != plan.nodes[d].epoch
        ]
        assert len(crossing) == len(plan.epochs) - 1

    def test_epoch_digests_pin_distinct_inputs(self, served):
        epochs = slice_epochs(served.trace, served.advice, 4)
        digests = [epoch_digest(e.trace, e.advice) for e in epochs]
        assert len(set(digests)) == len(digests)


class TestValidation:
    def test_valid_plan_passes(self, served):
        validate_plan(_plan(served))

    def test_spec_mismatch_refused(self, served):
        plan = _plan(served)
        plan.spec = "repro.plan/0"
        with pytest.raises(PlanError, match="spec"):
            validate_plan(plan)

    def test_unknown_edge_endpoint_refused(self, served):
        plan = _plan(served)
        plan.edges.append(("0/no-such-stage", plan.node_order[0]))
        with pytest.raises(PlanError, match="unknown node"):
            validate_plan(plan)

    def test_cycle_refused(self, served):
        plan = _plan(served)
        last, first = plan.node_order[-1], plan.node_order[0]
        plan.edges.append((last, first))
        with pytest.raises(PlanError, match="cyclic"):
            validate_plan(plan)

    def test_edge_between_groups_refused(self, served):
        """Nothing orders an epoch's groups against each other; an edge
        that claims to does not advance (epoch, stage)."""
        plan = _plan(served)
        first, second = [
            n.node_id for n in plan.ordered_nodes() if n.stage == NODE_REEXEC
        ][:2]
        plan.edges.append((first, second))
        with pytest.raises(PlanError, match="cyclic"):
            validate_plan(plan)

    def test_missing_carry_edge_refused(self, served):
        epochs = slice_epochs(served.trace, served.advice, 4)
        plan = compile_plan("motd", epochs)
        src = plan.node(0, NODE_CHECKPOINT)
        dst = plan.node(1, NODE_PREPROCESS)
        plan.edges.remove((src.node_id, dst.node_id))
        with pytest.raises(PlanError, match="carry-in incomplete"):
            validate_plan(plan)

    def test_unreachable_node_refused(self, served):
        plan = _plan(served)
        merge = plan.node(0, NODE_MERGE)
        # Orphan one reexec node from the merge: it can no longer feed
        # the terminal checkpoint.
        victim = next(
            n for n in plan.ordered_nodes() if n.stage == NODE_REEXEC
        )
        plan.edges.remove((victim.node_id, merge.node_id))
        with pytest.raises(PlanError, match="terminal"):
            validate_plan(plan)

    def test_group_coverage_gap_refused(self, served):
        plan = _plan(served)
        victim = next(
            nid for nid in plan.node_order
            if plan.nodes[nid].stage == NODE_REEXEC
        )
        plan.node_order.remove(victim)
        del plan.nodes[victim]
        plan.edges = [
            (s, d) for s, d in plan.edges if victim not in (s, d)
        ]
        with pytest.raises(PlanError, match="groups"):
            validate_plan(plan)

    def test_tampered_node_content_refused(self, served):
        plan = _plan(served)
        victim, other = [
            n for n in plan.ordered_nodes() if n.stage == NODE_REEXEC
        ][:2]
        plan.nodes[victim.node_id] = victim._replace(group="forged")
        with pytest.raises(PlanError, match="does not name its node"):
            validate_plan(plan)
        plan.nodes[victim.node_id] = victim._replace(
            rids=victim.rids + other.rids[:1]
        )
        with pytest.raises(PlanError, match="member of two groups"):
            validate_plan(plan)


def test_format_plan_text_mentions_every_node(served):
    plan = _plan(served)
    text = format_plan_text(plan)
    assert plan.digest[:16] in text
    for node in plan.ordered_nodes():
        assert node.node_id in text
