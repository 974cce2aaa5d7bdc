"""Golden-pinned ``repro.plan/3`` documents (DESIGN.md §5).

Node-granular resume is only sound if plan compilation is
*reproducible*: the killed run's node journal is keyed by node IDs and
guarded by the plan digest, and the resumed run finds them again only
because the same inputs compile to the byte-identical plan -- on every
machine, in every process, forever.  These goldens freeze the full plan
document (node IDs, edges, epoch digests, plan digest) for a fixed
workload per app, so any accidental change to epoch digesting, node-ID
derivation, canonical ordering, or edge construction shows up as a diff
against the committed file instead of as a mystery "refusing to resume"
regression.

An *intentional* format change must bump ``PLAN_SPEC`` (old journals
then refuse to resume -- a fresh start, never a misread) and regenerate
with::

    KAROUSOS_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_plan_golden.py
"""

import json
import os

import pytest

from repro.apps import feed_app, motd_app, stackdump_app, wiki_app
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier.dag import compile_plan, validate_plan
from repro.verifier.dag.plan import PLAN_SPEC, single_epoch
from repro.workload import (
    feed_workload,
    motd_workload,
    stacks_workload,
    wiki_workload,
)

pytestmark = pytest.mark.tier1

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

RUNS = {
    "motd": (motd_app, lambda: motd_workload(25, mix="mixed", seed=11), None),
    "stacks": (
        stackdump_app,
        lambda: stacks_workload(25, mix="mixed", seed=12),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "wiki": (
        wiki_app,
        lambda: wiki_workload(25, seed=13),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
    "feed": (
        feed_app,
        lambda: feed_workload(25, mix="mixed", seed=14),
        lambda: KVStore(IsolationLevel.SERIALIZABLE),
    ),
}


def golden_path(app_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"plan_{app_name}.json")


def compile_golden_plan(app_name: str, **options):
    app_fn, workload_fn, store_fn = RUNS[app_name]
    run = run_server(
        app_fn(),
        workload_fn(),
        KarousosPolicy(),
        store=store_fn() if store_fn else None,
        scheduler=RandomScheduler(5),
        concurrency=4,
    )
    plan = compile_plan(
        app_name, [single_epoch(0, run.trace, run.advice)], **options
    )
    validate_plan(plan)
    return run, plan


def compute_plan_doc(app_name: str):
    return compile_golden_plan(app_name)[1].to_doc()


@pytest.mark.parametrize("app_name", sorted(RUNS))
def test_plan_matches_golden(app_name):
    doc = compute_plan_doc(app_name)
    path = golden_path(app_name)
    if os.environ.get("KAROUSOS_REGEN_GOLDEN"):
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"regenerated {path}")
    assert os.path.exists(path), (
        f"no golden for {app_name}; regenerate with KAROUSOS_REGEN_GOLDEN=1"
    )
    golden = json.load(open(path))
    assert golden["spec"] == PLAN_SPEC, (
        "golden was written for another plan spec; regenerate"
    )
    assert doc == golden, (
        f"plan document for {app_name} diverged from the golden; if this "
        "change is intentional, bump PLAN_SPEC (old node journals must "
        "refuse to resume) and regenerate with KAROUSOS_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("app_name", sorted(RUNS))
def test_plan_compilation_is_deterministic(app_name):
    assert compute_plan_doc(app_name) == compute_plan_doc(app_name)


@pytest.mark.parametrize("dedup", [False, True], ids=["plain", "dedup"])
@pytest.mark.parametrize("app_name", sorted(RUNS))
def test_edges_are_exactly_the_stage_order(app_name, dedup):
    """Scheduling is nothing but stage order: the stage chain up to the
    barrier, ``barrier -> every reexec -> merge``, the chain out of the
    merge -- and no edge between two groups."""
    run, plan = compile_golden_plan(app_name, dedup=dedup)
    chain_in = ["0/decode", "0/preprocess", "0/isolation"]
    if dedup:
        chain_in.append("0/dedup")
    chain_out = ["0/merge", "0/postprocess", "0/checkpoint"]
    groups = [f"0/reexec/{tag}" for tag in run.advice.groups()]
    assert len(groups) > 1
    want = set(zip(chain_in, chain_in[1:])) | set(zip(chain_out, chain_out[1:]))
    for group in groups:
        want |= {(chain_in[-1], group), (group, "0/merge")}
    assert len(plan.edges) == len(want)  # no duplicates either
    assert set(plan.edges) == want
