"""Unit suite for the fleet audit service's building blocks
(repro.service, DESIGN.md §13): tenant-spec parsing, token-bucket
quotas, epoch-source tailing (torn reads retried, never trusted), the
shared pool's Kahn bookkeeping, and the fair / FIFO pick policies."""

import pytest

from repro.continuous.codec import write_epoch_stored
from repro.continuous.epoch import Epoch
from repro.service import (
    EpochSource,
    PlanJob,
    SharedDagPool,
    TokenBucket,
    parse_tenant_spec,
)
from repro.storage import backend_for
from repro.trace import Trace

pytestmark = pytest.mark.tier1


# -- tenant specs -------------------------------------------------------------


def test_parse_tenant_spec_minimal():
    cfg = parse_tenant_spec("app=wiki,store=/tmp/w")
    assert cfg.app == "wiki"
    assert cfg.store == "/tmp/w"
    assert cfg.name == "wiki"  # defaults to the app
    assert cfg.quota == 0  # unlimited
    assert cfg.max_pending == 4
    assert cfg.scheme == "file"


def test_parse_tenant_spec_full():
    cfg = parse_tenant_spec(
        "app=feed, store=/tmp/f, quota=3, name=feed-a, "
        "max_pending=2, scheme=gzip, state=/tmp/state"
    )
    assert (cfg.app, cfg.name, cfg.quota) == ("feed", "feed-a", 3)
    assert (cfg.max_pending, cfg.scheme, cfg.state) == (2, "gzip", "/tmp/state")


@pytest.mark.parametrize("spec", [
    "app=wiki",                      # missing store
    "store=/tmp/w",                  # missing app
    "app=wiki,store=/tmp/w,bogus=1",  # unknown field
    "app=wiki,store=/tmp/w,quota",   # not key=value
    "app=nope,store=/tmp/w",         # not an app of repro.apps
])
def test_parse_tenant_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_tenant_spec(spec)


def test_tenant_name_validated():
    with pytest.raises(ValueError):
        parse_tenant_spec("app=wiki,store=/tmp/w,name=bad name")


# -- token buckets ------------------------------------------------------------


def test_token_bucket_limits_and_refills():
    b = TokenBucket(2)
    assert not b.unlimited
    assert b.try_take() and b.try_take()
    assert not b.try_take()  # dry
    b.refill()
    assert b.try_take()
    assert b.spent == 3
    assert b.refills == 1


def test_token_bucket_no_carry_over():
    b = TokenBucket(5)
    b.try_take()
    b.refill()  # back to 5, not 9
    for _ in range(5):
        assert b.try_take()
    assert not b.try_take()


@pytest.mark.parametrize("quota", [0, -1, None])
def test_token_bucket_unlimited(quota):
    b = TokenBucket(quota)
    assert b.unlimited
    for _ in range(100):
        assert b.try_take()


# -- epoch sources ------------------------------------------------------------


def _mini_epoch(index):
    return Epoch(index=index, trace=Trace([]), advice=None)


def test_epoch_source_tails_in_order(tmp_path):
    backend = backend_for("file", str(tmp_path))
    source = EpochSource(backend)
    assert not source.has_pending()
    assert source.poll(10) == []
    for i in range(3):
        write_epoch_stored(backend, _mini_epoch(i))
    assert source.has_pending()
    got = source.poll(2)
    assert [e.index for e in got] == [0, 1]
    assert [e.index for e in source.poll(10)] == [2]
    assert source.ingested == 3
    assert not source.has_pending()


def test_epoch_source_waits_for_gap(tmp_path):
    """epoch-2 sealed before epoch-1: the source must not skip ahead."""
    backend = backend_for("file", str(tmp_path))
    source = EpochSource(backend)
    write_epoch_stored(backend, _mini_epoch(0))
    write_epoch_stored(backend, _mini_epoch(2))
    assert [e.index for e in source.poll(10)] == [0]
    write_epoch_stored(backend, _mini_epoch(1))
    assert [e.index for e in source.poll(10)] == [1, 2]


def test_epoch_source_start_index_skips_resumed(tmp_path):
    backend = backend_for("file", str(tmp_path))
    for i in range(4):
        write_epoch_stored(backend, _mini_epoch(i))
    source = EpochSource(backend, start_index=2)
    assert [e.index for e in source.poll(10)] == [2, 3]


def test_epoch_source_torn_tail_retried(tmp_path):
    """A half-written stream is not ready yet: the poll counts a torn
    read, leaves the watermark, and succeeds once the seal completes."""
    backend = backend_for("file", str(tmp_path))
    write_epoch_stored(backend, _mini_epoch(0))
    # Truncate epoch-0's stream mid-record to fake an in-progress seal.
    path = next(tmp_path.glob("epoch-0*"))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    source = EpochSource(backend)
    assert source.poll(10) == []
    assert source.torn_reads == 1
    assert source.next_index == 0  # watermark stayed put
    path.write_bytes(data)  # the sealer finishes
    assert [e.index for e in source.poll(10)] == [0]


def test_epoch_source_never_corrupt_without_limit(tmp_path):
    """torn_limit=0 (the default): a torn tail is retried forever and
    never classified corrupt, whatever the streak."""
    backend = backend_for("file", str(tmp_path))
    write_epoch_stored(backend, _mini_epoch(0))
    path = next(tmp_path.glob("epoch-0*"))
    path.write_bytes(path.read_bytes()[:10])
    source = EpochSource(backend)
    for _ in range(50):
        assert source.poll(10) == []
    assert source.torn_streak == 50
    assert not source.corrupt


def test_epoch_source_corrupt_after_torn_limit(tmp_path):
    """A stream that keeps failing to decode the same epoch for
    torn_limit consecutive polls is classified corrupt -- and the
    classification clears if a sealer finishes it after all."""
    backend = backend_for("file", str(tmp_path))
    write_epoch_stored(backend, _mini_epoch(0))
    write_epoch_stored(backend, _mini_epoch(1))
    path = next(tmp_path.glob("epoch-0*"))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    source = EpochSource(backend, torn_limit=3)
    for polls in range(1, 3):
        assert source.poll(10) == []
        assert not source.corrupt, polls
    assert source.poll(10) == []
    assert source.corrupt
    assert source.torn_streak == 3
    assert source.last_error
    assert source.has_pending()  # pending + corrupt = input failure
    # The sealer finishes late: the streak (and verdict) clears.
    path.write_bytes(data)
    assert [e.index for e in source.poll(10)] == [0, 1]
    assert not source.corrupt
    assert source.torn_streak == 0 and source.last_error == ""


# -- plan jobs: Kahn bookkeeping ---------------------------------------------


class _FakeNode:
    def __init__(self, node_id, stage="preprocess"):
        self.node_id = node_id
        self.stage = stage

    def __repr__(self):
        return f"<node {self.node_id}>"


class _FakeRunner:
    """Runner-protocol stub: records execution order, never parallel."""

    def __init__(self, abort_on=None):
        self.executed = []
        self.absorbed = []
        self.abort_on = abort_on

    def parallel_safe(self, node):
        return False

    def execute(self, node):
        self.executed.append(node.node_id)
        return node.node_id

    def absorb(self, node, outcome):
        from repro.verifier.dag import PlanAborted

        self.absorbed.append(node.node_id)
        if self.abort_on == node.node_id:
            raise PlanAborted()


def _diamond(prefix):
    a, b, c, d = (_FakeNode(f"{prefix}{x}") for x in "abcd")
    nodes = [a, b, c, d]
    edges = [(a.node_id, b.node_id), (a.node_id, c.node_id),
             (b.node_id, d.node_id), (c.node_id, d.node_id)]
    return nodes, edges


def test_plan_job_promotes_in_canonical_order():
    nodes, edges = _diamond("n")
    job = PlanJob("t", _FakeRunner(), nodes, edges)
    assert [n.node_id for n in job.ready_nodes()] == ["na"]
    job.pop()
    job.complete(nodes[0])
    assert [n.node_id for n in job.ready_nodes()] == ["nb", "nc"]
    assert not job.done
    for node in (nodes[1], nodes[2]):
        job.pop()
        job.complete(node)
    assert [n.node_id for n in job.ready_nodes()] == ["nd"]
    job.pop()
    job.complete(nodes[3])
    assert job.done and job.remaining == 0


def test_plan_job_abort_clears_ready():
    nodes, edges = _diamond("n")
    job = PlanJob("t", _FakeRunner(), nodes, edges)
    job.abort()
    assert job.done and job.aborted and not job.ready


# -- the shared pool ----------------------------------------------------------


def _chain(prefix, count, stage="preprocess"):
    nodes = [_FakeNode(f"{prefix}{i}", stage=stage) for i in range(count)]
    edges = [(nodes[i].node_id, nodes[i + 1].node_id)
             for i in range(count - 1)]
    return nodes, edges


def test_pool_serial_executes_one_plan():
    pool = SharedDagPool(fair=False)
    runner = _FakeRunner()
    nodes, edges = _chain("n", 3)
    pool.admit("t", runner, nodes, edges)
    assert pool.pump() == 3
    assert runner.executed == ["n0", "n1", "n2"]
    done = pool.take_done()
    assert len(done) == 1 and done[0].done
    assert pool.idle
    assert pool.ticks == 3


def test_pool_fifo_is_head_of_line():
    """Quotas off: the first-admitted plan runs to completion before
    the second starts -- the super-producer behaviour."""
    pool = SharedDagPool(fair=False)
    big, small = _FakeRunner(), _FakeRunner()
    pool.admit("big", big, *_chain("b", 4))
    pool.admit("small", small, *_chain("s", 2))
    order = []
    orig = SharedDagPool._run_inline

    def spy(self, job, node):
        order.append(node.node_id)
        return orig(self, job, node)

    pool._run_inline = spy.__get__(pool)
    pool.pump()
    assert order == ["b0", "b1", "b2", "b3", "s0", "s1"]


def test_pool_fair_round_robins_tenants():
    pool = SharedDagPool(fair=True)
    first, second = _FakeRunner(), _FakeRunner()
    pool.admit("zeta", first, *_chain("z", 3))
    pool.admit("alpha", second, *_chain("a", 3))
    order = []
    orig = SharedDagPool._run_inline

    def spy(self, job, node):
        order.append(node.node_id)
        return orig(self, job, node)

    pool._run_inline = spy.__get__(pool)
    pool.pump()
    # Alternating tenants (alphabetical round-robin), not head-of-line.
    assert order == ["a0", "z0", "a1", "z1", "a2", "z2"]


def test_pool_quota_throttles_reexec_nodes():
    """A re-execution node costs a token; cheap stages are free.  A dry
    bucket defers the tenant until the round refills."""
    from repro.service.quota import TokenBucket
    from repro.verifier.dag.plan import NODE_REEXEC

    pool = SharedDagPool(
        fair=True, quotas={"hog": TokenBucket(1), "tiny": TokenBucket(1)}
    )
    hog, tiny = _FakeRunner(), _FakeRunner()
    pool.admit("hog", hog, *_chain("h", 4, stage=NODE_REEXEC))
    pool.admit("tiny", tiny, *_chain("t", 1, stage=NODE_REEXEC))
    order = []
    orig = SharedDagPool._run_inline

    def spy(self, job, node):
        order.append(node.node_id)
        return orig(self, job, node)

    pool._run_inline = spy.__get__(pool)
    pool.pump()
    # tiny's single node lands within the first round despite hog's
    # four, and the refill rounds are counted.
    assert order.index("t0") <= 1
    assert pool.quota_rounds >= 1
    assert pool.throttled.get("hog", 0) >= 1
    assert len(pool.take_done()) == 2


def _ran_in_worker(node_id):  # module-level: the pool pickles it by name
    return node_id


class _ParallelRunner(_FakeRunner):
    """Every node may leave the process, through the generic hand-off."""

    def parallel_safe(self, node):
        return True

    def remote_spec(self, node):
        return _ran_in_worker, (node.node_id,)


def test_pool_fifo_fan_out_never_charges_quotas():
    """FIFO mode (fair off) never throttles -- including the parallel
    fan-out path, even when the pool was handed non-empty quotas."""
    from repro.verifier.dag.plan import NODE_REEXEC

    bucket = TokenBucket(1)
    pool = SharedDagPool(
        scheduler="process", jobs=2, fair=False, quotas={"t": bucket}
    )
    runner = _ParallelRunner()
    nodes, _ = _chain("n", 4, stage=NODE_REEXEC)
    pool.admit("t", runner, nodes, [])  # all ready at once: they fan out
    try:
        assert pool.pump() == 4
        assert sorted(runner.absorbed) == ["n0", "n1", "n2", "n3"]
        assert runner.executed == []  # every node ran in a worker
        assert pool.throttled == {}  # no fan-out throttling ...
        assert bucket.spent == 0  # ... and no tokens charged
        assert len(pool.take_done()) == 1
    finally:
        pool.shutdown()


def test_pool_fair_fan_out_charges_quotas():
    """Fair mode's fan-out charges the same token per reexec node as
    the inline pick, so parallel backends cannot dodge a quota."""
    from repro.verifier.dag.plan import NODE_REEXEC

    bucket = TokenBucket(1)
    pool = SharedDagPool(
        scheduler="process", jobs=2, fair=True, quotas={"t": bucket}
    )
    runner = _ParallelRunner()
    nodes, _ = _chain("n", 3, stage=NODE_REEXEC)
    pool.admit("t", runner, nodes, [])  # all ready at once: they fan out
    try:
        assert pool.pump() == 3
        assert bucket.spent == 3
        assert bucket.refills >= 1  # round boundaries hit
        assert len(pool.take_done()) == 1
    finally:
        pool.shutdown()


def test_pool_abort_stops_plan_but_not_others():
    pool = SharedDagPool(fair=True)
    bad = _FakeRunner(abort_on="x1")
    good = _FakeRunner()
    pool.admit("bad", bad, *_chain("x", 4))
    pool.admit("good", good, *_chain("g", 2))
    pool.pump()
    done = {j.tenant: j for j in pool.take_done()}
    assert done["bad"].aborted
    assert not done["good"].aborted
    assert good.absorbed == ["g0", "g1"]
    assert "x2" not in bad.executed  # nothing past the abort
    assert pool.idle


def test_pool_max_nodes_bounds_a_pump():
    pool = SharedDagPool(fair=False)
    runner = _FakeRunner()
    pool.admit("t", runner, *_chain("n", 5))
    assert pool.pump(max_nodes=2) == 2
    assert runner.executed == ["n0", "n1"]
    assert pool.pump() == 3
    assert len(pool.take_done()) == 1


# -- the daemon's own durable writes are visible ---------------------------------


def test_tenant_storage_counters_show_two_barriers_per_verified_epoch(
    tmp_path, five_wiki_epochs
):
    """``TenantStream`` builds its ``audit/`` and ``nodejournal/``
    backends on the tenant's registry, so the commit protocol is
    observable per tenant: checkpoint, then ``verified`` -- two barriers
    per verified epoch, none from the node journal -- plus the two seals
    of ``close()``."""
    import json

    from repro.service import AuditService, TenantConfig

    store = backend_for("file", str(tmp_path / "epochs"))
    for epoch in five_wiki_epochs:
        write_epoch_stored(store, epoch)
    metrics_out = str(tmp_path / "fleet.json")
    service = AuditService(
        [TenantConfig(app="wiki", store=str(tmp_path / "epochs"), name="w")],
        state_dir=str(tmp_path / "state"),
        metrics_out=metrics_out,
    )
    assert service.run(once=True) == 5
    stream = service._by_name["w"].stream
    assert all(v.accepted for v in stream.verdicts.values())
    with open(metrics_out) as fh:
        written = json.load(fh)["counters"]
    # --metrics-out is written at shutdown before the streams close;
    # the post-run snapshot also holds close()'s two seals.
    assert written["tenant.w.storage.file.fsyncs"] == 2 * 5
    final = service.fleet_snapshot()["counters"]
    assert final["tenant.w.storage.file.fsyncs"] == 2 * 5 + 2
    for counters in (final, written):
        # 5 x (checkpoint + verified) on audit/, plus every node-journal
        # record (a header and one delta per group, each epoch)
        assert counters["tenant.w.storage.file.records_written"] > 3 * 5
        assert counters["tenant.w.storage.file.bytes_written"] > 0
