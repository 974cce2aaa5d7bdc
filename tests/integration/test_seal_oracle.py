"""Every sealed epoch carries the whole-run slice (DESIGN.md §6).

The sealer reads only what the policy recorded since the previous cut
(``ServerPolicy.advice_since_cut``) and slices that.  The reference is
``slice_advice`` over the whole run's advice *at the same seal*: later
serving backfills variable-log entries under earlier epochs'
coordinates, so the whole-run advice at the end of the run is no oracle
for an earlier epoch.  The comparison is byte for byte, on the frames
an epoch stream stores.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.advice.codec import iter_advice_frames
from repro.advice.slicing import slice_advice
from repro.apps import app_needs_store, make_app
from repro.continuous import EpochSealer
from repro.kem.scheduler import RandomScheduler
from repro.kem.threaded import ThreadedRuntime
from repro.server import KarousosPolicy, OrochiPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.workload import workload_for

pytestmark = pytest.mark.tier1

# Each app under every isolation level; motd has no store, so one run.
CASES = [
    (app, level)
    for app in ("motd", "stacks", "wiki", "feed")
    for level in IsolationLevel
    if app_needs_store(app) or level is IsolationLevel.SERIALIZABLE
]


def _checking_sealer(seal_every):
    """A sealer whose sink holds each epoch's advice to the whole-run
    slice taken at that seal; returns it and the indices it checked."""
    checked = []

    def sink(epoch):
        whole = sealer.runtime.policy.advice()
        reference = slice_advice(whole, set(epoch.request_ids()))
        assert list(iter_advice_frames(epoch.advice)) == list(
            iter_advice_frames(reference)
        ), f"epoch {epoch.index}"
        checked.append(epoch.index)

    sealer = EpochSealer(seal_every, sink=sink)
    return sealer, checked


def _store(app, level):
    return KVStore(level) if app_needs_store(app) else None


@pytest.mark.parametrize(
    "app,level", CASES, ids=[f"{app}-{level.value}" for app, level in CASES]
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seal_every=st.sampled_from([0, 1, 2, 3, 7]),
    seed=st.integers(0, 2 ** 16),
    concurrency=st.integers(1, 6),
    policy=st.sampled_from([KarousosPolicy, OrochiPolicy]),
)
def test_each_seal_is_the_whole_run_slice(app, level, seal_every, seed,
                                          concurrency, policy):
    sealer, checked = _checking_sealer(seal_every)
    run_server(
        make_app(app), workload_for(app, 24, seed=seed), policy(),
        store=_store(app, level), scheduler=RandomScheduler(seed),
        concurrency=concurrency, sealer=sealer,
    )
    assert checked == list(range(len(sealer.epochs)))
    assert checked


def test_threaded_flush_is_the_whole_run_slice():
    """The threaded runtime seals once, through its locked policy."""
    sealer, checked = _checking_sealer(0)
    policy = KarousosPolicy()
    runtime = ThreadedRuntime(
        make_app("stacks"), policy, store=KVStore(IsolationLevel.SNAPSHOT),
        scheduler=RandomScheduler(3), concurrency=4, parallelism=3,
    )
    policy.runtime = runtime
    sealer.attach(runtime)
    runtime.serve(workload_for("stacks", 20, seed=3))
    sealer.flush()
    assert checked == [0]
