"""Sealing costs O(epoch), however long the stream has run (DESIGN.md §6).

Counted, not timed: every container a cut could read -- the collector's
events, the policy's advice sections and cell logs, the runtime's
transactions and the binlog -- is replaced by one that counts each entry
a reader visits through it.  A ``seal`` may visit what was recorded since
the previous cut (the epoch's own entries, plus backfills under older
coordinates), never what earlier seals already took; a ``seal_due``
visits nothing.
"""

import pytest

from repro.advice.codec import iter_advice_frames
from repro.apps import make_app
from repro.continuous import EpochSealer
from repro.kem.runtime import Runtime
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.workload import workload_for

pytestmark = pytest.mark.tier1

visited = [0]


def _count(items):
    for item in items:
        visited[0] += 1
        yield item


class _CountedView:
    def __init__(self, view):
        self._view = view

    def __len__(self):
        return len(self._view)

    def __iter__(self):
        return _count(self._view)

    def __reversed__(self):
        return _count(reversed(self._view))


class CountingDict(dict):
    def __iter__(self):
        return _count(super().__iter__())

    def __reversed__(self):
        return _count(super().__reversed__())

    def keys(self):
        return _CountedView(super().keys())

    def values(self):
        return _CountedView(super().values())

    def items(self):
        return _CountedView(super().items())


class CountingList(list):
    def __iter__(self):
        return _count(super().__iter__())

    def __reversed__(self):
        return _count(super().__reversed__())

    def __getitem__(self, index):
        item = super().__getitem__(index)
        visited[0] += len(item) if isinstance(index, slice) else 1
        return item


def _counted_wiki_stream(n_requests):
    """Serve wiki with two-request seals; per seal, the entries its cut
    visited and the epoch it sealed; per seal_due call, the entries it
    visited."""
    policy = KarousosPolicy()
    store = KVStore(IsolationLevel.SERIALIZABLE)
    runtime = Runtime(make_app("wiki"), policy, store=store,
                      scheduler=RandomScheduler(13), concurrency=1)
    policy.runtime = runtime
    sealer = EpochSealer(2).attach(runtime)
    out = policy.advice_out
    for name in ("tags", "handler_logs", "response_emitted_by", "opcounts",
                 "nondet", "tx_logs"):
        setattr(out, name, CountingDict())
    for cell in policy._cells.values():
        cell.log = CountingDict()
    runtime._txs = CountingDict()
    store.binlog._entries = CountingList()
    runtime.collector.trace(live=True).events = CountingList()

    seals, dues = [], []
    seal, seal_due = sealer.seal, sealer.seal_due

    def counted(hook, into):
        def call():
            before = visited[0]
            result = hook()
            into.append((visited[0] - before, result))
            return result
        return call

    sealer.seal = counted(seal, seals)
    sealer.seal_due = counted(seal_due, dues)
    runtime.serve(workload_for("wiki", n_requests, seed=13))
    sealer.flush()
    return seals, [n for n, _ in dues]


def _size(epoch):
    """Trace events plus advice frames' entries: what the epoch holds."""
    advice = epoch.advice
    return len(epoch.trace) + sum(
        len(section) for section in (
            advice.tags, advice.response_emitted_by, advice.opcounts,
            advice.nondet, advice.tx_windows, advice.write_order,
        )
    ) + advice.handler_log_entry_count() + advice.variable_log_entry_count() + (
        advice.tx_log_entry_count()
    )


def test_a_seal_visits_only_its_own_epoch():
    seals, _ = _counted_wiki_stream(120)
    assert len(seals) >= 55
    ratios = [visits / _size(epoch) for visits, epoch in seals]
    # The 50th seal reads no more per entry of its epoch than the 5th,
    # and no seal reads much beyond its own epoch.
    assert ratios[49] <= 1.25 * ratios[4]
    assert max(ratios) <= 2, ratios


def test_seal_due_visits_nothing():
    _, dues = _counted_wiki_stream(20)
    assert dues and set(dues) == {0}


def test_counting_containers_change_no_epoch():
    """The counted stream seals the same epochs as a plain one."""
    sealer = EpochSealer(2)
    run_server(make_app("wiki"), workload_for("wiki", 20, seed=13),
               KarousosPolicy(), store=KVStore(IsolationLevel.SERIALIZABLE),
               scheduler=RandomScheduler(13), concurrency=1, sealer=sealer)
    seals, _ = _counted_wiki_stream(20)
    assert [list(iter_advice_frames(epoch.advice)) for _, epoch in seals] == [
        list(iter_advice_frames(epoch.advice)) for epoch in sealer.epochs
    ]
