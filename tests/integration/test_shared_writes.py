"""A grouped write hands every member one shared value (DESIGN.md §5).

``GroupContext.write`` resolves the written value once per operation: a
value holding no multivalue, with exact dict/list/tuple containers only,
is stored for every member as the same object.  That is sound only if no
stored value changes afterwards (lint rule R2 forbids an application to
mutate payload-carried containers in place).  The audit tests here
deep-copy every value as it is stored and compare when the audit ends;
the unit cases pin which values are shared and which are still copied.
"""

import copy
from collections import deque

import pytest

from repro.apps import wiki_app
from repro.continuous import ContinuousAuditor, EpochSealer
from repro.core.ids import HandlerId
from repro.core.multivalue import Multivalue, same_value
from repro.kem.scheduler import RandomScheduler
from repro.server import KarousosPolicy, run_server
from repro.store import IsolationLevel, KVStore
from repro.verifier import Auditor
from repro.verifier.reexec import GroupContext
from repro.verifier.state import PlainVarState, VarState
from repro.workload import wiki_workload
from tests.verdict_goldens import GROUPINGS, RUNS, app_of, cases


@pytest.fixture
def stored(monkeypatch):
    """``[(value, deep copy at store time)]`` for every stored write."""
    seen = []
    on_write, write = VarState.on_write, PlainVarState.write

    def watched_on_write(self, rid, hid, opnum, value):
        seen.append((value, copy.deepcopy(value)))
        on_write(self, rid, hid, opnum, value)

    def watched_write(self, rid, value):
        seen.append((value, copy.deepcopy(value)))
        write(self, rid, value)

    monkeypatch.setattr(VarState, "on_write", watched_on_write)
    monkeypatch.setattr(PlainVarState, "write", watched_write)
    return seen


def assert_unchanged(seen):
    assert seen
    changed = [v for v, at_write in seen if not same_value(v, at_write)]
    assert not changed, changed[:3]


@pytest.mark.parametrize("grouping", sorted(GROUPINGS))
@pytest.mark.parametrize("run_name", sorted(RUNS))
def test_golden_honest_runs_never_change_a_stored_value(stored, run_name, grouping):
    trace, advice = cases(run_name)["honest"]
    result = Auditor(
        app_of(run_name)(), trace, advice,
        singleton_groups=GROUPINGS[grouping],
    ).run()
    assert result.accepted, (result.reason, result.detail)
    assert_unchanged(stored)


def test_wiki_mixed_tenant_never_changes_a_stored_value(stored):
    """The benchmark's wiki-mixed tenant: 360 requests, 2-request epochs."""
    sealer = EpochSealer(2)
    run_server(
        wiki_app(),
        wiki_workload(360, seed=13),
        KarousosPolicy(),
        store=KVStore(IsolationLevel.SERIALIZABLE),
        scheduler=RandomScheduler(13),
        concurrency=8,
        sealer=sealer,
    )
    verdicts = ContinuousAuditor(wiki_app()).run(sealer.epochs)
    assert all(v.accepted for v in verdicts)
    assert_unchanged(stored)
    # Grouping shares values: fewer distinct objects than stores.
    assert len({id(v) for v, _ in stored}) < len(stored)


# -- the write path ----------------------------------------------------------------


class _Vars:
    """Just enough of a ReExecutor for ``GroupContext.write``."""

    def __init__(self, rids):
        hid = HandlerId.intern("h")
        self.advice = type("A", (), {"opcounts": {(r, hid): 9 for r in rids}})()
        self.state = type("S", (), {"op_map": {}})()
        self.vars = {"p": PlainVarState("p", None)}
        self.hid = hid


def written(value, rids=("r0", "r1")):
    re = _Vars(rids)
    GroupContext(re, list(rids), re.hid, deque()).write("p", value)
    return [re.vars["p"].values[r] for r in rids]


def test_plain_value_is_one_shared_object():
    value = {"k": [1, (2, "x")], "n": None}
    a, b = written(value)
    assert a is value and b is value


def test_collapsed_multivalue_shares_its_value():
    value = {"k": [1, 2]}
    a, b = written(Multivalue.uniform(("r0", "r1"), value))
    assert a is value and b is value


def test_nested_multivalue_resolves_per_member():
    mv = Multivalue(("r0", "r1"), ["a", "b"])
    a, b = written({"k": [mv, 1]})
    assert a == {"k": ["a", 1]} and b == {"k": ["b", 1]}
    assert a is not b


def test_expanded_multivalue_shares_plain_slots():
    x, y = {"v": 1}, {"v": 2}
    a, b = written(Multivalue(("r0", "r1"), [x, y]))
    assert a is x and b is y


def test_dict_subclass_still_converted():
    class Tagged(dict):
        pass

    a, b = written(Tagged(k=(1,)))
    assert type(a) is dict and type(b) is dict
    assert a == {"k": (1,)} and a is not b
