"""Unit and property tests for SIMD-on-demand multivalues."""

import pytest
from hypothesis import given, strategies as st

from repro.core.multivalue import (
    DivergenceError,
    Multivalue,
    as_multivalue,
    collapse,
    expand,
    mv_apply,
    require_scalar,
)

RIDS = ("r1", "r2", "r3")


class TestCollapse:
    def test_uniform_values_collapse(self):
        mv = Multivalue(RIDS, [7, 7, 7])
        assert mv.is_collapsed
        assert mv.scalar() == 7

    def test_divergent_values_expand(self):
        mv = Multivalue(RIDS, [1, 2, 3])
        assert not mv.is_collapsed
        assert mv.values() == [1, 2, 3]

    def test_scalar_on_expanded_raises(self):
        with pytest.raises(DivergenceError):
            Multivalue(RIDS, [1, 2, 3]).scalar()

    def test_map_can_recollapse(self):
        mv = Multivalue(RIDS, [1, 2, 3]).map(lambda v: v * 0)
        assert collapse(mv).is_collapsed

    def test_get_by_rid(self):
        mv = Multivalue(RIDS, [10, 20, 30])
        assert mv.get("r2") == 20
        assert Multivalue.uniform(RIDS, 5).get("r3") == 5

    def test_get_reads_every_slot_and_rejects_strangers(self):
        mv = Multivalue(RIDS, [10, 20, 30])
        assert [mv.get(rid) for rid in RIDS] == [10, 20, 30]
        assert [mv.map(lambda v: v + 1).get(rid) for rid in RIDS] == [11, 21, 31]
        with pytest.raises(ValueError):
            mv.get("r9")


class TestDeduplication:
    def test_collapsed_map_runs_once(self):
        calls = []
        mv = Multivalue.uniform(RIDS, 4)
        mv.map(lambda v: calls.append(v) or v + 1)
        assert len(calls) == 1

    def test_expanded_map_runs_per_slot(self):
        calls = []
        Multivalue(RIDS, [1, 2, 3]).map(lambda v: calls.append(v) or v)
        assert len(calls) == 3

    def test_mv_apply_dedups_when_all_collapsed(self):
        calls = []

        def fn(a, b):
            calls.append((a, b))
            return a + b

        out = mv_apply(RIDS, fn, Multivalue.uniform(RIDS, 1), 2)
        assert calls == [(1, 2)]
        assert out.scalar() == 3

    def test_mv_apply_expands_on_divergence(self):
        out = mv_apply(RIDS, lambda a, b: a + b, Multivalue(RIDS, [1, 2, 3]), 10)
        assert out.values() == [11, 12, 13]


class TestOperators:
    def test_arithmetic(self):
        mv = Multivalue(RIDS, [1, 2, 3])
        assert (mv + 1).values() == [2, 3, 4]
        assert (10 - mv).values() == [9, 8, 7]
        assert (mv * 2).values() == [2, 4, 6]

    def test_mv_mv_arithmetic(self):
        a = Multivalue(RIDS, [1, 2, 3])
        b = Multivalue(RIDS, [10, 20, 30])
        assert (a + b).values() == [11, 22, 33]

    def test_string_concat(self):
        mv = Multivalue.uniform(RIDS, "page-")
        assert (mv + "x").scalar() == "page-x"

    def test_comparisons_lift(self):
        mv = Multivalue(RIDS, [1, 5, 5])
        assert mv.eq(5).values() == [False, True, True]
        assert mv.lt(2).values() == [True, False, False]

    def test_getitem_and_contains(self):
        mv = Multivalue(RIDS, [{"k": 1}, {"k": 2}, {"k": 3}])
        assert mv.getitem("k").values() == [1, 2, 3]
        assert mv.contains("k").scalar() is True

    def test_cross_group_rejected(self):
        a = Multivalue(("r1",), [1])
        b = Multivalue(("r2",), [1])
        with pytest.raises(ValueError):
            a.zip_with(b, lambda x, y: x + y)


class TestRequireScalar:
    def test_plain_value_passthrough(self):
        assert require_scalar(True) is True

    def test_collapsed_unwraps(self):
        assert require_scalar(Multivalue.uniform(RIDS, False)) is False

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError):
            require_scalar(Multivalue(RIDS, [True, False, True]))


class TestAsMultivalue:
    def test_lifts_scalar(self):
        assert as_multivalue(RIDS, 3).scalar() == 3

    def test_passes_through(self):
        mv = Multivalue(RIDS, [1, 2, 3])
        assert as_multivalue(RIDS, mv) is mv

    def test_rejects_foreign_group(self):
        with pytest.raises(ValueError):
            as_multivalue(("rX",), Multivalue(RIDS, [1, 2, 3]))


values = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans())


@given(st.lists(values, min_size=1, max_size=6))
def test_expand_roundtrip(vals):
    rids = tuple(f"r{i}" for i in range(len(vals)))
    mv = Multivalue(rids, vals)
    assert expand(mv) == list(vals)
    for rid, v in zip(rids, vals):
        assert mv.get(rid) == v


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_collapse_iff_uniform(vals):
    rids = tuple(f"r{i}" for i in range(len(vals)))
    mv = Multivalue(rids, vals)
    assert mv.is_collapsed == (len(set(vals)) == 1)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.integers(-3, 3))
def test_map_equals_per_slot_application(vals, k):
    rids = tuple(f"r{i}" for i in range(len(vals)))
    mv = Multivalue(rids, vals).map(lambda v: v * k)
    assert mv.values() == [v * k for v in vals]
