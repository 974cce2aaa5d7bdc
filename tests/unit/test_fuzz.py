"""Unit tests for the adversarial-advice fuzzer (:mod:`repro.fuzz`):
schema-derived surface coverage, operator hygiene, case serialisation,
corpus round-trips, and a small deterministic tier-1 campaign slice."""

import dataclasses
import random

import pytest

from repro.advice.codec import iter_advice_frames
from repro.advice.records import Advice
from repro.fuzz import (
    EscapeFound,
    FuzzStats,
    MutationCase,
    MutationNotApplicable,
    WorkloadCase,
    advice_sections,
    case_from_json,
    guaranteed_ops,
    mutation_surface,
    perturb,
    read_corpus,
    run_fuzz,
    run_soundness_case,
    write_corpus_case,
)
from repro.fuzz.driver import serve_case
from repro.fuzz.strategies import CompletenessCase
from repro.store import IsolationLevel

pytestmark = pytest.mark.tier1


class TestSurface:
    def test_sections_cover_every_advice_field(self):
        """The mutation surface is *derived*: every Advice record type
        named by an RT_* constant maps to a dataclass field, so a new
        advice section cannot be added without growing the surface."""
        mapped = set(advice_sections().values())
        declared = {f.name for f in dataclasses.fields(Advice)}
        assert mapped <= declared
        # Every mutable advice section the codec serialises is mapped.
        for name in (
            "handler_logs", "tx_logs", "variable_logs", "write_order",
            "tags", "response_emitted_by", "opcounts", "nondet",
            "tx_windows", "isolation_level",
        ):
            assert name in mapped, name

    def test_op_names_unique_and_both_tiers_present(self):
        ops = mutation_surface()
        names = [op.name for op in ops]
        assert len(names) == len(set(names))
        assert len(ops) >= 35, "the derived surface must stay broad"
        assert any(op.guaranteed for op in ops)
        assert any(not op.guaranteed for op in ops)

    def test_trace_mutations_included(self):
        sections = {op.section for op in mutation_surface()}
        assert "trace" in sections

    def test_apply_never_mutates_the_input(self):
        wl = WorkloadCase(app="stacks", n=5)
        trace, advice = serve_case(wl)
        before = list(iter_advice_frames(advice))
        for op in mutation_surface():
            for seed in (0, 1):
                try:
                    op.apply(random.Random(seed), trace, advice)
                except MutationNotApplicable:
                    continue
        assert list(iter_advice_frames(advice)) == before
        assert trace == serve_case(wl)[0]

    def test_apply_raises_when_nothing_changes(self):
        """motd has no transactions: tx-log operators must declare
        themselves inapplicable rather than return a vacuous no-op."""
        trace, advice = serve_case(WorkloadCase(app="motd", n=4))
        assert not advice.tx_logs
        tx_ops = [op for op in mutation_surface() if op.section == "tx_logs"]
        assert tx_ops
        for op in tx_ops:
            with pytest.raises(MutationNotApplicable):
                op.apply(random.Random(0), trace, advice)

    def test_guaranteed_oracle_respects_preconditions(self):
        """tx-window shrinking is only a guaranteed lie under snapshot
        isolation (other levels ignore the windows)."""
        trace_ser, advice_ser = serve_case(
            WorkloadCase(app="wiki", n=6, isolation="serializable")
        )
        trace_snap, advice_snap = serve_case(
            WorkloadCase(app="wiki", n=6, isolation="snapshot")
        )
        assert advice_snap.isolation_level is IsolationLevel.SNAPSHOT
        names_ser = {op.name for op in guaranteed_ops(advice_ser)}
        names_snap = {op.name for op in guaranteed_ops(advice_snap)}
        assert "shrink:tx_windows" not in names_ser
        assert "shrink:tx_windows" in names_snap

    def test_perturb_changes_scalars(self):
        rng = random.Random(0)
        for value in (True, 3, "abc", None, (1, 2), {"a": 1}):
            assert perturb(rng, value) != value


class TestCases:
    def test_serde_roundtrip(self):
        cases = [
            WorkloadCase(app="feed", n=9, concurrency=3, isolation="snapshot"),
            MutationCase(
                workload=WorkloadCase(app="wiki", n=5),
                op="shrink:handler_logs",
                mutation_seed=7,
            ),
            CompletenessCase(
                workload=WorkloadCase(app="stacks", n=6),
                driver="continuous",
                backend="gzip",
            ),
        ]
        for case in cases:
            assert case_from_json(case.as_json()) == case

    def test_corpus_roundtrip(self, tmp_path):
        case = MutationCase(
            workload=WorkloadCase(app="stacks", n=4),
            op="shrink:write_order",
            mutation_seed=2,
        )
        path = write_corpus_case(str(tmp_path), "soundness", case, "demo")
        stored = read_corpus(str(tmp_path), "soundness")
        assert stored == [(path, case)]
        assert read_corpus(str(tmp_path), "completeness") == []
        assert read_corpus(None, "soundness") == []


class TestDriver:
    def test_guaranteed_mutation_rejects_and_tallies(self):
        case = MutationCase(
            workload=WorkloadCase(app="stacks", n=5),
            op="shrink:handler_logs",
            mutation_seed=0,
        )
        stats = FuzzStats()
        assert run_soundness_case(case, stats) is None
        assert stats.applied == 1
        assert sum(stats.rejects.values()) == 1

    def test_inapplicable_mutation_skips(self):
        case = MutationCase(
            workload=WorkloadCase(app="motd", n=4),
            op="shrink:tx_logs",
            mutation_seed=0,
        )
        stats = FuzzStats()
        assert run_soundness_case(case, stats) is None
        assert stats.skipped == 1
        assert stats.applied == 0

    def test_escape_found_carries_the_case(self):
        case = MutationCase()
        err = EscapeFound(case, "boom")
        assert err.case is case
        assert "boom" in str(err)


class TestCampaignSlice:
    """A small fixed-seed fuzz slice runs in every tier-1 pass, so the
    soundness and completeness properties are continuously exercised."""

    def test_soundness_slice_is_clean(self):
        report = run_fuzz(
            prop="soundness",
            apps=("motd", "stacks"),
            seed=0,
            max_examples=25,
            max_requests=8,
        )
        assert report.clean, report.as_json()
        assert report.stats.examples == 25
        assert report.stats.rejects, "the slice must exercise real rejects"

    def test_completeness_slice_is_clean(self):
        report = run_fuzz(
            prop="completeness",
            apps=("motd", "stacks"),
            seed=0,
            max_examples=15,
            max_requests=8,
        )
        assert report.clean, report.as_json()
        assert report.stats.applied == 15
