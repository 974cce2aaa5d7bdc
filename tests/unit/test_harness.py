"""Unit tests for the experiment harness and reporting."""

import pytest

from repro.harness import format_series, print_series
from repro.harness.experiment import (
    ExperimentConfig,
    app_needs_store,
    make_app,
    make_store,
    measure_advice_sizes,
    measure_audit_phases,
    measure_server_overhead,
    measure_verification,
)
from repro.store import IsolationLevel


class TestConfigPlumbing:
    def test_make_app_names(self):
        assert make_app("motd").name == "motd"
        assert make_app("stacks").name == "stacks"
        assert make_app("wiki").name == "wiki"

    def test_store_only_for_transactional_apps(self):
        assert make_store(ExperimentConfig("motd")) is None
        store = make_store(ExperimentConfig("stacks"))
        assert store is not None
        assert store.isolation is IsolationLevel.SERIALIZABLE

    def test_app_needs_store(self):
        assert not app_needs_store("motd")
        assert app_needs_store("wiki")

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            make_app("blog")


class TestMeasurements:
    CFG = ExperimentConfig("motd", mix="mixed", n_requests=30, concurrency=4, seed=5)

    def test_server_overhead_positive(self):
        cmp = measure_server_overhead(self.CFG, repeats=2)
        assert cmp.unmodified_seconds > 0
        assert cmp.karousos_seconds > 0
        assert cmp.overhead == cmp.karousos_seconds / cmp.unmodified_seconds

    def test_verification_accepts_honest_runs(self):
        v = measure_verification(self.CFG)
        assert v.karousos_accepted and v.orochi_accepted
        assert v.karousos_groups >= 1
        assert 0 <= v.sequential_match_fraction <= 1

    def test_advice_sizes_consistent(self):
        s = measure_advice_sizes(self.CFG)
        assert s.karousos_bytes == sum(s.karousos_breakdown.values())
        assert s.orochi_bytes == sum(s.orochi_breakdown.values())
        assert 0 <= s.variable_log_share <= 1

    def test_repeats_take_minimum(self):
        v1 = measure_verification(self.CFG, repeats=1)
        v3 = measure_verification(self.CFG, repeats=3)
        # Same deterministic run; repeated timing can only tighten.
        assert v3.karousos_groups == v1.karousos_groups

    @pytest.mark.tier1
    def test_audit_phase_spans_account_for_elapsed(self):
        """Node spans cover the audit: if they did not, work would be
        happening outside the timed units and the phase breakdown users
        see via --metrics-out would be a lie."""
        from repro.verifier import STAGES
        from repro.verifier.dag.plan import PIPELINE_STAGE

        cfg = ExperimentConfig(
            "wiki", mix="mixed", n_requests=120, concurrency=8, seed=0
        )
        breakdown = measure_audit_phases(cfg)
        assert breakdown.accepted
        assert set(breakdown.stage_seconds) == set(STAGES)
        assert breakdown.stage_total <= breakdown.elapsed_seconds * 1.02
        assert breakdown.stage_total >= breakdown.elapsed_seconds * 0.80
        # Stage totals are exactly the node spans folded per stage
        # (dedup/merge nodes report under reexec) ...
        fold = {}
        for _epoch, stage, _group, seconds in breakdown.node_seconds:
            stage = PIPELINE_STAGE.get(stage, stage)
            fold[stage] = fold.get(stage, 0.0) + seconds
        for stage in STAGES:
            assert abs(fold[stage] - breakdown.stage_seconds[stage]) < 1e-9
        # ... and so are the pipeline.stage.* histograms operators read.
        for stage in STAGES:
            hist = breakdown.metrics["histograms"][f"pipeline.stage.{stage}.seconds"]
            assert hist["count"] == 1
            assert abs(hist["sum"] - breakdown.stage_seconds[stage]) < 1e-9


class TestReporting:
    ROWS = [
        {"a": 1, "b": 0.5, "c": True},
        {"a": 20, "b": None, "c": False},
    ]

    def test_format_series_alignment(self):
        text = format_series("Title", self.ROWS, ["a", "b", "c"])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[2].startswith("a")
        assert "0.500" in text
        assert "-" in lines[4], "None renders as a dash"
        assert "yes" in text and "no" in text

    def test_print_series_smoke(self, capsys):
        print_series("T", self.ROWS, ["a"])
        out = capsys.readouterr().out
        assert "T" in out and "20" in out

    def test_format_series_empty_rows_returns_header_only(self):
        # A sweep can legitimately produce zero rows (e.g. every point
        # skipped); this used to raise TypeError from max() over an empty
        # unpacking.
        text = format_series("Empty", [], ["alpha", "b"])
        lines = text.splitlines()
        assert lines[0] == "Empty"
        assert lines[2] == "alpha  b"
        assert len(lines) == 3
