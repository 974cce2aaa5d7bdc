"""Unit tests for the experiment drivers and reporting."""

import pytest

from repro.apps import app_needs_store, make_app
from repro.harness import experiment, format_series, print_series
from repro.harness.experiment import (
    ExperimentConfig,
    advice_sizes,
    continuous_audit_arms,
    make_store,
    serve_after_warmup,
    verification_arms,
)
from repro.store import IsolationLevel


class TestConfigPlumbing:
    def test_make_app_names(self):
        assert make_app("motd").name == "motd"
        assert make_app("stacks").name == "stacks"
        assert make_app("wiki").name == "wiki"
        # bench/ builds apps through the harness: the registry stays
        # importable from there.
        assert experiment.make_app is make_app
        assert experiment.app_needs_store is app_needs_store

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

    def test_server_suffix_serves_the_rest_of_the_workload(self):
        from repro.server import KarousosPolicy, UnmodifiedPolicy

        for policy in (UnmodifiedPolicy(), KarousosPolicy()):
            suffix = serve_after_warmup(self.CFG, policy)
            warm = len(policy.runtime.collector.trace())
            assert warm == 2 * int(30 * self.CFG.warmup_fraction)
            assert len(suffix()) == 2 * 30

    def test_verification_accepts_honest_runs(self):
        arms = verification_arms(self.CFG)
        karousos, orochi = arms.karousos(), arms.orochi()
        assert karousos.accepted and orochi.accepted
        assert karousos.stats["groups"] >= 1
        assert 0 <= arms.sequential().match_fraction <= 1

    def test_advice_sizes_consistent(self):
        s = advice_sizes(self.CFG)
        assert s.karousos_bytes == sum(s.karousos_breakdown.values())
        assert s.orochi_bytes == sum(s.orochi_breakdown.values())
        assert 0 <= s.variable_log_share <= 1

    def test_continuous_arms_agree_with_monolithic(self):
        arms = continuous_audit_arms(self.CFG, seal_every=10, max_pending=2)
        assert arms.epochs >= 2
        (first,) = arms.first_verdict()
        assert first.epoch == 0 and first.accepted
        auditor, mono = arms.continuous(), arms.monolithic()
        assert auditor.accepted and mono.accepted
        stats = auditor.stats()
        assert stats["handlers_executed"] == mono.stats["handlers_executed"]
        assert stats["peak_pending"] <= 2

    @pytest.mark.tier1
    def test_audit_phase_spans_account_for_elapsed(self):
        """Node spans cover the audit: if they did not, work would be
        happening outside the timed units and the phase breakdown users
        see via --metrics-out would be a lie."""
        from repro.obs import MetricsRegistry
        from repro.server import KarousosPolicy
        from repro.verifier import STAGES, Auditor
        from repro.verifier.dag.plan import PIPELINE_STAGE

        cfg = ExperimentConfig(
            "wiki", mix="mixed", n_requests=120, concurrency=8, seed=0
        )
        trace, advice = experiment.serve(cfg, KarousosPolicy())
        metrics = MetricsRegistry()
        auditor = Auditor(make_app("wiki"), trace, advice, metrics=metrics)
        result = auditor.run()
        elapsed = result.stats["elapsed_seconds"]
        stage_seconds = dict(auditor.stage_seconds)
        stage_total = sum(stage_seconds.values())
        assert result.accepted
        assert set(stage_seconds) == set(STAGES)
        assert stage_total <= elapsed * 1.02
        assert stage_total >= elapsed * 0.80
        # Stage totals are exactly the node spans folded per stage
        # (dedup/merge nodes report under reexec) ...
        fold = {}
        for _epoch, stage, _group, seconds in auditor.node_seconds:
            stage = PIPELINE_STAGE.get(stage, stage)
            fold[stage] = fold.get(stage, 0.0) + seconds
        for stage in STAGES:
            assert abs(fold[stage] - stage_seconds[stage]) < 1e-9
        # ... and so are the pipeline.stage.* histograms operators read.
        histograms = metrics.snapshot()["histograms"]
        for stage in STAGES:
            hist = histograms[f"pipeline.stage.{stage}.seconds"]
            assert hist["count"] == 1
            assert abs(hist["sum"] - stage_seconds[stage]) < 1e-9


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
