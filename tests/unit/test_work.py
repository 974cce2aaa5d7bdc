"""Unit tests for the applications' scalable compute stand-in
(:mod:`repro.core.work`)."""

import pytest

from repro.core.work import cpu_work, scaled_work, work_scale

pytestmark = pytest.mark.tier1


class TestWorkScale:
    def test_scale_changes_cost_not_determinism(self):
        baseline = cpu_work(64, "probe")
        assert work_scale() == 1.0
        with scaled_work(2.0):
            assert work_scale() == 2.0
            # A different effective iteration count produces a different
            # digest -- which is why serve and audit must share the scale.
            assert cpu_work(64, "probe") != baseline
            assert cpu_work(32, "probe") == baseline
        assert work_scale() == 1.0
        assert cpu_work(64, "probe") == baseline

    def test_scales_nest_and_restore(self):
        with scaled_work(3.0):
            with scaled_work(0.5):
                assert work_scale() == 0.5
            assert work_scale() == 3.0
        assert work_scale() == 1.0
