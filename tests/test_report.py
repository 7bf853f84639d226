"""Comparison-report formatting beyond the experiment integration tests."""

import pytest

from repro.core.report import (
    ServiceQuality,
    format_figure4_grid,
    format_figure4_panel,
)
from repro.core.samples import LatencyKind, SampleSet
from repro.sim.clock import CpuClock
from tests.test_core_worst_case import synthetic_sample_set


class _FakeResult:
    def __init__(self, sample_set):
        self.sample_set = sample_set


class TestFigure4Formatting:
    def test_panel_for_thread_kind_includes_priority(self):
        ss = synthetic_sample_set(n=400)
        text = format_figure4_panel(ss, LatencyKind.THREAD, priority=28)
        assert "priority 28" in text
        assert "win98" in text

    def test_grid_covers_all_cells(self):
        win98 = synthetic_sample_set(n=300)
        nt4 = SampleSet(win98.clock, "nt4", "office", win98.duration_s)
        for sample in win98.iter_samples():
            sample.t_isr = None  # the NT tool records no ISR stamps
            nt4.add(sample)
        results = {("nt4", "office"): _FakeResult(nt4),
                   ("win98", "office"): _FakeResult(win98)}
        panels = format_figure4_grid(results)
        # win98 gets an extra ISR panel: 3 + 4 panels.
        assert len(panels) == 7

    def test_service_quality_custom_priorities(self):
        ss = synthetic_sample_set(n=600)
        quality = ServiceQuality.from_sample_set(ss, high_priority=28, default_priority=24)
        assert quality.thread_high_ms > 0
        assert quality.thread_default_ms > 0

    def test_service_quality_requires_data(self):
        ss = SampleSet(CpuClock(), "win98", "office", duration_s=1.0)
        with pytest.raises(ValueError):
            ServiceQuality.from_sample_set(ss)
