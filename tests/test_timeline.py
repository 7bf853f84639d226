"""The Figure-3 cycle timeline renderer."""

import pytest

from repro.core.samples import LatencyKind, SampleSet
from repro.core.timeline import render_cycle_timeline, worst_cycle
from repro.sim.clock import CpuClock
from tests.test_core_samples import full_sample
from tests.test_core_worst_case import synthetic_sample_set


class TestRender:
    def test_full_cycle_lists_all_events(self):
        text = render_cycle_timeline(full_sample())
        assert "LatRead" in text
        assert "estimated timer expiry" in text
        assert "ground truth" in text
        assert "LatDpcRoutine" in text
        assert "LatThreadFunc" in text

    def test_latency_block_present(self):
        text = render_cycle_timeline(full_sample())
        for kind in LatencyKind:
            assert kind.value in text

    def test_partial_sample_renders_what_it_has(self):
        sample = full_sample(with_isr=False)
        text = render_cycle_timeline(sample)
        assert "private hook" not in text
        assert "dpc_interrupt_latency" in text
        assert "isr_latency" not in text.split("latencies")[1]

    def test_times_relative_to_first_event(self):
        text = render_cycle_timeline(full_sample())
        assert "    0.0000  |- LatRead" in text


class TestWorstCycle:
    def test_finds_the_maximum(self):
        ss = synthetic_sample_set(n=500)
        worst = worst_cycle(ss, LatencyKind.THREAD, priority=28)
        values = ss.latencies_ms(LatencyKind.THREAD, priority=28)
        measured = ss.clock.cycles_to_ms(worst.latency_cycles(LatencyKind.THREAD))
        assert measured == pytest.approx(max(values))

    def test_no_data_raises(self):
        ss = SampleSet(CpuClock(), "win98", "office", duration_s=1.0)
        with pytest.raises(ValueError):
            worst_cycle(ss, LatencyKind.THREAD)

    def test_real_campaign_worst_cycle_renders(self):
        from repro.core.experiment import ExperimentConfig, run_latency_experiment

        ss = run_latency_experiment(
            ExperimentConfig(os_name="win98", workload="games", duration_s=5.0, seed=19)
        ).sample_set
        worst = worst_cycle(ss, LatencyKind.THREAD, priority=28)
        text = render_cycle_timeline(worst, ss.clock)
        assert "measurement cycle" in text
