"""The WDM latency measurement tool (paper section 2.2)."""

import pytest

from repro.core.samples import LatencyKind
from repro.drivers.latency import LatencyToolConfig, WdmLatencyTool
from repro.hw.machine import Machine, MachineConfig
from repro.kernel.boot import boot_os


def run_tool(os_name="nt4", duration_ms=3000, seed=21, baseline=False, **cfg):
    machine = Machine(MachineConfig(), seed=seed)
    os = boot_os(machine, os_name, baseline_load=baseline)
    tool = WdmLatencyTool(os, LatencyToolConfig(**cfg))
    tool.start()
    machine.run_for_ms(duration_ms)
    return tool, tool.collect("test")


class TestConfig:
    def test_rejects_normal_priority_measurement_thread(self):
        with pytest.raises(ValueError):
            LatencyToolConfig(thread_priorities=(10,))

    def test_rejects_empty_priorities(self):
        with pytest.raises(ValueError):
            LatencyToolConfig(thread_priorities=())

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            LatencyToolConfig(delay_ms=0.0)


class TestMechanics:
    def test_programs_pit_to_1khz(self):
        machine = Machine(MachineConfig(), seed=1)
        os = boot_os(machine, "nt4", baseline_load=False)
        assert machine.pit.frequency_hz == 100.0
        WdmLatencyTool(os)
        assert machine.pit.frequency_hz == 1000.0

    def test_collects_samples_continuously(self):
        tool, ss = run_tool(duration_ms=5000)
        # Cycle ~= 1 ms delay + tick rounding + app processing: several
        # hundred samples per second.
        assert len(ss) > 1000
        assert ss.sample_rate_hz() > 200

    def test_priorities_alternate(self):
        tool, ss = run_tool(duration_ms=2000)
        priorities = [s.priority for s in ss.iter_samples()][:10]
        assert set(priorities) == {24, 28}
        # Strict alternation.
        for a, b in zip(priorities, priorities[1:]):
            assert a != b

    def test_samples_complete(self):
        tool, ss = run_tool(duration_ms=2000)
        for sample in ss.iter_samples():
            assert sample.complete
            assert sample.t_read < sample.t_dpc < sample.t_thread

    def test_start_twice_rejected(self):
        machine = Machine(MachineConfig(), seed=2)
        os = boot_os(machine, "nt4", baseline_load=False)
        tool = WdmLatencyTool(os)
        tool.start()
        with pytest.raises(RuntimeError):
            tool.start()

    def test_collect_before_start_rejected(self):
        machine = Machine(MachineConfig(), seed=2)
        os = boot_os(machine, "nt4", baseline_load=False)
        tool = WdmLatencyTool(os)
        with pytest.raises(RuntimeError):
            tool.collect()


class TestOsAsymmetry:
    """Paper: only the Win98 driver can hook the PIT ISR."""

    def test_win98_records_isr_timestamps(self):
        tool, ss = run_tool(os_name="win98", duration_ms=1000)
        assert all(s.t_isr is not None for s in ss.iter_samples())
        assert len(ss.latencies_ms(LatencyKind.ISR)) == len(ss)
        assert len(ss.latencies_ms(LatencyKind.DPC)) == len(ss)

    def test_nt4_has_no_isr_timestamps(self):
        tool, ss = run_tool(os_name="nt4", duration_ms=1000)
        assert all(s.t_isr is None for s in ss.iter_samples())
        assert ss.latencies_ms(LatencyKind.ISR) == []
        assert ss.latencies_ms(LatencyKind.DPC) == []
        # DPC interrupt latency is still measurable (estimated origin).
        assert len(ss.latencies_ms(LatencyKind.DPC_INTERRUPT)) == len(ss)

    def test_omniscient_mode_hooks_nt(self):
        tool, ss = run_tool(os_name="nt4", duration_ms=1000, omniscient=True)
        assert all(s.t_isr is not None for s in ss.iter_samples())


class TestMeasurementArithmetic:
    def test_estimated_origin_carries_pit_quantisation(self):
        """NT-style estimates are up to one PIT period above ground truth."""
        tool, ss = run_tool(os_name="nt4", duration_ms=4000)
        estimate = ss.latencies_ms(LatencyKind.DPC_INTERRUPT, origin="estimate")
        truth = ss.latencies_ms(LatencyKind.DPC_INTERRUPT, origin="truth")
        assert len(estimate) == len(truth)
        for e, t in zip(estimate, truth):
            # estimate = truth + (tick quantisation in [0, 1 ms)) within
            # scheduling noise.
            assert e >= t - 1e-6
            assert e - t <= 1.05

    def test_auto_origin_follows_hook_presence(self):
        _, nt = run_tool(os_name="nt4", duration_ms=1000)
        _, w98 = run_tool(os_name="win98", duration_ms=1000)
        # On NT auto == estimate; on 98 auto == truth-based.
        assert nt.latencies_ms(LatencyKind.DPC_INTERRUPT) == nt.latencies_ms(
            LatencyKind.DPC_INTERRUPT, origin="estimate"
        )
        assert w98.latencies_ms(LatencyKind.DPC_INTERRUPT) == w98.latencies_ms(
            LatencyKind.DPC_INTERRUPT, origin="truth"
        )

    def test_thread_latency_positive_and_small_when_unloaded(self):
        tool, ss = run_tool(os_name="nt4", duration_ms=3000)
        for priority in (24, 28):
            values = ss.latencies_ms(LatencyKind.THREAD, priority=priority)
            assert values
            assert min(values) > 0
            assert max(values) < 1.0  # unloaded kernel: tens of microseconds

    def test_on_sample_observers_called(self):
        machine = Machine(MachineConfig(), seed=3)
        os = boot_os(machine, "nt4", baseline_load=False)
        tool = WdmLatencyTool(os)
        seen = []
        tool.on_sample.append(seen.append)
        tool.start()
        machine.run_for_ms(500)
        assert len(seen) == len(tool.samples)
