"""OS personalities: boot, profiles, work items, background noise."""

from dataclasses import replace

import pytest

from repro.hw.machine import Machine, MachineConfig
from repro.kernel import boot
from repro.kernel.boot import OS_NAMES, boot_os
from repro.kernel.nt4 import NT4_PROFILE
from repro.kernel.requests import Run, Wait
from repro.kernel.win98 import WIN98_PROFILE
from repro.kernel.workitems import WorkItemQueue


class TestBootFacade:
    def test_known_names(self):
        assert OS_NAMES == ("nt4", "win2k", "win98")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            boot_os(Machine(), "beos")

    def test_boot_starts_pit(self):
        machine = Machine(MachineConfig(pit_hz=100.0))
        os = boot_os(machine, "nt4", baseline_load=False)
        machine.run_for_ms(100)
        assert os.kernel.stats.per_vector.get("pit", 0) >= 9


class TestProfiles:
    def test_filesystems_match_table2(self):
        assert NT4_PROFILE.filesystem == "NTFS"
        assert WIN98_PROFILE.filesystem == "FAT32"

    def test_win98_overheads_exceed_nt(self):
        """The legacy layer makes every fixed cost a bit worse on 98."""
        assert WIN98_PROFILE.context_switch_us > NT4_PROFILE.context_switch_us
        assert WIN98_PROFILE.dpc_dispatch_us > NT4_PROFILE.dpc_dispatch_us
        assert WIN98_PROFILE.isr_dispatch_us > NT4_PROFILE.isr_dispatch_us

    def test_only_nt_has_work_item_thread(self):
        assert NT4_PROFILE.work_item_thread
        assert not WIN98_PROFILE.work_item_thread

    def test_work_item_priority_is_rt_default(self):
        assert NT4_PROFILE.work_item_priority == 24


class TestBootedStructure:
    def test_nt4_has_work_item_queue(self):
        os = boot_os(Machine(), "nt4", baseline_load=False)
        assert isinstance(os.work_items, WorkItemQueue)
        assert os.work_items.thread.priority == 24
        assert os.work_items.thread.system

    def test_win98_has_no_work_item_queue(self):
        os = boot_os(Machine(), "win98", baseline_load=False)
        assert os.work_items is None

    def test_both_have_section_executor_at_31(self):
        for os_name in ("nt4", "win98"):
            os = boot_os(Machine(), os_name, baseline_load=False)
            assert os.section_executor.thread.priority == 31

    def test_profile_work_item_thread_decides_the_queue(self, monkeypatch):
        for os_name in OS_NAMES:
            os = boot_os(Machine(), os_name, baseline_load=False)
            assert (os.work_items is not None) is os.kernel.profile.work_item_thread
        profile, baseline, executor = boot._PERSONALITIES["nt4"]
        monkeypatch.setitem(
            boot._PERSONALITIES, "nt4",
            (replace(profile, work_item_thread=False), baseline, executor),
        )
        assert boot_os(Machine(), "nt4", baseline_load=False).work_items is None

    def test_baseline_load_produces_background_activity(self):
        machine = Machine(MachineConfig(), seed=5)
        os = boot_os(machine, "win98", baseline_load=True)
        machine.run_for_ms(3000)
        # VMM cli/sections and NTKERN DPCs fire even when "idle".
        assert os.section_executor.bursts_run > 50
        assert os.kernel.stats.dpcs_executed > 50


class TestWorkItemQueue:
    def test_items_run_in_order_on_worker_thread(self):
        machine = Machine(MachineConfig(), seed=2)
        os = boot_os(machine, "nt4", baseline_load=False)
        queue = os.work_items
        queue.queue_item(1.0, label=("NTKERN", "_one"))
        queue.queue_item(2.0, label=("NTKERN", "_two"))
        machine.run_for_ms(10)
        assert queue.items_run == 2
        assert queue.backlog == 0
        assert queue.busy_cycles == machine.clock.ms_to_cycles(3.0)

    def test_work_item_blocks_equal_priority_thread(self):
        """The paper's NT priority-24 effect in miniature."""
        machine = Machine(MachineConfig(), seed=2)
        os = boot_os(machine, "nt4", baseline_load=False)
        kernel = os.kernel
        from repro.kernel.objects import KEvent

        event = KEvent(synchronization=True)
        wake_delay = {}

        def victim(k, t):
            status = yield Wait(event)
            wake_delay["at"] = k.engine.now
            yield Run(10)

        kernel.create_thread("victim", 24, victim)
        machine.run_for_ms(1)
        # Start a long work item, then signal the victim: it must wait.
        os.work_items.queue_item(8.0)
        machine.run_for_ms(0.5)
        signalled_at = machine.engine.now
        kernel.set_event(event)
        machine.run_for_ms(30)
        waited_ms = machine.clock.cycles_to_ms(wake_delay["at"] - signalled_at)
        assert waited_ms > 5.0  # blocked behind the remaining work item

    def test_work_item_never_delays_priority_28(self):
        machine = Machine(MachineConfig(), seed=2)
        os = boot_os(machine, "nt4", baseline_load=False)
        kernel = os.kernel
        from repro.kernel.objects import KEvent

        event = KEvent(synchronization=True)
        wake_delay = {}

        def victim(k, t):
            yield Wait(event)
            wake_delay["at"] = k.engine.now
            yield Run(10)

        kernel.create_thread("victim", 28, victim)
        machine.run_for_ms(1)
        os.work_items.queue_item(8.0)
        machine.run_for_ms(0.5)
        signalled_at = machine.engine.now
        kernel.set_event(event)
        machine.run_for_ms(30)
        waited_ms = machine.clock.cycles_to_ms(wake_delay["at"] - signalled_at)
        assert waited_ms < 0.2  # preempts the worker immediately
