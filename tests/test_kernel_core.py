"""Core kernel mechanics: ISR/DPC/thread ordering, preemption, waits."""

import pytest

from repro.hw.machine import Machine, MachineConfig
from repro.hw.pic import InterruptVector
from repro.kernel import irql
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.objects import KEvent, KTimer, WaitStatus
from repro.kernel.profile import OsProfile
from repro.kernel.requests import Run, Wait
from repro.kernel.threads import ThreadState

BARE_PROFILE = OsProfile(name="bare")


def make_kernel(pit_hz=1000.0, boot=True):
    machine = Machine(MachineConfig(pit_hz=pit_hz), seed=7)
    kernel = Kernel(machine, BARE_PROFILE)
    if boot:
        kernel.boot()
    return machine, kernel


class TestThreadBasics:
    def test_thread_runs_and_terminates(self):
        machine, kernel = make_kernel(boot=False)
        log = []

        def body(k, t):
            log.append(("start", k.engine.now))
            yield Run(k.clock.ms_to_cycles(1.0))
            log.append(("end", k.engine.now))

        thread = kernel.create_thread("t", 8, body)
        machine.run_for_ms(5)
        assert thread.state is ThreadState.TERMINATED
        assert log[0][0] == "start"
        elapsed = log[1][1] - log[0][1]
        assert elapsed == machine.clock.ms_to_cycles(1.0)

    def test_higher_priority_thread_preempts(self):
        machine, kernel = make_kernel(boot=False)
        order = []

        def low(k, t):
            order.append("low-start")
            yield Run(k.clock.ms_to_cycles(10.0))
            order.append("low-end")

        def high(k, t):
            order.append("high-start")
            yield Run(k.clock.ms_to_cycles(1.0))
            order.append("high-end")

        kernel.create_thread("low", 4, low)
        machine.run_for_ms(2)  # low is mid-burst
        kernel.create_thread("high", 12, high)
        machine.run_for_ms(20)
        assert order == ["low-start", "high-start", "high-end", "low-end"]

    def test_equal_priority_round_robin_by_quantum(self):
        machine, kernel = make_kernel(boot=False)
        runner = {"a": 0, "b": 0}

        def body(name):
            def gen(k, t):
                while True:
                    runner[name] += 1
                    yield Run(k.clock.ms_to_cycles(1.0))

            return gen

        ta = kernel.create_thread("a", 8, body("a"))
        tb = kernel.create_thread("b", 8, body("b"))
        machine.run_for_ms(200)
        # Both made progress; quantum is 20 ms so each got several turns.
        assert runner["a"] > 3
        assert runner["b"] > 3
        assert ta.quantum_expiries > 0 or tb.quantum_expiries > 0

    def test_lower_priority_starves_under_busy_high(self):
        machine, kernel = make_kernel(boot=False)
        progress = {"low": 0}

        def high(k, t):
            while True:
                yield Run(k.clock.ms_to_cycles(1.0))

        def low(k, t):
            while True:
                progress["low"] += 1
                yield Run(k.clock.ms_to_cycles(0.1))

        kernel.create_thread("high", 20, high)
        kernel.create_thread("low", 5, low)
        machine.run_for_ms(50)
        assert progress["low"] == 0

    def test_set_thread_priority_moves_ready_thread(self):
        machine, kernel = make_kernel(boot=False)
        order = []

        def hog(k, t):
            yield Run(k.clock.ms_to_cycles(5.0))
            order.append("hog-done")

        def boosted(k, t):
            order.append("boosted-ran")
            yield Run(k.clock.ms_to_cycles(0.1))

        kernel.create_thread("hog", 10, hog)
        machine.run_for_ms(1)
        victim = kernel.create_thread("boosted", 5, boosted)
        kernel.set_thread_priority(victim, 15)
        machine.run_for_ms(10)
        assert order == ["boosted-ran", "hog-done"]


class TestEvents:
    def test_sync_event_wakes_single_waiter_fifo(self):
        machine, kernel = make_kernel(boot=False)
        event = KEvent(synchronization=True)
        woken = []

        def waiter(name):
            def gen(k, t):
                status = yield Wait(event)
                woken.append((name, status))

            return gen

        kernel.create_thread("w1", 8, waiter("w1"))
        machine.run_for_ms(1)
        kernel.create_thread("w2", 8, waiter("w2"))
        machine.run_for_ms(1)

        def signaler(k, t):
            k.set_event(event)
            yield Run(k.clock.ms_to_cycles(0.01))

        kernel.create_thread("s", 10, signaler)
        machine.run_for_ms(5)
        assert woken == [("w1", WaitStatus.OBJECT)]
        assert not event.is_signaled()

    def test_notification_event_wakes_everyone(self):
        machine, kernel = make_kernel(boot=False)
        event = KEvent(synchronization=False)
        woken = []

        def waiter(name):
            def gen(k, t):
                yield Wait(event)
                woken.append(name)

            return gen

        kernel.create_thread("w1", 8, waiter("w1"))
        kernel.create_thread("w2", 9, waiter("w2"))
        machine.run_for_ms(1)

        def signaler(k, t):
            k.set_event(event)
            yield Run(1)

        kernel.create_thread("s", 12, signaler)
        machine.run_for_ms(5)
        assert sorted(woken) == ["w1", "w2"]
        assert event.is_signaled()  # notification events stay set

    def test_wait_on_presignaled_event_does_not_block(self):
        machine, kernel = make_kernel(boot=False)
        event = KEvent(synchronization=True, initial_state=True)
        result = []

        def body(k, t):
            status = yield Wait(event)
            result.append(status)

        kernel.create_thread("t", 8, body)
        machine.run_for_ms(1)
        assert result == [WaitStatus.OBJECT]
        assert kernel.stats.waits_immediate == 1

    def test_wait_timeout(self):
        machine, kernel = make_kernel(boot=False)
        event = KEvent(synchronization=True)
        result = []

        def body(k, t):
            status = yield Wait(event, timeout_ms=2.0)
            result.append((status, k.engine.now))

        start = machine.engine.now
        kernel.create_thread("t", 8, body)
        machine.run_for_ms(10)
        assert result[0][0] is WaitStatus.TIMEOUT
        # Elapsed = timeout + context switches (thread start and wake).
        waited = result[0][1] - start
        assert machine.clock.ms_to_cycles(2.0) <= waited <= machine.clock.ms_to_cycles(2.1)


class TestInterruptsAndDpcs:
    def test_isr_preempts_thread_and_thread_resumes(self):
        machine, kernel = make_kernel(boot=False)
        machine.pic.register(InterruptVector(name="dev", irql=10, latency_cycles=0))
        marks = {}

        def isr(k, vector, asserted_at):
            marks["isr_start"] = k.engine.now
            yield Run(k.clock.us_to_cycles(50))
            marks["isr_end"] = k.engine.now

        kernel.connect_interrupt("dev", isr)

        def body(k, t):
            yield Run(k.clock.ms_to_cycles(10.0))
            marks["thread_end"] = k.engine.now

        kernel.create_thread("t", 8, body)
        machine.run_for_ms(1)
        machine.pic.assert_irq("dev", machine.engine.now)
        machine.run_for_ms(20)
        assert marks["isr_start"] < marks["isr_end"] < marks["thread_end"]
        # Thread lost exactly the ISR service time (plus dispatch cost).
        total = marks["thread_end"] - 0
        assert total >= machine.clock.ms_to_cycles(10.0) + machine.clock.us_to_cycles(50)

    def test_spurious_delivery_then_connect_once(self):
        # A spurious delivery must not leave a row in the ISR table that
        # makes the vector impossible to connect afterwards.
        machine, kernel = make_kernel()
        kernel.register_intrusion_vector("probe", irql=10)
        machine.pic.assert_irq("probe", machine.engine.now)
        machine.run_for_ms(1)
        assert kernel.stats.per_vector["probe"] == 1

        runs = []

        def isr(k, vector, asserted_at):
            runs.append(asserted_at)
            yield Run(10)

        kernel.connect_interrupt("probe", isr)
        with pytest.raises(KernelError):
            kernel.connect_interrupt("probe", isr)
        machine.pic.assert_irq("probe", machine.engine.now)
        machine.run_for_ms(1)
        assert len(runs) == 1
        assert kernel.stats.per_vector["probe"] == 2

    def test_cli_run_blocks_interrupt_delivery(self):
        machine, kernel = make_kernel(boot=False)
        machine.pic.register(InterruptVector(name="dev", irql=10, latency_cycles=0))
        marks = {}

        def isr(k, vector, asserted_at):
            marks["isr_start"] = k.engine.now
            marks["asserted_at"] = asserted_at
            yield Run(10)

        kernel.connect_interrupt("dev", isr)

        def body(k, t):
            yield Run(k.clock.ms_to_cycles(5.0), cli=True)
            marks["cli_end"] = k.engine.now
            yield Run(k.clock.ms_to_cycles(5.0))

        kernel.create_thread("t", 8, body)
        machine.run_for_ms(1)
        machine.pic.assert_irq("dev", machine.engine.now)
        machine.run_for_ms(20)
        # ISR could not start until the cli region ended.
        assert marks["isr_start"] >= marks["cli_end"]
        latency = marks["isr_start"] - marks["asserted_at"]
        assert latency >= machine.clock.ms_to_cycles(3.9)

    def test_higher_irql_isr_nests_over_lower(self):
        machine, kernel = make_kernel(boot=False)
        machine.pic.register(InterruptVector(name="lo", irql=5, latency_cycles=0))
        machine.pic.register(InterruptVector(name="hi", irql=20, latency_cycles=0))
        order = []

        def lo_isr(k, vector, asserted_at):
            order.append("lo-start")
            machine.pic.assert_irq("hi", k.engine.now)
            yield Run(k.clock.us_to_cycles(100))
            order.append("lo-end")

        def hi_isr(k, vector, asserted_at):
            order.append("hi-start")
            yield Run(k.clock.us_to_cycles(10))
            order.append("hi-end")

        kernel.connect_interrupt("lo", lo_isr)
        kernel.connect_interrupt("hi", hi_isr)
        machine.pic.assert_irq("lo", machine.engine.now)
        machine.run_for_ms(1)
        assert order == ["lo-start", "hi-start", "hi-end", "lo-end"]
        assert kernel.stats.isr_nest_max == 2

    def test_equal_irql_does_not_nest(self):
        machine, kernel = make_kernel(boot=False)
        machine.pic.register(InterruptVector(name="a", irql=10, latency_cycles=0))
        machine.pic.register(InterruptVector(name="b", irql=10, latency_cycles=0))
        order = []

        def isr(name):
            def gen(k, vector, asserted_at):
                order.append(f"{name}-start")
                yield Run(k.clock.us_to_cycles(100))
                order.append(f"{name}-end")

            return gen

        kernel.connect_interrupt("a", isr("a"))
        kernel.connect_interrupt("b", isr("b"))
        machine.pic.assert_irq("a", machine.engine.now)
        machine.engine.run_for(10)
        machine.pic.assert_irq("b", machine.engine.now)
        machine.run_for_ms(1)
        assert order == ["a-start", "a-end", "b-start", "b-end"]

    def test_dpc_runs_after_isr_before_thread(self):
        machine, kernel = make_kernel(boot=False)
        machine.pic.register(InterruptVector(name="dev", irql=10, latency_cycles=0))
        order = []

        def dpc_routine(k, dpc):
            order.append("dpc")
            yield Run(k.clock.us_to_cycles(20))

        dpc = Dpc(dpc_routine, name="test-dpc")

        def isr(k, vector, asserted_at):
            order.append("isr")
            yield Run(k.clock.us_to_cycles(10))
            k.queue_dpc(dpc)

        kernel.connect_interrupt("dev", isr)

        def body(k, t):
            while True:
                order.append("thread")
                yield Run(k.clock.ms_to_cycles(0.5))

        kernel.create_thread("t", 8, body)
        machine.run_for_ms(0.1)
        machine.pic.assert_irq("dev", machine.engine.now)
        machine.run_for_ms(2)
        i_isr = order.index("isr")
        i_dpc = order.index("dpc")
        assert i_isr < i_dpc
        assert "thread" in order[i_dpc + 1:]  # thread resumed afterwards

    def test_high_importance_dpc_jumps_queue(self):
        machine, kernel = make_kernel(boot=False)
        order = []

        def routine(name):
            def gen(k, dpc):
                order.append(name)
                yield Run(k.clock.us_to_cycles(10))

            return gen

        d1 = Dpc(routine("medium1"), importance=DpcImportance.MEDIUM)
        d2 = Dpc(routine("medium2"), importance=DpcImportance.MEDIUM)
        d3 = Dpc(routine("high"), importance=DpcImportance.HIGH)
        kernel.dpc_queue.insert(d1, 0)
        kernel.dpc_queue.insert(d2, 0)
        kernel.dpc_queue.insert(d3, 0)
        kernel._request_schedule_point()
        machine.run_for_ms(1)
        assert order == ["high", "medium1", "medium2"]

    def test_dpc_cannot_wait(self):
        machine, kernel = make_kernel(boot=False)
        event = KEvent()

        def bad_dpc(k, dpc):
            yield Wait(event)

        kernel.queue_dpc(Dpc(bad_dpc, name="bad"))
        with pytest.raises(KernelError):
            machine.run_for_ms(1)

    def test_dpc_queue_coalesces_double_insert(self):
        machine, kernel = make_kernel(boot=False)
        runs = []

        def routine(k, dpc):
            runs.append(k.engine.now)
            yield Run(k.clock.us_to_cycles(10))

        dpc = Dpc(routine, name="once")
        assert kernel.dpc_queue.insert(dpc, 0)
        assert not kernel.dpc_queue.insert(dpc, 0)
        kernel._request_schedule_point()
        machine.run_for_ms(1)
        assert len(runs) == 1


class TestTimers:
    def test_timer_dpc_fires_via_clock_isr(self):
        machine, kernel = make_kernel(pit_hz=1000.0)
        fired = []

        def routine(k, dpc):
            fired.append(k.engine.now)
            yield Run(10)

        timer = KTimer(name="t")
        kernel.set_timer(timer, due_ms=3.0, dpc=Dpc(routine, name="timer-dpc"))
        machine.run_for_ms(10)
        assert len(fired) == 1
        # Expiry is detected by the next PIT tick at or after the due time:
        # resolution is +/- one PIT period (1 ms), as the paper notes.
        fired_ms = machine.clock.cycles_to_ms(fired[0])
        assert 3.0 <= fired_ms <= 4.6

    def test_periodic_timer_refires(self):
        machine, kernel = make_kernel(pit_hz=1000.0)
        fired = []

        def routine(k, dpc):
            fired.append(k.engine.now)
            yield Run(10)

        timer = KTimer(name="p")
        kernel.set_timer(timer, due_ms=2.0, dpc=Dpc(routine, name="p-dpc"), period_ms=5.0)
        machine.run_for_ms(30)
        assert len(fired) >= 4

    def test_cancel_timer(self):
        machine, kernel = make_kernel(pit_hz=1000.0)
        fired = []

        def routine(k, dpc):
            fired.append(k.engine.now)
            yield Run(10)

        timer = KTimer(name="c")
        kernel.set_timer(timer, due_ms=5.0, dpc=Dpc(routine, name="c-dpc"))
        assert kernel.cancel_timer(timer)
        machine.run_for_ms(20)
        assert fired == []

    def test_thread_wait_on_timer(self):
        machine, kernel = make_kernel(pit_hz=1000.0)
        woke = []

        def body(k, t):
            timer = KTimer(name="sleep")
            k.set_timer(timer, 4.0)
            yield Wait(timer)
            woke.append(k.engine.now)

        kernel.create_thread("sleeper", 8, body)
        machine.run_for_ms(20)
        assert len(woke) == 1
        assert machine.clock.cycles_to_ms(woke[0]) >= 4.0


class TestIrqlDiscipline:
    def test_thread_at_dispatch_blocks_dpc_drain(self):
        machine, kernel = make_kernel(boot=False)
        order = []

        def routine(k, dpc):
            order.append("dpc")
            yield Run(10)

        def body(k, t):
            k.raise_irql(irql.DISPATCH_LEVEL)
            k.queue_dpc(Dpc(routine, name="d"))
            order.append("raised")
            yield Run(k.clock.ms_to_cycles(1.0))
            k.lower_irql(irql.PASSIVE_LEVEL)
            order.append("lowered")
            yield Run(k.clock.ms_to_cycles(0.1))

        kernel.create_thread("t", 8, body)
        machine.run_for_ms(5)
        assert order.index("dpc") > order.index("lowered")

    def test_raise_irql_from_dpc_rejected(self):
        machine, kernel = make_kernel(boot=False)

        def routine(k, dpc):
            k.raise_irql(5)
            yield Run(10)

        kernel.queue_dpc(Dpc(routine, name="bad"))
        with pytest.raises(KernelError):
            machine.run_for_ms(1)


class TestStats:
    def test_context_switches_counted(self):
        machine, kernel = make_kernel(boot=False)

        def body(k, t):
            for _ in range(3):
                yield Run(k.clock.ms_to_cycles(0.5))

        kernel.create_thread("a", 8, body)
        kernel.create_thread("b", 8, body)
        machine.run_for_ms(30)
        assert kernel.stats.context_switches >= 2

    def test_pit_interrupts_delivered_at_programmed_rate(self):
        machine, kernel = make_kernel(pit_hz=1000.0)
        machine.run_for_ms(100)
        delivered = kernel.stats.per_vector.get("pit", 0)
        assert 95 <= delivered <= 101
