"""Scheduler edge cases beyond the core tests."""

import pytest

from repro.kernel.objects import KEvent, KSemaphore, WaitStatus
from repro.kernel.requests import Run, Wait
from repro.kernel.threads import (
    KThread,
    ReadyQueues,
    ThreadState,
    REALTIME_PRIORITY_DEFAULT,
)
from repro.kernel.kernel import KernelError
from tests.conftest import make_bare_kernel


class TestReadyQueues:
    def make_thread(self, name, priority):
        thread = KThread(name, priority)
        thread.state = ThreadState.READY
        return thread

    def test_highest_priority_selection(self):
        queues = ReadyQueues()
        low = self.make_thread("low", 5)
        high = self.make_thread("high", 20)
        queues.enqueue(low)
        queues.enqueue(high)
        assert queues.highest_priority() == 20
        assert queues.pop_highest() is high
        assert queues.pop_highest() is low
        assert queues.pop_highest() is None

    def test_front_insertion_for_preempted(self):
        queues = ReadyQueues()
        first = self.make_thread("first", 8)
        preempted = self.make_thread("preempted", 8)
        queues.enqueue(first)
        queues.enqueue(preempted, front=True)
        assert queues.pop_highest() is preempted

    def test_remove(self):
        queues = ReadyQueues()
        thread = self.make_thread("t", 8)
        queues.enqueue(thread)
        assert queues.remove(thread)
        assert not queues.remove(thread)
        assert queues.highest_priority() == -1

    def test_enqueue_requires_ready_state(self):
        queues = ReadyQueues()
        thread = KThread("t", 8)
        with pytest.raises(RuntimeError):
            queues.enqueue(thread)

    def test_has_ready_at(self):
        queues = ReadyQueues()
        queues.enqueue(self.make_thread("t", 8))
        assert queues.has_ready_at(8)
        assert not queues.has_ready_at(9)

    def test_len(self):
        queues = ReadyQueues()
        queues.enqueue(self.make_thread("a", 3))
        queues.enqueue(self.make_thread("b", 3))
        assert len(queues) == 2

    def test_invalid_priority_rejected(self):
        with pytest.raises(ValueError):
            KThread("bad", 0)
        with pytest.raises(ValueError):
            KThread("bad", 32)

    def test_realtime_default(self):
        assert REALTIME_PRIORITY_DEFAULT == 24
        assert KThread("rt", 24).realtime
        assert not KThread("n", 15).realtime


class TestSchedulerBehaviour:
    def test_three_way_priority_chain(self):
        machine, kernel = make_bare_kernel()
        order = []

        def body(name, burst_ms):
            def gen(k, t):
                order.append(name)
                yield Run(k.clock.ms_to_cycles(burst_ms))
                order.append(name + "-done")

            return gen

        kernel.create_thread("lo", 4, body("lo", 5.0))
        machine.run_for_ms(0.5)
        kernel.create_thread("mid", 8, body("mid", 5.0))
        machine.run_for_ms(0.5)
        kernel.create_thread("hi", 12, body("hi", 1.0))
        machine.run_for_ms(30)
        assert order.index("hi-done") < order.index("mid-done") < order.index("lo-done")

    def test_preempted_thread_resumes_before_queued_peers(self):
        machine, kernel = make_bare_kernel()
        order = []

        def victim(k, t):
            order.append("victim-start")
            yield Run(k.clock.ms_to_cycles(4.0))
            order.append("victim-done")

        def peer(k, t):
            order.append("peer")
            yield Run(k.clock.ms_to_cycles(1.0))

        def bully(k, t):
            order.append("bully")
            yield Run(k.clock.ms_to_cycles(0.5))

        kernel.create_thread("victim", 8, victim)
        machine.run_for_ms(1.0)  # victim is mid-burst
        kernel.create_thread("peer", 8, peer)  # queued behind victim
        kernel.create_thread("bully", 15, bully)  # preempts victim
        machine.run_for_ms(20)
        # After the bully, the preempted victim continues (head of queue),
        # then the peer runs.
        assert order.index("bully") < order.index("victim-done") < order.index("peer")

    def test_thread_exit_releases_cpu(self):
        machine, kernel = make_bare_kernel()
        ran = []

        def quick(k, t):
            yield Run(1000)
            ran.append("quick")

        def background(k, t):
            while True:
                ran.append("bg")
                yield Run(k.clock.ms_to_cycles(1.0))

        kernel.create_thread("quick", 20, quick)
        kernel.create_thread("bg", 5, background)
        machine.run_for_ms(5)
        assert "quick" in ran
        assert ran.count("bg") >= 3

    def test_wait_on_semaphore_counts(self):
        machine, kernel = make_bare_kernel()
        sem = KSemaphore(initial=2, name="s")
        acquired = []

        def worker(name):
            def gen(k, t):
                status = yield Wait(sem)
                acquired.append((name, status))
                yield Run(k.clock.ms_to_cycles(1.0))

            return gen

        for i in range(3):
            kernel.create_thread(f"w{i}", 8, worker(f"w{i}"))
        machine.run_for_ms(5)
        # Only two tokens: third worker still blocked.
        assert len(acquired) == 2

        def releaser(k, t):
            k.release_semaphore(sem)
            yield Run(10)

        kernel.create_thread("rel", 10, releaser)
        machine.run_for_ms(5)
        assert len(acquired) == 3
        assert all(status is WaitStatus.OBJECT for _, status in acquired)

    def test_semaphore_over_release_rejected(self):
        machine, kernel = make_bare_kernel()
        sem = KSemaphore(initial=1, maximum=1)
        with pytest.raises(OverflowError):
            kernel.release_semaphore(sem)

    def test_set_priority_of_waiting_thread(self):
        machine, kernel = make_bare_kernel()
        event = KEvent(synchronization=True)
        woke = []

        def sleeper(k, t):
            yield Wait(event)
            woke.append(k.engine.now)
            yield Run(10)

        thread = kernel.create_thread("sleeper", 8, sleeper)
        machine.run_for_ms(1)
        kernel.set_thread_priority(thread, 30)
        assert thread.priority == 30
        kernel.set_event(event)
        machine.run_for_ms(1)
        assert woke

    def test_zero_time_infinite_loop_detected(self):
        machine, kernel = make_bare_kernel()

        def spinner(k, t):
            while True:
                yield Run(0)  # never consumes time

        kernel.create_thread("spin", 8, spinner)
        with pytest.raises(KernelError):
            machine.run_for_ms(1)

    def test_many_threads_all_make_progress(self):
        machine, kernel = make_bare_kernel()
        progress = {}

        def body(name):
            def gen(k, t):
                for _ in range(5):
                    progress[name] = progress.get(name, 0) + 1
                    yield Run(k.clock.ms_to_cycles(0.2))

            return gen

        for i in range(20):
            kernel.create_thread(f"t{i}", 8, body(f"t{i}"))
        machine.run_for_ms(200)
        assert len(progress) == 20
        assert all(count == 5 for count in progress.values())
