"""Kernel threads and the preemptive priority scheduler.

Win32 priorities 1-15 are the normal (timesliced, dynamic) class and 16-31
the real-time class; 24 is the real-time default (section 2.2's
definitions).  The scheduler is strict-priority preemptive with round-robin
timeslicing among equal-priority ready threads -- the behaviour that makes
the paper's NT "work item thread at real-time default priority" compete
with a priority-24 measurement thread while never delaying a priority-28
one.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

REALTIME_PRIORITY_MIN = 16
REALTIME_PRIORITY_MAX = 31
REALTIME_PRIORITY_DEFAULT = 24
NORMAL_PRIORITY_MIN = 1
NORMAL_PRIORITY_MAX = 15
PRIORITY_LEVELS = 32


class ThreadState(enum.Enum):
    INITIALIZED = "initialized"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    TERMINATED = "terminated"


class KThread:
    """A kernel-mode thread.

    Attributes:
        name: Identifier for diagnostics.
        priority: Win32 priority 1-31.
        module: Cause-tool module label for code this thread runs.
        system: Marks kernel-internal threads (work-item servicer, the
            Win98 "VMM section" executor) so reports can separate them from
            driver/application threads.
    """

    # Scheduler hot paths (dispatch, make-ready, wait handling) read these
    # on every transition; slots keep the loads off a per-instance dict.
    __slots__ = (
        "name",
        "priority",
        "base_priority",
        "module",
        "system",
        "state",
        "frame",
        "waiting_on",
        "wait_any_objs",
        "wait_timeout_handle",
        "quantum_expired_flag",
        "quantum_expiries",
    )

    def __init__(
        self,
        name: str,
        priority: int,
        module: str = "APP",
        system: bool = False,
    ):
        if not NORMAL_PRIORITY_MIN <= priority <= REALTIME_PRIORITY_MAX:
            raise ValueError(
                f"priority {priority} outside [{NORMAL_PRIORITY_MIN}, {REALTIME_PRIORITY_MAX}]"
            )
        self.name = name
        self.priority = priority
        #: Static priority; ``priority`` may sit above it temporarily when
        #: a wait-satisfaction boost is in effect (normal class only).
        self.base_priority = priority
        self.module = module
        self.system = system
        self.state = ThreadState.INITIALIZED
        self.frame = None  # assigned by the kernel at start
        self.waiting_on = None
        self.wait_any_objs = None  # tuple during a WaitAny, else None
        self.wait_timeout_handle = None
        self.quantum_expired_flag = False
        self.quantum_expiries = 0

    @property
    def realtime(self) -> bool:
        return self.priority >= REALTIME_PRIORITY_MIN

    @property
    def runnable(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KThread {self.name!r} prio={self.priority} {self.state.value}>"


class ReadyQueues:
    """32-level ready queue with O(1) highest-priority selection."""

    __slots__ = ("_queues", "_mask")

    def __init__(self) -> None:
        self._queues: List[Deque[KThread]] = [deque() for _ in range(PRIORITY_LEVELS)]
        self._mask = 0

    def enqueue(self, thread: KThread, front: bool = False) -> None:
        """Add a READY thread.

        Args:
            front: Put the thread at the head of its priority level.  Used
                for preempted threads, which NT resumes before threads that
                were merely ready.
        """
        if thread.state is not ThreadState.READY:
            raise RuntimeError(f"enqueue of non-ready thread {thread!r}")
        queue = self._queues[thread.priority]
        if front:
            queue.appendleft(thread)
        else:
            queue.append(thread)
        self._mask |= 1 << thread.priority

    def remove(self, thread: KThread) -> bool:
        """Withdraw a thread (e.g. on termination while ready)."""
        queue = self._queues[thread.priority]
        try:
            queue.remove(thread)
        except ValueError:
            return False
        if not queue:
            self._mask &= ~(1 << thread.priority)
        return True

    def highest_priority(self) -> int:
        """Highest priority with a ready thread, or -1 if empty."""
        return self._mask.bit_length() - 1

    def pop_highest(self) -> Optional[KThread]:
        level = self.highest_priority()
        if level < 0:
            return None
        queue = self._queues[level]
        thread = queue.popleft()
        if not queue:
            self._mask &= ~(1 << level)
        return thread

    def has_ready_at(self, priority: int) -> bool:
        """Whether any thread at exactly ``priority`` is ready."""
        return bool(self._mask & (1 << priority))

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)
