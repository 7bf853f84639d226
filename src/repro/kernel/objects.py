"""Dispatcher objects: events, semaphores and timers.

These are the kernel synchronisation primitives the paper's measurement
driver uses.  The crucial distinction it calls out (section 2.2's
definitions) is between a *Synchronization Event*, which auto-clears after
satisfying a single wait, and a *Notification Event*, which satisfies all
outstanding waits and stays signalled, "as do Unix kernel events".
"""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.dpc import Dpc
    from repro.kernel.threads import KThread


class WaitStatus(enum.Enum):
    """Result of a wait, sent back into the waiting generator."""

    OBJECT = "wait_object_0"
    TIMEOUT = "timeout"


class DispatcherObject:
    """Base class for everything a thread can wait on."""

    # Dispatcher objects sit on the wait/wake hot paths; slotted layouts
    # (here and in each subclass) keep state loads off per-instance dicts.
    __slots__ = ("name", "waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self.waiters: List["KThread"] = []

    # -- interface used by the kernel wait machinery -------------------
    def is_signaled(self) -> bool:
        raise NotImplementedError

    def can_satisfy(self, thread: "KThread") -> bool:
        """Whether a wait by ``thread`` would complete without blocking.

        Defaults to plain signal state; ownership-aware objects (mutexes)
        override it for recursive acquisition.
        """
        return self.is_signaled()

    def consume(self, thread: "KThread") -> None:
        """Called when ``thread``'s wait is satisfied without blocking."""
        raise NotImplementedError

    def add_waiter(self, thread: "KThread") -> None:
        self.waiters.append(thread)

    def remove_waiter(self, thread: "KThread") -> None:
        if thread in self.waiters:
            self.waiters.remove(thread)

    def take_waiters_to_wake(self) -> List["KThread"]:
        """Threads released by a signal, per object semantics."""
        raise NotImplementedError


class KEvent(DispatcherObject):
    """A kernel event.

    Args:
        synchronization: ``True`` for a Synchronization Event (auto-clears
            after releasing one waiter -- the kind the latency driver's
            ``gEvent`` is); ``False`` for a Notification Event (releases
            everyone and stays signalled).
        initial_state: Whether the event starts signalled.
    """

    __slots__ = ("synchronization", "signaled")

    def __init__(self, synchronization: bool = True, initial_state: bool = False, name: str = ""):
        super().__init__(name=name)
        self.synchronization = synchronization
        self.signaled = initial_state

    def is_signaled(self) -> bool:
        return self.signaled

    def consume(self, thread: "KThread") -> None:
        if self.synchronization:
            self.signaled = False

    def set(self) -> None:
        """``KeSetEvent``: raw state change (kernel wakes waiters)."""
        self.signaled = True

    def clear(self) -> None:
        """``KeClearEvent``."""
        self.signaled = False

    def take_waiters_to_wake(self) -> List["KThread"]:
        if not self.waiters:
            return []
        if self.synchronization:
            # FIFO release of exactly one waiter; event auto-clears.
            woken = [self.waiters.pop(0)]
            self.signaled = False
            return woken
        woken = list(self.waiters)
        self.waiters.clear()
        return woken


class KSemaphore(DispatcherObject):
    """A counted semaphore (``KeReleaseSemaphore``/wait)."""

    __slots__ = ("count", "maximum")

    def __init__(self, initial: int = 0, maximum: int = 0x7FFFFFFF, name: str = ""):
        super().__init__(name=name)
        if initial < 0 or maximum <= 0 or initial > maximum:
            raise ValueError(f"invalid semaphore bounds initial={initial} maximum={maximum}")
        self.count = initial
        self.maximum = maximum

    def is_signaled(self) -> bool:
        return self.count > 0

    def consume(self, thread: "KThread") -> None:
        if self.count <= 0:
            raise RuntimeError("consume on unsignaled semaphore")
        self.count -= 1

    def release(self, adjustment: int = 1) -> None:
        """Raw state change; the kernel wakes waiters afterwards."""
        if adjustment <= 0:
            raise ValueError(f"adjustment must be positive, got {adjustment}")
        if self.count + adjustment > self.maximum:
            raise OverflowError(f"semaphore {self.name!r} over maximum")
        self.count += adjustment

    def take_waiters_to_wake(self) -> List["KThread"]:
        woken: List["KThread"] = []
        while self.waiters and self.count > 0:
            woken.append(self.waiters.pop(0))
            self.count -= 1
        return woken


class KMutex(DispatcherObject):
    """A kernel mutex with ownership and recursive acquisition.

    Signalled when unowned.  A wait acquires it (recursively for the
    current owner); ``release`` (via ``Kernel.release_mutex``) drops one
    recursion level and, at zero, hands the mutex to the next waiter FIFO.
    """

    __slots__ = ("owner", "recursion")

    def __init__(self, name: str = ""):
        super().__init__(name=name)
        self.owner: Optional["KThread"] = None
        self.recursion = 0

    def is_signaled(self) -> bool:
        return self.owner is None

    def can_satisfy(self, thread: "KThread") -> bool:
        return self.owner is None or self.owner is thread

    def consume(self, thread: "KThread") -> None:
        if self.owner is None:
            self.owner = thread
            self.recursion = 1
        elif self.owner is thread:
            self.recursion += 1
        else:  # pragma: no cover - guarded by can_satisfy
            raise RuntimeError(f"mutex {self.name!r} consumed while owned")

    def release(self, thread: "KThread") -> bool:
        """Drop one recursion level; returns True when fully released.

        Raises if ``thread`` is not the owner (releasing a mutex you do not
        hold bugchecks a real kernel too).
        """
        if self.owner is not thread:
            raise RuntimeError(
                f"thread {thread.name!r} released mutex {self.name!r} "
                f"owned by {self.owner.name if self.owner else None!r}"
            )
        self.recursion -= 1
        if self.recursion > 0:
            return False
        self.owner = None
        return True

    def take_waiters_to_wake(self) -> List["KThread"]:
        if self.owner is not None or not self.waiters:
            return []
        next_owner = self.waiters.pop(0)
        self.owner = next_owner
        self.recursion = 1
        return [next_owner]


class KTimer(DispatcherObject):
    """A waitable kernel timer, optionally with an associated DPC.

    ``KeSetTimer`` arms the timer; when the clock (PIT) ISR notices it has
    expired it queues the associated DPC -- exactly the paper's measurement
    path ("The PIT ISR will enqueue LatDpcRoutine in the DPC queue") -- and
    signals the timer object.  NT 4.0 added periodic timers (the paper notes
    this); ``period_ms`` models them.
    """

    __slots__ = ("signaled", "due_cycles", "period_ms", "dpc")

    def __init__(self, name: str = ""):
        super().__init__(name=name)
        self.signaled = False
        self.due_cycles: Optional[int] = None
        self.period_ms: Optional[float] = None
        self.dpc: Optional["Dpc"] = None

    def is_signaled(self) -> bool:
        return self.signaled

    def consume(self, thread: "KThread") -> None:
        # Timers behave like notification objects for waiters by default;
        # NT synchronization timers exist but the tools do not use them.
        pass

    def take_waiters_to_wake(self) -> List["KThread"]:
        woken = list(self.waiters)
        self.waiters.clear()
        return woken
