"""A deterministic discrete-event simulation engine.

Time is an integer number of CPU cycles.  Events scheduled for the same
cycle fire in insertion order (a monotonically increasing sequence number
breaks ties), which keeps runs fully deterministic.

The engine deliberately knows nothing about CPUs, kernels or interrupts --
it is a plain priority queue of callbacks.  Cancellation is handled lazily:
:meth:`EventHandle.cancel` marks the entry and the main loop discards
cancelled entries as they surface, which keeps both operations O(log n).

Hot-path design
---------------
Heap entries are ``[time, seq, fn, args, state, ...]`` lists, so ``heapq``
orders them with C-level list comparison (``seq`` is unique, comparison
never reaches the callable).  :class:`EventHandle` *is* such a list -- a
``list`` subclass with the cancellation API on top -- so scheduling costs a
single allocation and no Python-level ``__init__`` or ``__lt__`` calls.
Fire-and-forget callers (device interrupt sources, Poisson intrusion
streams, deferred polls) should use :meth:`Engine.post_at` /
:meth:`Engine.post_in`, which push bare lists and skip the handle subclass
entirely; strictly periodic callers (the 1 kHz PIT tick that dominates real
campaigns) should use :meth:`Engine.schedule_periodic`, which re-arms by
recycling one entry list -- zero allocations per tick.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

# Heap-entry field indices.  Handle-backed entries carry the owning engine
# in a sixth slot so ``cancel`` can maintain the live-event counter; bare
# entries from ``post_at``/``post_in``/periodic timers stop at ``state``.
# ``fn is None`` marks a dead entry for the pop loops; ``state``
# distinguishes fired from cancelled for handles.
_TIME, _SEQ, _FN, _ARGS, _STATE, _ENGINE = 0, 1, 2, 3, 4, 5
_PENDING, _FIRED, _CANCELLED = 0, 1, 2


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples include scheduling an event in the simulated past or running a
    finished engine.
    """


class EventHandle(list):
    """A cancellable reference to a scheduled event.

    Handles are returned by :meth:`Engine.schedule_at` /
    :meth:`Engine.schedule_in`.  They are single-use: once the event has
    fired or been cancelled the handle is inert.

    Implementation note: the handle is the heap entry itself (a ``list``
    subclass), so the priority queue orders handles with C-level list
    comparison and scheduling allocates exactly one object.
    """

    __slots__ = ()

    @property
    def time(self) -> int:
        return self[_TIME]

    @property
    def seq(self) -> int:
        return self[_SEQ]

    @property
    def cancelled(self) -> bool:
        return self[_STATE] == _CANCELLED

    @property
    def fired(self) -> bool:
        return self[_STATE] == _FIRED

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was still pending, ``False`` if it had
        already fired or been cancelled (in which case this is a no-op).
        """
        if self[_STATE] != _PENDING:
            return False
        self[_STATE] = _CANCELLED
        self[_FN] = None  # break reference cycles early
        self[_ARGS] = ()
        self[_ENGINE]._dead += 1
        return True

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return self[_STATE] == _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<EventHandle t={self[_TIME]} seq={self[_SEQ]} {state}>"


class PeriodicHandle:
    """A self-re-arming periodic event (see :meth:`Engine.schedule_periodic`).

    The callback fires every ``period`` cycles.  Re-arming recycles the same
    heap-entry list, so a steady timer costs no allocations per tick.  The
    period may be changed on the fly; :meth:`set_period` reschedules the
    next tick from *now*, matching how reprogramming a hardware timer chip
    restarts its countdown.
    """

    __slots__ = ("_engine", "period", "_fn", "_entry", "_running")

    def __init__(self, engine: "Engine", period: int, fn: Callable[[], Any]):
        if period <= 0:
            raise SimulationError(f"periodic events need a positive period, got {period}")
        self._engine = engine
        self.period = int(period)
        self._fn = fn
        self._entry: Optional[list] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Arm the timer: first fire one period from now (idempotent)."""
        if self._running:
            return
        self._running = True
        self._arm()

    def stop(self) -> None:
        """Cancel the pending tick (idempotent)."""
        self._running = False
        entry = self._entry
        if entry is not None and entry[_STATE] == _PENDING:
            entry[_STATE] = _CANCELLED
            entry[_FN] = None
            self._engine._dead += 1
        self._entry = None

    def set_period(self, period: int) -> None:
        """Change the period; if running, the countdown restarts from now."""
        if period <= 0:
            raise SimulationError(f"periodic events need a positive period, got {period}")
        self.period = int(period)
        if self._running:
            self.stop()
            self._running = True
            self._arm()

    def _arm(self) -> None:
        engine = self._engine
        engine._seq += 1
        entry = [engine.now + self.period, engine._seq, self._tick, (), _PENDING]
        self._entry = entry
        heapq.heappush(engine._heap, entry)

    def _tick(self) -> None:
        # Re-arm first (recycling the just-fired entry) so the callback may
        # stop() or set_period() and see consistent state.
        engine = self._engine
        entry = self._entry
        if self._running and entry is not None:
            engine._seq += 1
            entry[_TIME] = engine.now + self.period
            entry[_SEQ] = engine._seq
            entry[_FN] = self._tick
            entry[_STATE] = _PENDING
            heapq.heappush(engine._heap, entry)
        self._fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self._running else "stopped"
        return f"<PeriodicHandle period={self.period} {state}>"


class Engine:
    """The discrete-event simulator.

    Attributes:
        now: Current simulated time in CPU cycles.  Monotonically
            non-decreasing.
        events_processed: Count of events that have fired, for diagnostics
            and performance reporting.
    """

    # The engine's attributes are read on every event pop; __slots__ keeps
    # them out of a per-instance dict so the hot loop's loads stay cheap.
    __slots__ = (
        "now",
        "events_processed",
        "_heap",
        "_seq",
        "_dead",
        "_running",
        "_run_target",
        "spans_fast_forwarded",
        "ticks_fast_forwarded",
        "tape_frames",
        "interpreted_frames",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self._heap: List[list] = []
        self._seq: int = 0
        self._dead: int = 0  # cancelled entries still sitting in the heap
        self._running = False
        #: Absolute target of the in-progress :meth:`run_until`, or ``None``
        #: outside one.  A virtual-time fast-forward layer (the kernel's
        #: idle-span batch settle) is only sound when the run has a known
        #: horizon, so eligibility checks read this instead of guessing.
        self._run_target: Optional[int] = None
        # Fast-forward observability (see Kernel._try_fast_forward): spans
        # analytically settled, ticks batch-settled inside them, and --
        # maintained by the kernel's delivery/drain paths -- how many
        # frames executed from a compiled tape vs the generator
        # interpreter.  events_processed includes batch-settled events (the
        # settle replicates their counters exactly), so these counters are
        # what makes "executed fewer events" visible rather than silent.
        self.spans_fast_forwarded: int = 0
        self.ticks_fast_forwarded: int = 0
        self.tape_frames: int = 0
        self.interpreted_frames: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute cycle ``time``."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at cycle {time}; current time is {self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        handle = EventHandle((time, seq, fn, args, 0, self))
        heappush(self._heap, handle)
        return handle

    def schedule_in(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq + 1
        self._seq = seq
        handle = EventHandle((self.now + delay, seq, fn, args, 0, self))
        heappush(self._heap, handle)
        return handle

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if time.__class__ is not int:
            time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at cycle {time}; current time is {self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, [time, seq, fn, args, 0])

    def post_in(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_in`: no handle, not cancellable."""
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, [self.now + delay, seq, fn, args, 0])

    def repost_in(self, entry: list, delay: int) -> None:
        """Re-arm a self-rescheduling event's own heap entry.

        For callbacks that re-post themselves on every fire (Poisson
        arrival sources): the bare-list entry the run loop just popped is
        rewritten in place and pushed back, so a steady source costs no
        list/tuple allocations per event.  The caller must own ``entry``
        (``[time, seq, fn, args, state]``) and may only call this while
        the entry is out of the heap -- i.e. from the entry's own callback
        or before first arming.  Sequence numbers are allocated exactly as
        :meth:`post_in` would, so event ordering is unchanged.
        """
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq + 1
        self._seq = seq
        entry[_TIME] = self.now + delay
        entry[_SEQ] = seq
        entry[_STATE] = _PENDING
        heappush(self._heap, entry)

    def schedule_periodic(
        self, period: int, fn: Callable[[], Any], start: bool = True
    ) -> PeriodicHandle:
        """Schedule ``fn()`` every ``period`` cycles (allocation-free ticks).

        Returns a :class:`PeriodicHandle`; pass ``start=False`` to create it
        disarmed.  The callback takes no arguments.
        """
        handle = PeriodicHandle(self, period, fn)
        if start:
            handle.start()
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events until simulated time reaches ``time`` cycles.

        Events scheduled exactly at ``time`` are executed.  The clock is
        advanced to ``time`` even if the queue drains early, so back-to-back
        ``run_until`` calls tile cleanly.

        Args:
            time: Absolute target time in cycles.
            max_events: Optional safety valve; at most this many events fire
                before :class:`SimulationError` is raised.

        Returns:
            The number of events processed during this call.  Events
            batch-settled by a fast-forward layer (see
            ``Kernel._try_fast_forward``) are included in
            ``events_processed`` but not in this count or the
            ``max_events`` valve -- they never individually fire.
        """
        time = int(time)
        if time < self.now:
            raise SimulationError(f"cannot run backwards to {time} from {self.now}")
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._run_target = time
        fired = 0
        # The fired count never reaches -1, so an unvalved run never trips.
        valve = -1 if max_events is None else max_events
        heap = self._heap
        pop = heappop
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]
                if fn is None:  # cancelled; discard lazily
                    pop(heap)
                    self._dead -= 1
                    continue
                event_time = entry[0]
                if event_time > time:
                    break
                if fired == valve:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before reaching cycle {time}"
                    )
                pop(heap)
                self.now = event_time
                entry[4] = 1  # fired
                fired += 1
                args = entry[3]
                if args:
                    fn(*args)
                else:
                    fn()
        finally:
            self._running = False
            self._run_target = None
            self.events_processed += fired
        if self.now < time:
            self.now = time
        return fired

    def run_for(self, cycles: int, max_events: Optional[int] = None) -> int:
        """Run for ``cycles`` cycles from the current time."""
        return self.run_until(self.now + int(cycles), max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the event queue is empty (at most ``max_events`` fire)."""
        fired = 0
        heap = self._heap
        pop = heappop
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]
                if fn is None:  # cancelled; discard lazily
                    pop(heap)
                    self._dead -= 1
                    continue
                if fired == max_events:
                    raise SimulationError(f"drain exceeded {max_events} events")
                pop(heap)
                self.now = entry[0]
                entry[4] = 1  # fired
                fired += 1
                args = entry[3]
                if args:
                    fn(*args)
                else:
                    fn()
        finally:
            self.events_processed += fired
        return fired

    @property
    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._heap) - self._dead

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self.now} pending={self.pending_count}>"
