"""The kernel execution core.

Implements the WDM scheduling hierarchy on the simulated machine:
interrupt delivery and nesting (by IRQL), the DPC drain at DISPATCH_LEVEL,
and the 32-priority preemptive thread scheduler with timeslicing.

Execution contexts are *frames*.  The running frame is, in order of
precedence: the top of the ISR stack, the active DPC frame, or the current
thread's frame.  Preemption pauses a frame's in-progress ``Run`` segment
(recording the unconsumed cycles) and resumes it when the frame regains the
CPU, so every queueing and preemption delay turns into measurable latency.

Driver/kernel code is a generator yielding :class:`~repro.kernel.requests.Run`
and :class:`~repro.kernel.requests.Wait`; all other services are direct
method calls on :class:`Kernel` (they take zero simulated time, which is
sound because simulated time only advances between yields).

Hand-inlined copies of helpers are kept only where folding them costs
calls on the call-budget cells (benchmarks/call_budget.json).  A comment
"Kept: A / B calls" gives the rise in calls per simulated second on
win98/games / nt4/idle if the copy were folded; "Kept: A > B calls" is a
budget row that folding would push past its limit.  docs/ARCHITECTURE.md,
"Kept hand-inlined copies", has the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from heapq import heappop, heappush
from math import exp as _exp, log as _log
from random import NV_MAGICCONST as _NV_MAGICCONST

from repro.hw.machine import Machine
from repro.hw.pic import InterruptVector
from repro.kernel import irql as irql_mod
from repro.sim.engine import (
    EventHandle,
    _ARGS as _RUN_ARGS,
    _CANCELLED as _RUN_CANCELLED,
    _FIRED as _RUN_FIRED,
    _FN as _RUN_FN,
    _PENDING as _RUN_PENDING,
    _SEQ as _RUN_SEQ,
    _STATE as _RUN_STATE,
    _TIME as _RUN_TIME,
)
from repro.kernel.dpc import Dpc, DpcImportance, DpcQueue
from repro.kernel.objects import (
    DispatcherObject,
    KEvent,
    KMutex,
    KSemaphore,
    KTimer,
    WaitStatus,
)
from repro.kernel.profile import OsProfile
from repro.kernel.requests import Run, Segments, Wait, WaitAny
from repro.kernel.threads import KThread, ReadyQueues, ThreadState


class KernelError(RuntimeError):
    """Illegal use of a kernel service (e.g. blocking wait from a DPC)."""


class BugCheck(RuntimeError):
    """The kernel crashed (the blue screen).

    Raised when kernel-mode code -- an ISR, DPC or kernel thread generator
    -- raises an unhandled exception.  Mirrors real WDM semantics: a driver
    fault at elevated IRQL does not unwind politely, it stops the machine.
    The original exception is attached as ``__cause__`` and the faulting
    context is recorded for post-mortem inspection.

    Attributes:
        stop_code: Symbolic stop code (IRQL_NOT_LESS_OR_EQUAL spirit).
        context: (module, function) of the faulting frame.
        at_cycles: Simulated time of the crash.
    """

    def __init__(self, stop_code: str, context: Tuple[str, str], at_cycles: int):
        super().__init__(
            f"*** STOP: {stop_code} in {context[0]}!{context[1]} at cycle {at_cycles}"
        )
        self.stop_code = stop_code
        self.context = context
        self.at_cycles = at_cycles


class FrameKind(enum.Enum):
    ISR = "isr"
    DPC = "dpc"
    THREAD = "thread"


# Hot-path aliases: enum member and IRQL lookups resolve through two
# attribute loads per use; the run loop touches these on every frame
# transition, so the module-level names are bound once here.
_FK_ISR = FrameKind.ISR
_FK_DPC = FrameKind.DPC
_FK_THREAD = FrameKind.THREAD
_TS_RUNNING = ThreadState.RUNNING
_TS_READY = ThreadState.READY
_DISPATCH_LEVEL = irql_mod.DISPATCH_LEVEL


class Frame:
    """One execution context (ISR instance, DPC drain slot, or thread).

    ISR and DPC frames are short-lived (one per delivery/drain slot) and
    recycled through the kernel's frame free-list; the reuse paths in
    ``Kernel._deliver`` and ``Kernel._maybe_start_dpc_drain`` rewrite the
    fields a finished frame leaves dirty, so a pooled frame is
    indistinguishable from a fresh one.
    """

    __slots__ = (
        "kind",
        "gen",
        "irql",
        "owner",
        "mf_label",
        "run_end",
        "run_entry",
        "run_remaining",
        "run_label",
        "send_value",
        "seg_factory",
        "seg_args",
        "segs",
        "seg_index",
        "seg_running",
    )

    def __init__(self, kind: FrameKind, irql: int, owner: object, mf_label: Tuple[str, str]):
        # Reusable run-end heap entry (see Kernel._begin_run).  It survives
        # frame recycling, since its callback args reference this frame
        # object, which is also reused.
        self.run_entry = None
        self.kind = kind
        self.gen = None
        self.irql = irql
        self.owner = owner
        #: (module, function) of the frame's body, for the cause tool.
        self.mf_label = mf_label
        self.run_end = None  # EventHandle of the active Run segment
        self.run_remaining = 0  # unconsumed cycles of a paused Run
        self.run_label: Optional[Tuple[str, str]] = None
        self.send_value = None
        # Compiled-segment execution state (see _advance_segments).
        self.seg_factory = None  # deferred body factory (called at exec time)
        self.seg_args = ()
        self.segs = None  # the Segments tuple once entered
        self.seg_index = 0  # cursor: next segment to start (or running)
        self.seg_running = False  # segments[seg_index] has an active Run

    @property
    def label(self) -> Tuple[str, str]:
        """(module, function) describing the code currently executing."""
        run_label = self.run_label
        return run_label if run_label is not None else self.mf_label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        module, function = self.mf_label
        return f"<Frame {self.kind.value} irql={self.irql} {module}!{function}>"


@dataclass
class KernelStats:
    """Aggregate kernel activity counters."""

    interrupts_delivered: int = 0
    isr_nest_max: int = 0
    dpcs_executed: int = 0
    context_switches: int = 0
    waits_immediate: int = 0
    per_vector: Dict[str, int] = field(default_factory=dict)


#: Signature of an ISR factory: ``factory(kernel, vector, asserted_at) -> generator``.
IsrFactory = Callable[["Kernel", InterruptVector, int], object]


class Kernel:
    """A booted WDM kernel on a :class:`~repro.hw.machine.Machine`."""

    #: Safety valve on zero-time generator progress, to catch accidental
    #: infinite loops in driver code.
    MAX_ZERO_TIME_STEPS = 10_000

    # Kernel state is probed on every delivery, run completion and
    # dispatch; __slots__ keeps those loads out of an instance dict.
    __slots__ = (
        "machine",
        "engine",
        "clock",
        "tsc",
        "pic",
        "profile",
        "costs",
        "_isr_dispatch_cost",
        "_dpc_dispatch_cost",
        "_context_switch_cost",
        "_quantum_cycles",
        "_clock_isr_cost",
        "_clock_run",
        "_clock_hz",
        "stats",
        "_frame_pool",
        "isr_stack",
        "dpc_frame",
        "dpc_queue",
        "_pending_vectors",
        "_dpc_deque",
        "ready",
        "current_thread",
        "threads",
        "_isr_info",
        "_timers",
        "_pit_hooks",
        "_pit_hooks_draw_rng",
        "fast_forward_enabled",
        "_pit_vector",
        "_pit_deliver_cycles",
        "_sched_point_pending",
        "_int_poll_pending",
        "_in_kernel",
        "_quantum_handle",
        "_booted",
        "bugchecked",
        "last_clock_assert",
        "_run_cli",
    )

    def __init__(self, machine: Machine, profile: OsProfile):
        self.machine = machine
        self.engine = machine.engine
        self.clock = machine.clock
        self.tsc = machine.tsc
        self.pic = machine.pic
        self.profile = profile
        self.costs = profile.cycles(machine.clock)
        # Scalar cost copies: OsProfileCycles is frozen, so lifting the hot
        # ones out of the dataclass saves two attribute hops per delivery.
        self._isr_dispatch_cost = self.costs.isr_dispatch
        self._dpc_dispatch_cost = self.costs.dpc_dispatch
        self._context_switch_cost = self.costs.context_switch
        self._quantum_cycles = self.costs.quantum
        self._clock_isr_cost = self.costs.clock_isr
        # One immutable Run yielded by every clock tick (frozen dataclass,
        # so sharing it across ticks is safe and skips a per-tick __init__).
        self._clock_run = Run(self.costs.clock_isr, label=("HAL", "_clock_isr"))
        self._clock_hz = self.clock.hz  # inlined ms->cycles in _advance_segments
        self.stats = KernelStats()
        #: Free-list of finished ISR/DPC frames (thread frames live as long
        #: as their thread and are never pooled).  A recycled frame has been
        #: fully reset; nothing retains references to finished frames.
        self._frame_pool: List[Frame] = []

        self.isr_stack: List[Frame] = []
        self.dpc_frame: Optional[Frame] = None
        self.dpc_queue = DpcQueue()
        # Live aliases of the PIC's pending list and the DPC queue's deque:
        # both objects are mutated in place and never reassigned, so the
        # hot-path emptiness checks ("anything pending at all?") become a
        # C-level truth test instead of a method call.
        self._pending_vectors = machine.pic._pending_vectors
        self._dpc_deque = self.dpc_queue._queue
        self.ready = ReadyQueues()
        self.current_thread: Optional[KThread] = None
        self.threads: List[KThread] = []

        #: The one ISR table, filled only by connect_interrupt: vector name
        #: -> (factory, compiled, ("HAL", "_<name>_isr"), const_segs,
        #: deliver_cycles), everything _deliver needs in a single dict probe.
        #: "compiled" (see requests.segments_body) is resolved at connect
        #: time so _deliver avoids a per-delivery getattr.
        self._isr_info: Dict[str, tuple] = {}
        self._timers: List[KTimer] = []
        self._pit_hooks: List[Callable[["Kernel", int], None]] = []
        #: True once any installed PIT hook declared ``draws_rng=True``;
        #: such a hook consumes random numbers per tick, so idle spans
        #: containing hook runs can no longer be settled analytically.
        self._pit_hooks_draw_rng = False
        #: Master switch for idle-span fast-forward (see
        #: :meth:`_try_fast_forward`).  On by default; the paired
        #: determinism tests flip it off to prove the skipped spans were
        #: byte-identical no-ops.
        self.fast_forward_enabled = True
        #: The PIT's interrupt vector and its pre-resolved delivery cost
        #: (hardware latency + ISR dispatch), cached at boot for the
        #: fast-forward eligibility math.  ``None`` until boot: fast
        #: forward never engages on an unbooted kernel, whose "pit" vector
        #: may be driven by arbitrary test harness ISRs.
        self._pit_vector = None
        self._pit_deliver_cycles = 0
        self._sched_point_pending = False
        self._int_poll_pending = False
        #: True while kernel frame machinery (a run-completion, deferred
        #: poll, schedule point, quantum fire or wait timeout) is on the
        #: call stack.  Interrupt assertions that arrive then must defer
        #: delivery to a zero-time event; assertions from plain device
        #: callbacks deliver synchronously (see _interrupt_asserted).
        self._in_kernel = False
        self._quantum_handle = None
        #: Mirrors the cli flag of the *active* run segment; only the
        #: running frame can own an active segment, so one slot suffices.
        self._run_cli = False
        self._booted = False
        #: Set when kernel-mode code faulted (see :class:`BugCheck`).
        self.bugchecked = False
        #: Ground truth: assertion time of the most recently serviced clock
        #: interrupt.  Simulator-side knowledge used to validate the
        #: paper's estimated-expiry arithmetic; real drivers cannot see it.
        self.last_clock_assert: Optional[int] = None

        # Assertions can happen while a driver generator is mid-step (e.g.
        # an ISR body asserts another device's line); delivery must wait
        # until the current event callback unwinds, so the hook defers to a
        # zero-time engine event rather than delivering synchronously.
        # Assertions from plain hardware callbacks (PIT tick, device
        # completion, intrusion fire) have no frame state on the stack and
        # skip the deferral event entirely.
        self.pic.delivery_hook = self._interrupt_asserted

    # ==================================================================
    # Boot
    # ==================================================================
    def boot(self) -> None:
        """Connect the clock ISR and start the PIT (idempotent)."""
        if self._booted:
            return
        self._booted = True
        self.connect_interrupt("pit", self._clock_isr_factory)
        # Cache what the idle-span fast-forward needs per eligibility
        # check.  Setting _pit_vector is also the arming condition: boot
        # raises above if "pit" was already connected, so from here on the
        # PIT ISR is guaranteed to be the stock clock ISR whose per-tick
        # work the batch settle replicates.
        self._pit_vector = self.pic.vector("pit")
        self._pit_deliver_cycles = (
            self._pit_vector.latency_cycles + self._isr_dispatch_cost
        )
        self.machine.pit.start()

    # ==================================================================
    # Public kernel services (zero simulated time; call between yields)
    # ==================================================================
    def connect_interrupt(self, vector_name: str, factory: IsrFactory) -> None:
        """``IoConnectInterrupt``: attach an ISR factory to a vector.

        ``factory`` is normally a callable; a :class:`Segments` tuple may be
        passed directly for bodies whose factory would be a side-effect-free
        constant (the delivery path then installs the tuple on the frame
        without a factory trampoline; costs are still resolved at segment
        start, so RNG draw order is unchanged).
        """
        vector = self.pic.vector(vector_name)  # validates existence
        if vector_name in self._isr_info:
            raise KernelError(f"vector {vector_name!r} already connected")
        if isinstance(factory, Segments):
            compiled, const_segs = True, factory
        else:
            compiled, const_segs = bool(getattr(factory, "__wdm_segments__", False)), None
        self._isr_info[vector_name] = self._isr_entry(vector, factory, compiled, const_segs)

    def _isr_entry(self, vector: InterruptVector, factory, compiled: bool, const_segs) -> tuple:
        """One ``_isr_info`` row (see ``__init__``)."""
        return (
            factory,
            compiled,
            ("HAL", f"_{vector.name}_isr"),
            const_segs,
            # Pre-resolved synchronous delivery cost: hardware latency plus
            # the OS's ISR dispatch scalar.  _deliver uses it whenever the
            # interrupt is taken at its assertion instant (the common case
            # from plain hardware callbacks), skipping the residual-latency
            # arithmetic.
            vector.latency_cycles + self._isr_dispatch_cost,
        )

    def register_intrusion_vector(self, name: str, irql: int, latency_us: float = 0.5) -> str:
        """Register a synthetic vector for injected kernel activity.

        Workload/legacy kernel sections (the Win98 VMM's ``cli`` regions,
        SMI-like blackouts) are delivered through the same interrupt
        machinery as real devices; each source gets a private vector so
        edge-triggered coalescing between sources cannot occur.
        """
        self.pic.register(
            InterruptVector(
                name=name, irql=irql, latency_cycles=self.clock.us_to_cycles(latency_us)
            )
        )
        return name

    def install_pit_hook(
        self, hook: Callable[["Kernel", int], None], draws_rng: bool = False
    ) -> None:
        """Install a handler that runs at the clock ISR's first instruction.

        This is the simulation analogue of the paper's two IDT tricks: the
        Windows 98 interrupt-latency driver's private timer handler
        (section 2.2) and the latency-cause tool's PIT hook (section 2.3).
        The hook receives ``(kernel, asserted_at_cycles)`` and runs before
        the OS clock ISR body, in zero simulated time.

        ``draws_rng`` declares that the hook consumes random numbers (or,
        more generally, schedules engine events) per tick.  The idle-span
        fast-forward replays hooks at their exact simulated instants, which
        is only equivalent to real execution for pure-bookkeeping hooks;
        a ``draws_rng=True`` hook disqualifies every span whose hooks would
        have run, keeping RNG stream order byte-identical.
        """
        self._pit_hooks.append(hook)
        if draws_rng:
            self._pit_hooks_draw_rng = True

    def create_thread(
        self,
        name: str,
        priority: int,
        body: Callable,
        module: str = "APP",
        system: bool = False,
        start: bool = True,
    ) -> KThread:
        """``PsCreateSystemThread``: create (and by default start) a thread."""
        thread = KThread(name=name, priority=priority, module=module, system=system)
        frame = Frame(_FK_THREAD, irql_mod.PASSIVE_LEVEL, thread, (module, name))
        frame.gen = body(self, thread)
        thread.frame = frame
        self.threads.append(thread)
        if start:
            self.start_thread(thread)
        return thread

    def start_thread(self, thread: KThread) -> None:
        if thread.state is not ThreadState.INITIALIZED:
            raise KernelError(f"thread {thread.name!r} already started")
        thread.state = _TS_READY
        self.ready.enqueue(thread)
        self._request_schedule_point()

    def set_thread_priority(self, thread: KThread, priority: int) -> None:
        """``KeSetPriorityThread``: sets the *base* priority."""
        if not 1 <= priority <= 31:
            raise KernelError(f"priority {priority} out of range")
        thread.base_priority = priority
        if thread.priority == priority:
            return
        if thread.state is _TS_READY:
            self.ready.remove(thread)
            thread.priority = priority
            self.ready.enqueue(thread)
        else:
            thread.priority = priority
        self._request_schedule_point()

    def _apply_wait_boost(self, thread: KThread) -> None:
        """NT dynamic priority: boost a normal-class thread on wake."""
        boost = self.profile.wait_boost
        if boost <= 0 or thread.base_priority >= 16:
            return
        boosted = min(15, thread.base_priority + boost)
        if boosted > thread.priority:
            thread.priority = boosted

    def _decay_boost(self, thread: KThread) -> None:
        """One level of boost decays at each quantum expiry."""
        if thread.priority > thread.base_priority:
            thread.priority -= 1

    def set_event(self, event: KEvent) -> None:
        """``KeSetEvent``: signal an event and release waiters."""
        event.set()
        self._release_waiters(event)

    def release_semaphore(self, sem: KSemaphore, adjustment: int = 1) -> None:
        sem.release(adjustment)
        self._release_waiters(sem)

    def release_mutex(self, mutex: KMutex) -> None:
        """``KeReleaseMutex``: must be called by the owning thread."""
        frame = self._running_frame()
        if frame is None or frame.kind is not _FK_THREAD:
            raise KernelError("release_mutex outside thread context")
        if mutex.release(frame.owner):
            self._release_waiters(mutex)

    def queue_dpc(
        self, dpc: Dpc, context: object = None, importance: Optional[DpcImportance] = None
    ) -> bool:
        """``KeInsertQueueDpc``: legal from any context, including ISRs."""
        if importance is not None:
            dpc.importance = importance
        if not self.dpc_queue.insert(dpc, self.engine.now, context):
            return False
        dpc.enqueue_clock_assert = self.last_clock_assert
        # From ISR/DPC context the unwind at frame completion starts
        # the drain; a deferred schedule point would fire while the
        # frame is still active and no-op.  Only thread/setup context
        # needs the zero-time dispatcher check.
        if not self.isr_stack and self.dpc_frame is None:
            self._request_schedule_point()
        return True

    def set_timer(
        self,
        timer: KTimer,
        due_ms: float,
        dpc: Optional[Dpc] = None,
        period_ms: Optional[float] = None,
    ) -> None:
        """``KeSetTimer``: arm a timer ``due_ms`` from now.

        Expiry is detected by the clock (PIT) ISR, so effective resolution
        is the current PIT period -- the "+/- the cycle time of the PIT"
        imprecision the paper accepts.  ``period_ms`` arms a periodic timer
        (an NT 4.0 addition the paper notes).
        """
        if due_ms < 0:
            raise KernelError(f"due_ms must be non-negative, got {due_ms}")
        if period_ms is not None and period_ms <= 0:
            raise KernelError(f"period_ms must be positive, got {period_ms}")
        timer.signaled = False
        timer.due_cycles = self.engine.now + self.clock.ms_to_cycles(due_ms)
        timer.period_ms = period_ms
        timer.dpc = dpc
        if timer not in self._timers:
            self._timers.append(timer)

    def cancel_timer(self, timer: KTimer) -> bool:
        """``KeCancelTimer``."""
        if timer in self._timers:
            self._timers.remove(timer)
            timer.due_cycles = None
            return True
        return False

    def read_tsc(self) -> int:
        """``RDTSC`` (the paper's ``GetCycleCount``)."""
        return self.tsc.read()

    def raise_irql(self, level: int) -> int:
        """``KeRaiseIrql`` from thread context; returns the old level."""
        frame = self._running_frame()
        if frame is None or frame.kind is not _FK_THREAD:
            raise KernelError("raise_irql is only modelled for thread context")
        old = frame.irql
        if level < old:
            raise KernelError(f"cannot raise IRQL downwards ({old} -> {level})")
        frame.irql = irql_mod.validate(level)
        return old

    def lower_irql(self, level: int) -> None:
        """``KeLowerIrql``: may unblock DPC draining and preemption."""
        frame = self._running_frame()
        if frame is None or frame.kind is not _FK_THREAD:
            raise KernelError("lower_irql is only modelled for thread context")
        if level > frame.irql:
            raise KernelError(f"cannot lower IRQL upwards ({frame.irql} -> {level})")
        frame.irql = irql_mod.validate(level)
        self._request_schedule_point()

    # ==================================================================
    # Introspection (used by the cause tool and tests)
    # ==================================================================
    def _running_frame(self) -> Optional[Frame]:
        if self.isr_stack:
            return self.isr_stack[-1]
        if self.dpc_frame is not None:
            return self.dpc_frame
        if self.current_thread is not None:
            return self.current_thread.frame
        return None

    def current_execution_label(self) -> Tuple[str, str]:
        """(module, function) of whatever the CPU is executing right now."""
        frame = self._running_frame()
        if frame is None:
            return ("HAL", "_idle_loop")
        return frame.label

    def interrupted_execution_label(self) -> Tuple[str, str]:
        """(module, function) of the code an in-progress ISR interrupted.

        What an IDT-hook sampler sees: the instruction pointer saved in the
        interrupt stack frame, i.e. the context *below* the currently
        executing ISR.  Falls back to :meth:`current_execution_label` when
        no ISR is active.
        """
        if self.isr_stack:
            if len(self.isr_stack) >= 2:
                return self.isr_stack[-2].label
            if self.dpc_frame is not None:
                return self.dpc_frame.label
            if self.current_thread is not None:
                return self.current_thread.frame.label
            return ("HAL", "_idle_loop")
        return self.current_execution_label()

    def execution_context_stack(self) -> List[Tuple[str, str]]:
        """The full context chain, outermost first.

        What a stack-walking sampler (the paper's section 6.1 "walk the
        stack so as to generate call trees") would reconstruct: the thread
        at the bottom, then the DPC it was preempted by, then nested ISRs.
        """
        stack: List[Tuple[str, str]] = []
        if self.current_thread is not None:
            stack.append(self.current_thread.frame.label)
        if self.dpc_frame is not None:
            stack.append(self.dpc_frame.label)
        for frame in self.isr_stack:
            stack.append(frame.label)
        if not stack:
            stack.append(("HAL", "_idle_loop"))
        return stack

    # ==================================================================
    # Interrupt delivery
    # ==================================================================
    def _interrupt_asserted(self) -> None:
        """PIC delivery hook: deliver now if safe, else defer one event.

        When kernel frame machinery is mid-step the assertion must wait for
        the current event callback to unwind (a zero-time engine event);
        from a plain hardware callback the frames are all at rest and the
        interrupt can be delivered synchronously, skipping the event.
        """
        if self._in_kernel:
            self._request_interrupt_poll()
            return
        self._in_kernel = True
        self._poll_interrupts()
        self._in_kernel = False

    def _request_interrupt_poll(self) -> None:
        if self._int_poll_pending:
            return
        self._int_poll_pending = True
        self.engine.post_at(self.engine.now, self._deferred_interrupt_poll)

    def _deferred_interrupt_poll(self) -> None:
        self._int_poll_pending = False
        self._in_kernel = True
        self._poll_interrupts()
        self._in_kernel = False

    def _poll_interrupts(self) -> bool:
        """Deliver the best pending interrupt if the CPU can take it now.

        This runs on every frame transition, so the running-frame walk and
        IRQL derivation are inlined (one pass) rather than calling
        :meth:`_running_frame`, and the active-Run pending check reads the
        heap-entry state slot directly.
        Kept: 2,094 / 596 calls.
        """
        if not self._pending_vectors:
            return False
        isr_stack = self.isr_stack
        if isr_stack:
            frame = isr_stack[-1]
            irql = frame.irql
        elif self.dpc_frame is not None:
            frame = self.dpc_frame
            irql = _DISPATCH_LEVEL
        elif self.current_thread is not None:
            frame = self.current_thread.frame
            irql = frame.irql
        else:
            frame = None
            irql = irql_mod.PASSIVE_LEVEL
        if frame is not None and self._run_cli:
            run_end = frame.run_end
            if run_end is not None and run_end[_RUN_STATE] == _RUN_PENDING:
                return False
        pending = self._pending_vectors
        if len(pending) == 1:
            # highest_pending's single-line fast path, inlined (the common
            # case under load; one call saved per poll).
            vector = pending[0]
            if vector.irql <= irql:
                return False
        else:
            vector = self.pic.highest_pending(irql)
            if vector is None:
                return False
        self._deliver(vector, frame)
        return True

    def _deliver(self, vector: InterruptVector, running: Optional[Frame]) -> None:
        """Deliver ``vector``, preempting ``running`` (the current frame).

        ``running`` is the frame _poll_interrupts already resolved during
        its IRQL walk -- the only caller -- so the walk is not repeated.
        """
        # acknowledge_vector, inlined: _poll_interrupts only hands over
        # vectors it found on the pending list.  Kept, with the pooled
        # frame reset below: 1,552 / 446 calls.
        asserted_at = vector.asserted_at
        vector.asserted_at = None
        self._pending_vectors.remove(vector)
        if running is not None:
            self._pause_run(running)
        name = vector.name
        info = self._isr_info.get(name)
        if info is None:
            # Spurious/unconnected interrupt: swallow with a tiny HAL cost.
            # The row is built per delivery, never stored: a cached row
            # would make connect_interrupt refuse the vector for good.
            info = self._isr_entry(vector, _spurious_isr_factory, False, None)
        factory, compiled, mf_label, const_segs, deliver_cycles = info
        engine = self.engine
        pool = self._frame_pool
        if pool:
            # Frame.__init__, slimmed to the fields a pooled frame actually
            # dirties: _frame_finished cleared gen/owner/segs, the final
            # run completion left run_end None / run_remaining 0 /
            # seg_running False, and the generator driver nulls send_value
            # per step -- so only the identity fields, the stale run label
            # and the segment cursor need rewriting.
            frame = pool.pop()
            frame.kind = _FK_ISR
            frame.irql = vector.irql
            frame.owner = vector
            frame.mf_label = mf_label
            frame.run_label = None
            frame.seg_index = 0
        else:
            frame = Frame(_FK_ISR, vector.irql, vector, mf_label)
        if const_segs is not None:
            # Side-effect-free constant body: install the tuple directly.
            frame.segs = const_segs
            engine.tape_frames += 1
        elif compiled:
            # Defer the factory call to the frame's first instruction so
            # its side effects run at the same simulated instant a
            # generator body's first send would have.
            frame.seg_factory = factory
            frame.seg_args = (self, vector, asserted_at)
            engine.tape_frames += 1
        else:
            frame.gen = factory(self, vector, asserted_at)
            engine.interpreted_frames += 1
        isr_stack = self.isr_stack
        isr_stack.append(frame)
        stats = self.stats
        stats.interrupts_delivered += 1
        per_vector = stats.per_vector
        per_vector[name] = per_vector.get(name, 0) + 1
        if len(isr_stack) > stats.isr_nest_max:
            stats.isr_nest_max = len(isr_stack)
        # Charge the residual hardware latency plus software dispatch cost
        # before the ISR's first instruction executes (fresh frame, so
        # _resume_frame's run_remaining term is zero and is skipped).
        # Synchronous delivery (taken at the assertion instant) is the
        # common case and uses the cost pre-resolved at connect time.
        if asserted_at == engine.now:
            cycles = deliver_cycles
        else:
            hw_residual = asserted_at + vector.latency_cycles - engine.now
            if hw_residual < 0:
                hw_residual = 0
            cycles = hw_residual + self._isr_dispatch_cost
        if cycles > 0:
            self._begin_run(frame, cycles, False, None)
        else:
            self._continue_frame(frame)

    # ==================================================================
    # Frame execution machinery
    # ==================================================================
    def _begin_run(self, frame: Frame, cycles: int, cli: bool, label) -> None:
        frame.run_label = label
        self._run_cli = cli
        # Inlined engine.schedule_in: callers guarantee cycles > 0, so the
        # negative-delay guard is dead weight on the hottest call site in
        # the simulator (one per run segment).
        if cycles.__class__ is not int:
            cycles = int(cycles)
        engine = self.engine
        seq = engine._seq + 1
        engine._seq = seq
        handle = frame.run_entry
        if handle is not None and handle[_RUN_STATE] == _RUN_FIRED:
            # The frame's previous run-end fired, so the entry is out of
            # the heap with fn/args intact: recycle it (zero allocations).
            # Cancelled entries are still *in* the heap awaiting lazy
            # discard and cannot be reused.
            handle[_RUN_TIME] = engine.now + cycles
            handle[_RUN_SEQ] = seq
            handle[_RUN_STATE] = _RUN_PENDING
        else:
            frame.run_entry = handle = EventHandle(
                (engine.now + cycles, seq, self._run_complete, (frame,), 0, engine)
            )
        frame.run_end = handle
        heappush(engine._heap, handle)
        if not cli and self._pending_vectors:
            # A pending higher-IRQL interrupt may preempt immediately.
            self._poll_interrupts()

    def _pause_run(self, frame: Frame) -> None:
        handle = frame.run_end
        if handle is not None and handle[_RUN_STATE] == _RUN_PENDING:
            engine = self.engine
            frame.run_remaining += handle[_RUN_TIME] - engine.now
            # handle.cancel(), inlined (hot: once per preemption).  Kept: 538 / 0 calls.
            handle[_RUN_STATE] = _RUN_CANCELLED
            handle[_RUN_FN] = None
            handle[_RUN_ARGS] = ()
            engine._dead += 1
        frame.run_end = None

    def _resume_frame(self, frame: Frame, extra_cycles: int = 0) -> None:
        """Give the CPU to ``frame`` (it must be the running frame)."""
        cycles = extra_cycles + frame.run_remaining
        frame.run_remaining = 0
        if cycles > 0:
            # _begin_run, inlined (hot: every unwind/switch resumes a
            # frame); run_label is already the resumed segment's label so
            # it needs no write.  In lockstep with _begin_run.  Kept, with
            # the copies in _advance_segments and _drive: 2,604 > 621 calls.
            self._run_cli = False
            if cycles.__class__ is not int:
                cycles = int(cycles)
            engine = self.engine
            seq = engine._seq + 1
            engine._seq = seq
            handle = frame.run_entry
            if handle is not None and handle[_RUN_STATE] == _RUN_FIRED:
                handle[_RUN_TIME] = engine.now + cycles
                handle[_RUN_SEQ] = seq
                handle[_RUN_STATE] = _RUN_PENDING
            else:
                frame.run_entry = handle = EventHandle(
                    (engine.now + cycles, seq, self._run_complete, (frame,), 0, engine)
                )
            frame.run_end = handle
            heappush(engine._heap, handle)
            if self._pending_vectors:
                self._poll_interrupts()
        else:
            self._continue_frame(frame)

    def _run_complete(self, frame: Frame) -> None:
        self._in_kernel = True
        frame.run_end = None
        self._run_cli = False
        if frame.kind is _FK_THREAD:
            thread = frame.owner
            # Quantum may have expired while this segment was in a cli
            # region or while interrupts had the CPU.
            if self._maybe_rotate_quantum(thread):
                self._in_kernel = False
                return
        # _continue_frame and the tape fast-finish, inlined: this callback
        # fires once per completed run segment.  Kept: 1,535 > 1,339 calls.
        segs = frame.segs
        if segs is not None:
            # Tape fast-finish: the final segment of a body with no
            # after-hook just completed, so the frame is done -- skip the
            # walker (its only remaining work would be the cursor dance).
            if frame.seg_running and segs.tail_fast and frame.seg_index == segs.last_index:
                frame.seg_running = False
                frame.seg_index += 1
                self._frame_finished(frame)
            else:
                self._advance_segments(frame, segs)
        elif frame.seg_factory is not None:
            self._enter_segments(frame)
        else:
            self._drive(frame)
        self._in_kernel = False

    def _continue_frame(self, frame: Frame) -> None:
        segs = frame.segs
        if segs is not None:
            self._advance_segments(frame, segs)
            return
        if frame.seg_factory is not None:
            self._enter_segments(frame)
            return
        self._drive(frame)

    # -- compiled-segment execution (see requests.Segments) ------------
    def _enter_segments(self, frame: Frame) -> None:
        """First instruction of a compiled frame: materialise its Segments.

        Runs the deferred body factory (timestamping, request decoding --
        whatever the generator's first send would have executed) and starts
        walking the descriptor tuple.
        """
        factory = frame.seg_factory
        args = frame.seg_args
        frame.seg_factory = None
        frame.seg_args = ()
        try:
            segs = factory(*args)
        except (KernelError, BugCheck):
            raise
        except Exception as exc:
            raise self._bugcheck(frame, exc) from exc
        frame.segs = segs
        frame.seg_index = 0
        frame.seg_running = False
        self._advance_segments(frame, segs)

    def _advance_segments(self, frame: Frame, segs) -> None:
        """Walk a compiled body's segment descriptors.

        The compiled counterpart of :meth:`_drive`: one ``_begin_run`` per
        segment, cursor state on the frame, costs resolved (fixed cycles,
        distribution sample, or callable) at segment start.  Preemption
        pauses the active Run exactly as on the generator path; this method
        only runs at genuine segment boundaries.
        """
        # Walk the pre-compiled tape (see Segments): one flat tuple unpack
        # per segment replaces eight attribute loads on the Segment object.
        tape = segs.tape
        i = frame.seg_index
        n = len(tape)
        try:
            if frame.seg_running:
                # The segment whose Run just completed: fire its after-hook
                # (the code between this yield and the next) and move on.
                frame.seg_running = False
                after = tape[i][7]
                i += 1
                frame.seg_index = i
                if after is not None:
                    after()
            while i < n:
                cycles, sample, dist, rng, cost_fn, cli, label, after = tape[i]
                if cycles is None:
                    if sample is not None:
                        # RngStream.sample_ms_fast (CPython's lognormvariate
                        # Kinderman-Monahan loop) and clock.ms_to_cycles,
                        # inlined: the draw sequence, the loop and the
                        # `ms * hz / 1000.0` conversion stay expression-
                        # identical for bit-for-bit RNG parity.  Kept:
                        # 981 > 609 and 1,060 > 703 calls.
                        if dist.tail_prob > 0.0 and rng.random() < dist.tail_prob:
                            value = dist.tail_scale_ms * (
                                1.0 + rng._paretovariate(dist.tail_alpha) - 1.0
                            )
                        else:
                            rand = rng.random
                            while True:
                                u1 = rand()
                                u2 = 1.0 - rand()
                                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                                if z * z / 4.0 <= -_log(u2):
                                    break
                            value = _exp(dist._log_body_median + z * dist.body_sigma)
                        max_ms = dist.max_ms
                        if value > max_ms:
                            value = max_ms
                        else:
                            min_ms = dist.min_ms
                            if value < min_ms:
                                value = min_ms
                        cycles = int(round(value * self._clock_hz / 1_000.0))
                    elif dist is not None:
                        cycles = int(round(dist.sample_ms(rng) * self._clock_hz / 1_000.0))
                    else:
                        cycles = cost_fn()
                if cycles > 0:
                    frame.seg_index = i
                    frame.seg_running = True
                    # _begin_run, inlined (the hottest begin site: one per
                    # compiled segment), in lockstep.  Kept: 2,604 > 621 calls.
                    frame.run_label = label
                    self._run_cli = cli
                    if cycles.__class__ is not int:
                        cycles = int(cycles)
                    engine = self.engine
                    seq = engine._seq + 1
                    engine._seq = seq
                    handle = frame.run_entry
                    if handle is not None and handle[_RUN_STATE] == _RUN_FIRED:
                        handle[_RUN_TIME] = engine.now + cycles
                        handle[_RUN_SEQ] = seq
                        handle[_RUN_STATE] = _RUN_PENDING
                    else:
                        frame.run_entry = handle = EventHandle(
                            (engine.now + cycles, seq, self._run_complete, (frame,), 0, engine)
                        )
                    frame.run_end = handle
                    heappush(engine._heap, handle)
                    if not cli and self._pending_vectors:
                        self._poll_interrupts()
                    return
                i += 1
                frame.seg_index = i
                if after is not None:
                    after()
        except (KernelError, BugCheck):
            raise
        except Exception as exc:
            raise self._bugcheck(frame, exc) from exc
        self._frame_finished(frame)

    def _drive(self, frame: Frame) -> None:
        """Advance ``frame``'s generator until it runs, blocks or finishes."""
        steps = 0
        max_steps = self.MAX_ZERO_TIME_STEPS
        send = frame.gen.send
        while True:
            steps += 1
            if steps > max_steps:
                raise KernelError(
                    f"{frame!r} made {steps} zero-time steps; infinite loop in driver code?"
                )
            send_value, frame.send_value = frame.send_value, None
            try:
                request = send(send_value)
            except StopIteration:
                self._frame_finished(frame)
                return
            except (KernelError, BugCheck):
                raise
            except Exception as exc:
                raise self._bugcheck(frame, exc) from exc
            if isinstance(request, Run):
                cycles = request.cycles
                if cycles <= 0:
                    continue
                # _begin_run, inlined (one call saved per generator yield),
                # in lockstep.  Kept: 2,604 > 621 calls.
                frame.run_label = request.label
                cli = request.cli
                self._run_cli = cli
                if cycles.__class__ is not int:
                    cycles = int(cycles)
                engine = self.engine
                seq = engine._seq + 1
                engine._seq = seq
                handle = frame.run_entry
                if handle is not None and handle[_RUN_STATE] == _RUN_FIRED:
                    handle[_RUN_TIME] = engine.now + cycles
                    handle[_RUN_SEQ] = seq
                    handle[_RUN_STATE] = _RUN_PENDING
                else:
                    frame.run_entry = handle = EventHandle(
                        (engine.now + cycles, seq, self._run_complete, (frame,), 0, engine)
                    )
                frame.run_end = handle
                heappush(engine._heap, handle)
                if not cli and self._pending_vectors:
                    self._poll_interrupts()
                return
            if isinstance(request, Wait):
                if self._handle_wait(frame, request):
                    continue  # satisfied without blocking
                return  # blocked; scheduler already ran
            if isinstance(request, WaitAny):
                if self._handle_wait_any(frame, request):
                    continue
                return
            raise KernelError(f"unknown request {request!r} from {frame!r}")

    def _frame_finished(self, frame: Frame) -> None:
        if frame.kind is _FK_ISR:
            popped = self.isr_stack.pop()
            if popped is not frame:  # pragma: no cover - invariant
                raise KernelError("ISR stack corruption")
            # Recycle before unwinding: nothing references a finished ISR
            # frame, and the unwind may deliver the next interrupt, which
            # then reuses it without allocating.
            frame.gen = None
            frame.owner = None
            frame.segs = None
            self._frame_pool.append(frame)
        elif frame.kind is _FK_DPC:
            self.dpc_frame = None
            self.stats.dpcs_executed += 1
            frame.gen = None
            frame.owner = None
            frame.segs = None
            self._frame_pool.append(frame)
        else:
            thread: KThread = frame.owner
            thread.state = ThreadState.TERMINATED
            if self.current_thread is thread:
                self.current_thread = None
                self._cancel_quantum()
        self._unwind()

    def _unwind(self) -> None:
        """After any frame transition: interrupts, then DPCs, then threads."""
        if self._pending_vectors and self._poll_interrupts():
            return
        isr_stack = self.isr_stack
        if isr_stack:
            self._resume_frame(isr_stack[-1])
            return
        if self.dpc_frame is not None or self._dpc_deque:
            if self._maybe_start_dpc_drain():
                return
        self._dispatch()

    def _bugcheck(self, frame: Frame, exc: Exception) -> BugCheck:
        """A fault in kernel-mode code does not unwind: mark the crash and
        return the :class:`BugCheck` for the caller to raise ``from exc``."""
        self.bugchecked = True
        return BugCheck(
            stop_code=f"KMODE_EXCEPTION_NOT_HANDLED({type(exc).__name__})",
            context=frame.label,
            at_cycles=self.engine.now,
        )

    # ==================================================================
    # DPC drain
    # ==================================================================
    def _dpc_blocked_by_thread(self) -> bool:
        cur = self.current_thread
        return (
            cur is not None
            and cur.frame.irql >= _DISPATCH_LEVEL
            and cur.state is _TS_RUNNING
        )

    def _maybe_start_dpc_drain(self) -> bool:
        """Resume or begin DPC draining if possible.  ISR stack must be empty."""
        if self.dpc_frame is not None:
            self._resume_frame(self.dpc_frame)
            return True
        if not self._dpc_deque:
            return False
        # _dpc_blocked_by_thread, inlined (hot: once per drain attempt).
        # Kept with the pop and frame reset below: 1,040 / 0 calls.
        cur = self.current_thread
        if (
            cur is not None
            and cur.frame.irql >= _DISPATCH_LEVEL
            and cur.state is _TS_RUNNING
        ):
            return False
        if cur is not None:
            self._pause_run(cur.frame)
        # dpc_queue.pop(), inlined (the deque is known non-empty here).
        dpc = self._dpc_deque.popleft()
        dpc.queued = False
        pool = self._frame_pool
        if pool:
            # Frame.__init__ slimmed to the fields a pooled frame dirties
            # (same invariants as the _deliver reuse path).
            frame = pool.pop()
            frame.kind = _FK_DPC
            frame.irql = _DISPATCH_LEVEL
            frame.owner = dpc
            frame.mf_label = dpc.mf_label
            frame.run_label = None
            frame.seg_index = 0
        else:
            frame = Frame(_FK_DPC, _DISPATCH_LEVEL, dpc, dpc.mf_label)
        const_segs = dpc.const_segs
        engine = self.engine
        if const_segs is not None:
            # Constant compiled body: run_count is a pure counter, so the
            # bump can move from exec time to here without observable
            # effect; the tuple goes straight onto the frame.
            dpc.run_count += 1
            frame.segs = const_segs
            engine.tape_frames += 1
        elif dpc.compiled:
            frame.seg_factory = self._compiled_dpc_enter
            frame.seg_args = (dpc,)
            engine.tape_frames += 1
        else:
            frame.gen = self._dpc_body(dpc)
            engine.interpreted_frames += 1
        self.dpc_frame = frame
        self._resume_frame(frame, extra_cycles=self._dpc_dispatch_cost)
        return True

    def _dpc_body(self, dpc: Dpc):
        dpc.run_count += 1
        routine = dpc.routine(self, dpc)
        if routine is not None:
            yield_from_target = routine
            for item in yield_from_target:
                yield item

    def _compiled_dpc_enter(self, dpc: Dpc):
        """Exec-time entry for a segments-compiled DPC routine.

        Mirrors :meth:`_dpc_body`'s first send: bump ``run_count`` and call
        the routine (whose side effects -- timestamps, KeSetEvent -- run
        now, after the DPC dispatch cost), returning its Segments.
        """
        dpc.run_count += 1
        return dpc.routine(self, dpc)

    # ==================================================================
    # Waits and wakes
    # ==================================================================
    def _handle_wait(self, frame: Frame, request: Wait) -> bool:
        """Returns True if the wait was satisfied without blocking."""
        if frame.kind is not _FK_THREAD:
            raise KernelError(f"Wait from {frame.kind.value} context is illegal in WDM")
        thread: KThread = frame.owner
        obj: DispatcherObject = request.obj
        if obj.can_satisfy(thread):
            obj.consume(thread)
            frame.send_value = WaitStatus.OBJECT
            self.stats.waits_immediate += 1
            return True
        # Block.
        thread.state = ThreadState.WAITING
        thread.waiting_on = obj
        obj.add_waiter(thread)
        if request.timeout_ms is not None:
            thread.wait_timeout_handle = self.engine.schedule_in(
                self.clock.ms_to_cycles(request.timeout_ms), self._wait_timeout, thread
            )
        self.current_thread = None
        self._cancel_quantum()
        self._dispatch()
        return False

    def _handle_wait_any(self, frame: Frame, request: WaitAny) -> bool:
        """Returns True if some object satisfied the wait without blocking."""
        if frame.kind is not _FK_THREAD:
            raise KernelError(f"WaitAny from {frame.kind.value} context is illegal in WDM")
        thread: KThread = frame.owner
        for index, obj in enumerate(request.objs):
            if obj.can_satisfy(thread):
                obj.consume(thread)
                frame.send_value = (WaitStatus.OBJECT, index)
                self.stats.waits_immediate += 1
                return True
        # Block on all of them.
        thread.state = ThreadState.WAITING
        thread.waiting_on = request.objs[0]
        thread.wait_any_objs = tuple(request.objs)
        for obj in request.objs:
            obj.add_waiter(thread)
        if request.timeout_ms is not None:
            thread.wait_timeout_handle = self.engine.schedule_in(
                self.clock.ms_to_cycles(request.timeout_ms), self._wait_timeout, thread
            )
        self.current_thread = None
        self._cancel_quantum()
        self._dispatch()
        return False

    def _wait_timeout(self, thread: KThread) -> None:
        if thread.state is not ThreadState.WAITING:
            return
        self._in_kernel = True
        for obj in self._objects_thread_waits_on(thread):
            obj.remove_waiter(thread)
        thread.wait_timeout_handle = None
        self._make_ready(thread, WaitStatus.TIMEOUT, wake_obj=None)
        self._in_kernel = False

    def _release_waiters(self, obj: DispatcherObject) -> None:
        woken = obj.take_waiters_to_wake()
        for thread in woken:
            if thread.wait_timeout_handle is not None:
                thread.wait_timeout_handle.cancel()
                thread.wait_timeout_handle = None
            self._make_ready(thread, WaitStatus.OBJECT, wake_obj=obj)

    def _objects_thread_waits_on(self, thread: KThread):
        if thread.wait_any_objs is not None:
            return thread.wait_any_objs
        if thread.waiting_on is not None:
            return (thread.waiting_on,)
        return ()

    def _make_ready(
        self, thread: KThread, status: WaitStatus, wake_obj: Optional[DispatcherObject]
    ) -> None:
        if thread.wait_any_objs is not None:
            # Withdraw from the other objects of a multi-wait.
            for obj in thread.wait_any_objs:
                if obj is not wake_obj:
                    obj.remove_waiter(thread)
            if status is WaitStatus.TIMEOUT:
                thread.frame.send_value = (WaitStatus.TIMEOUT, None)
            else:
                index = thread.wait_any_objs.index(wake_obj)
                thread.frame.send_value = (WaitStatus.OBJECT, index)
            thread.wait_any_objs = None
        else:
            thread.frame.send_value = status
        thread.waiting_on = None
        thread.state = _TS_READY
        if status is WaitStatus.OBJECT:
            self._apply_wait_boost(thread)
        self.ready.enqueue(thread)
        # Same elision as queue_dpc: while an ISR or DPC frame is active
        # the unwind re-runs the dispatcher, so the deferred schedule point
        # would be a guaranteed no-op.
        if not self.isr_stack and self.dpc_frame is None:
            self._request_schedule_point()

    # ==================================================================
    # Scheduling
    # ==================================================================
    def _request_schedule_point(self) -> None:
        """Arrange a zero-time dispatcher check after the current event."""
        if self._sched_point_pending:
            return
        self._sched_point_pending = True
        self.engine.post_at(self.engine.now, self._schedule_point)

    def _schedule_point(self) -> None:
        self._sched_point_pending = False
        if self.isr_stack or self.dpc_frame is not None:
            return  # interrupt unwind will re-evaluate
        self._in_kernel = True
        cur = self.current_thread
        if self._dpc_deque and not self._dpc_blocked_by_thread():
            self._maybe_start_dpc_drain()
        elif cur is None:
            self._dispatch()
        elif cur.frame.irql >= _DISPATCH_LEVEL:
            pass  # raised-IRQL thread is not preemptible by the scheduler
        elif self.ready._mask.bit_length() - 1 > cur.priority:  # see _dispatch
            self._pause_run(cur.frame)
            self._dispatch()
        self._in_kernel = False

    def _dispatch(self) -> None:
        """Pick the next thread.  ISR stack and DPC frame must be idle."""
        cur = self.current_thread
        if cur is not None and cur.state is not _TS_RUNNING and (
            cur.state is not _TS_READY
        ):
            # not cur.runnable, inlined (hot: every dispatch).  Kept with
            # both highest_priority() copies: 1,328 / 272 calls.
            self.current_thread = None
            cur = None
        if cur is not None and cur.frame.irql >= _DISPATCH_LEVEL:
            self._resume_frame(cur.frame)
            return
        # highest_priority(), inlined (hot: every dispatch).
        top = self.ready._mask.bit_length() - 1
        if cur is None:
            if top < 0:
                # CPU idle; interrupts will wake us.  If the only imminent
                # work is inert clock ticks, batch-settle them analytically
                # (guards ordered cheapest-first; _pit_vector is None until
                # boot has installed the stock clock ISR).
                if (
                    self.fast_forward_enabled
                    and self._pit_vector is not None
                    and self.engine._run_target is not None
                    and not self._pending_vectors
                    and not self._dpc_deque
                    and not self._pit_hooks_draw_rng
                ):
                    self._try_fast_forward()
                return
            self._switch_to(self.ready.pop_highest())
            return
        if top > cur.priority:
            # Preempt: the paused current thread goes to the head of its level.
            self._pause_run(cur.frame)
            self._cancel_quantum()
            cur.state = _TS_READY
            self.ready.enqueue(cur, front=True)
            self._switch_to(self.ready.pop_highest())
            return
        if cur.quantum_expired_flag and self.ready.has_ready_at(cur.priority):
            self._rotate_quantum(cur)
            return
        cur.quantum_expired_flag = False
        self._resume_frame(cur.frame)

    def _try_fast_forward(self) -> None:
        """Batch-settle provably-inert PIT ticks without executing them.

        Called from the idle branch of :meth:`_dispatch` once the cheap
        guards have passed: kernel booted (stock clock ISR on "pit"), CPU
        fully idle (no ISR/DPC/thread frames -- a dispatch precondition),
        no pending vectors, no queued DPCs, no RNG-drawing PIT hooks, and
        the engine inside ``run_until`` (a horizon exists).

        Eligibility is then decided against the heap: the next live event
        must be the PIT tick itself, and every settled tick's full
        processing chain (delivery + clock-ISR body) must complete
        strictly before (a) the next non-tick heap event, (b) the earliest
        software-timer due time (timers are polled *by* the clock ISR, so
        a due timer makes a tick non-inert), and (c) at or before the
        ``run_until`` target (a tick that crosses the horizon is left to
        the interpreted path, which handles the split across calls).

        For the eligible span the engine state is advanced analytically:
        per-tick counters, seq numbers and ``events_processed`` are
        replicated exactly, the recycled tick entry is re-armed once with
        the seq it would have carried, and PIT hooks (which may read the
        TSC) are replayed at their precise delivery instants.  The RNG is
        untouched -- settled ticks draw nothing by construction -- so
        sample streams are byte-identical with fast-forward off.
        """
        engine = self.engine
        heap = engine._heap
        # Clear lazily-cancelled roots so heap[0] is a live entry.
        while heap and heap[0][2] is None:
            heappop(heap)
            engine._dead -= 1
        if not heap:
            return
        pit = self.machine.pit
        timer = pit._timer
        entry = timer._entry
        if entry is None or heap[0] is not entry:
            return  # next event is not the clock tick
        d1 = self._pit_deliver_cycles
        d2 = self._clock_isr_cost
        tick_cost = d1 + d2
        period = timer.period
        if tick_cost >= period:
            return  # back-to-back ticks never leave an idle span
        t1 = entry[0]
        bound = engine._run_target
        # The second-smallest heap time is one of the root's children;
        # cancelled entries keep their (earlier-or-equal) times, so using
        # one only tightens the bound.
        n = len(heap)
        if n > 1:
            other = heap[1][0]
            if n > 2 and heap[2][0] < other:
                other = heap[2][0]
            if other <= bound:
                bound = other - 1
        for kt in self._timers:
            due = kt.due_cycles
            if due is not None and due <= bound:
                bound = due - 1
        k = (bound - tick_cost - t1) // period + 1
        if k <= 0:
            return
        t_last = t1 + (k - 1) * period
        hooks = self._pit_hooks
        if hooks:
            # Replay hooks at their exact delivery instants so TSC reads
            # observe the same values as real execution.
            t = t1
            for _ in range(k):
                self.last_clock_assert = t
                engine.now = t + d1
                for hook in hooks:
                    hook(self, t)
                t += period
        else:
            self.last_clock_assert = t_last
        engine.now = t_last + tick_cost
        # Replicate what k interpreted ticks would have recorded: three
        # events and three seqs per tick (re-arm, delivery run, ISR-body
        # run), one PIT tick, one delivered "pit" interrupt (the total,
        # per_vector and an ISR nest depth of one) and one generator
        # frame each.
        spt = 1 + (d1 > 0) + (d2 > 0)
        seq0 = engine._seq
        engine._seq = seq0 + spt * k
        engine.events_processed += spt * k
        engine.interpreted_frames += k
        engine.spans_fast_forwarded += 1
        engine.ticks_fast_forwarded += k
        pit.ticks += k
        stats = self.stats
        stats.interrupts_delivered += k
        per_vector = stats.per_vector
        per_vector["pit"] = per_vector.get("pit", 0) + k
        if stats.isr_nest_max < 1:
            stats.isr_nest_max = 1
        # Re-arm the recycled tick entry exactly as the k-th tick's own
        # re-arm would have: fired at t_last, next due one period later,
        # carrying the first seq drawn during that tick's processing.
        heappop(heap)
        entry[0] = t_last + period
        entry[1] = seq0 + spt * (k - 1) + 1
        heappush(heap, entry)

    def _switch_to(self, thread: KThread) -> None:
        assert thread is not None
        previous = self.current_thread
        thread.state = _TS_RUNNING
        thread.quantum_expired_flag = False
        self.current_thread = thread
        self._start_quantum(thread)
        self.stats.context_switches += 1
        cost = self._context_switch_cost if previous is not thread else 0
        self._resume_frame(thread.frame, extra_cycles=cost)

    # -- quantum ------------------------------------------------------
    def _start_quantum(self, thread: KThread) -> None:
        self._cancel_quantum()
        self._quantum_handle = self.engine.schedule_in(
            self._quantum_cycles, self._quantum_fire, thread
        )

    def _cancel_quantum(self) -> None:
        if self._quantum_handle is not None:
            self._quantum_handle.cancel()
            self._quantum_handle = None

    def _quantum_fire(self, thread: KThread) -> None:
        self._quantum_handle = None
        if thread is not self.current_thread or thread.state is not _TS_RUNNING:
            return
        thread.quantum_expiries += 1
        if self.isr_stack or self.dpc_frame is not None or self._run_cli:
            # Can't reschedule from here; note it and let the next
            # transition handle the rotation.
            thread.quantum_expired_flag = True
            return
        if thread.frame.irql >= _DISPATCH_LEVEL:
            thread.quantum_expired_flag = True
            return
        self._in_kernel = True
        if self.ready.has_ready_at(thread.priority) or thread.priority > thread.base_priority:
            # Rotate among peers, or let an expired boost decay a level
            # (which may itself surrender the CPU to a newly-equal peer).
            self._pause_run(thread.frame)
            self._rotate_quantum(thread)
        else:
            self._start_quantum(thread)
        self._in_kernel = False

    def _rotate_quantum(self, thread: KThread) -> None:
        """Round-robin: expired thread to the tail of its priority level."""
        thread.quantum_expired_flag = False
        self._cancel_quantum()
        thread.state = _TS_READY
        self._decay_boost(thread)
        self.ready.enqueue(thread, front=False)
        self.current_thread = None
        self._dispatch()

    def _maybe_rotate_quantum(self, thread: KThread) -> bool:
        """Deferred quantum handling at a run-segment boundary."""
        if not thread.quantum_expired_flag:
            return False
        if thread is not self.current_thread:
            thread.quantum_expired_flag = False
            return False
        if thread.frame.irql >= _DISPATCH_LEVEL:
            return False
        if self.ready.has_ready_at(thread.priority):
            self._rotate_quantum(thread)
            return True
        thread.quantum_expired_flag = False
        self._start_quantum(thread)
        return False

    # ==================================================================
    # Clock (PIT) ISR
    # ==================================================================
    def _clock_isr_factory(self, kernel: "Kernel", vector: InterruptVector, asserted_at: int):
        # `kernel` is self; signature matches IsrFactory for uniformity.
        return self._clock_isr(vector, asserted_at)

    def _clock_isr(self, vector: InterruptVector, asserted_at: int):
        self.last_clock_assert = asserted_at
        for hook in self._pit_hooks:
            hook(self, asserted_at)
        yield self._clock_run
        expired = self._collect_expired_timers()
        if expired:
            yield Run(self.costs.timer_expiry * len(expired), label=("NTKERN", "_KiTimerExpiry"))
            for timer in expired:
                self._fire_timer(timer)

    def _collect_expired_timers(self) -> List[KTimer]:
        now = self.engine.now
        expired = [t for t in self._timers if t.due_cycles is not None and t.due_cycles <= now]
        return expired

    def _fire_timer(self, timer: KTimer) -> None:
        if timer not in self._timers or timer.due_cycles is None:
            return  # cancelled between collection and firing
        if timer.due_cycles > self.engine.now:
            return  # re-armed for the future in the meantime
        timer.signaled = True
        if timer.period_ms is not None:
            timer.due_cycles = self.engine.now + self.clock.ms_to_cycles(timer.period_ms)
        else:
            timer.due_cycles = None
            self._timers.remove(timer)
        if timer.dpc is not None:
            self.queue_dpc(timer.dpc, context=timer)
        self._release_waiters(timer)


def _spurious_isr_factory(kernel: Kernel, vector: InterruptVector, asserted_at: int):
    yield Run(kernel.clock.us_to_cycles(1.0), label=("HAL", "_spurious_interrupt"))
