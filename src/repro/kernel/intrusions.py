"""Injected kernel activity ("intrusions") and load profiles.

The latencies the paper measures are caused by *other* code holding the
CPU at high priority: interrupt-disabled regions, long ISRs, queued DPCs,
and -- on Windows 98 -- legacy VMM sections during which the scheduler
cannot dispatch a newly-woken thread.  This module provides the machinery
that injects such activity into a running kernel, in four flavours that map
one-to-one onto the latency rows of the paper's Table 3:

* ``CLI`` -- an interrupts-disabled region (pseudo-interrupt at HIGH_LEVEL
  executing with the interrupt flag clear).  Delays ISRs, DPCs and threads:
  the "H/W Int. to S/W ISR" row.
* ``ISR`` -- a region at a device IRQL.  Delays lower-IRQL ISRs, DPCs and
  threads.
* ``DPC`` -- work queued on the system DPC queue.  Because ordinary DPCs
  drain FIFO, this adds to "S/W ISR to DPC" for any DPC behind it.
* ``SECTION`` -- a burst executed by a hidden priority-31 kernel thread
  (the "VMM section executor").  Being a thread, it delays only *thread*
  dispatch -- ISRs and DPCs preempt it freely -- which is exactly how
  Windows 98's non-reentrant VMM code hurts thread latency by tens of
  milliseconds while adding almost nothing to DPC latency (Table 3).

Every source draws event times from a Poisson process and durations from a
:class:`~repro.sim.rng.DurationDistribution`; the calibrated numbers live
with the workloads (:mod:`repro.workloads`).
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heappush
from math import log as _log
from typing import Deque, List, Optional, Tuple

from repro.kernel import irql as irql_mod
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel
from repro.kernel.objects import KEvent, KTimer
from repro.kernel.requests import Run, Segment, Segments, Wait, segments_body
from repro.sim.rng import DurationDistribution, RngStream

_uid = itertools.count(1)


class IntrusionKind(enum.Enum):
    CLI = "cli"
    ISR = "isr"
    DPC = "dpc"
    SECTION = "section"


@dataclass(frozen=True)
class IntrusionSpec:
    """One stochastic source of high-priority kernel activity.

    Attributes:
        name: Source identifier (also seeds its private RNG stream).
        kind: Which latency row this activity hits (see module docstring).
        rate_hz: Mean event rate (Poisson).
        duration: Per-event duration distribution (milliseconds).
        irql: For ``ISR`` kind, the DIRQL of the injected region.
        module: Cause-tool module label (e.g. ``"VMM"``).
        function: Cause-tool function label (e.g. ``"_mmCalcFrameBadness"``).
    """

    name: str
    kind: IntrusionKind
    rate_hz: float
    duration: DurationDistribution
    irql: int = irql_mod.HIGH_LEVEL
    module: str = "VMM"
    function: str = "unknown"

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.kind is IntrusionKind.ISR and not irql_mod.DIRQL_MIN <= self.irql <= 30:
            raise ValueError(f"ISR intrusion IRQL {self.irql} must be a device level")

    def scaled(self, rate_factor: float = 1.0, duration_factor: float = 1.0) -> "IntrusionSpec":
        """Scaled copy, used by ablation sweeps."""
        return replace(
            self,
            rate_hz=self.rate_hz * rate_factor,
            duration=self.duration.scaled(duration_factor) if duration_factor != 1.0 else self.duration,
        )


@dataclass(frozen=True)
class DeviceActivitySpec:
    """Interrupt traffic from one peripheral under a workload.

    Each event asserts the device's IRQ; the connected driver ISR runs for
    ``isr_duration`` then queues the device DPC which runs for
    ``dpc_duration``.  Back-to-back interrupts coalesce in the PIC and the
    DPC queue exactly as real edge-triggered hardware does.
    """

    device: str
    rate_hz: float
    isr_duration: DurationDistribution
    dpc_duration: DurationDistribution
    module: str = "DRIVER"

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")

    def scaled(self, rate_factor: float = 1.0) -> "DeviceActivitySpec":
        return replace(self, rate_hz=self.rate_hz * rate_factor)


@dataclass(frozen=True)
class WorkItemLoadSpec:
    """Work queued to the NT kernel work-item queue (serviced at RT default
    priority; see :mod:`repro.kernel.workitems`)."""

    rate_hz: float
    duration: DurationDistribution
    module: str = "NTKERN"
    function: str = "_ExWorkerThread"


@dataclass(frozen=True)
class AppThreadSpec:
    """A normal-priority application thread: compute bursts + think time."""

    name: str
    priority: int
    compute: DurationDistribution
    think: Optional[DurationDistribution] = None
    module: str = "APP"

    def __post_init__(self):
        if not 1 <= self.priority <= 15:
            raise ValueError(
                f"application threads use normal priorities 1-15, got {self.priority}"
            )


@dataclass(frozen=True)
class LoadProfile:
    """Everything a workload injects into one OS personality."""

    name: str
    intrusions: Tuple[IntrusionSpec, ...] = ()
    devices: Tuple[DeviceActivitySpec, ...] = ()
    work_items: Optional[WorkItemLoadSpec] = None
    app_threads: Tuple[AppThreadSpec, ...] = ()

    def merged_with(self, other: "LoadProfile") -> "LoadProfile":
        """Overlay another profile (e.g. a virus-scanner perturbation)."""
        return LoadProfile(
            name=f"{self.name}+{other.name}",
            intrusions=self.intrusions + other.intrusions,
            devices=self.devices + other.devices,
            work_items=other.work_items or self.work_items,
            app_threads=self.app_threads + other.app_threads,
        )


# ======================================================================
# Runtime sources
# ======================================================================
class SectionExecutor:
    """The hidden priority-31 kernel thread that runs SECTION bursts.

    On Windows 98 this stands in for non-reentrant VMM/VxD code that the
    scheduler cannot preempt on behalf of a newly-ready thread; on NT it
    stands in for (much shorter) dispatcher/executive critical sections.
    ISRs and DPCs preempt it freely -- it is an ordinary thread, just at the
    top priority -- so it manufactures *thread* latency only.
    """

    PRIORITY = 31

    def __init__(self, kernel: Kernel, name: str = "KernelSections"):
        self.kernel = kernel
        self._pending: Deque[Tuple[int, Tuple[str, str]]] = deque()
        self._event = KEvent(synchronization=True, name=f"{name}-event")
        self.bursts_run = 0
        self.busy_cycles = 0
        self.thread = kernel.create_thread(
            name, self.PRIORITY, self._body, module="VMM", system=True
        )

    def submit(self, duration_ms: float, label: Tuple[str, str]) -> None:
        """Queue a burst of ``duration_ms`` of non-preemptible-by-threads work."""
        cycles = self.kernel.clock.ms_to_cycles(duration_ms)
        self._pending.append((cycles, label))
        self.kernel.set_event(self._event)

    @property
    def backlog(self) -> int:
        return len(self._pending)

    def _body(self, kernel: Kernel, thread):
        while True:
            yield Wait(self._event)
            while self._pending:
                cycles, label = self._pending.popleft()
                self.bursts_run += 1
                self.busy_cycles += cycles
                yield Run(cycles, label=label)


class IntrusionSource:
    """Drives one :class:`IntrusionSpec` against a kernel.

    Hot-path notes: the ISR body is segments-compiled (one descriptor whose
    cycle cost reads the fire-time sampled duration, so edge-triggered
    coalescing keeps its overwrite semantics), and the per-event RNG draws
    are pre-drawn in blocks.  Pre-drawing is sound here because this
    source's private stream is consumed in a *state-independent* order --
    one ``(duration, arrival-interval)`` pair per fire, always in that
    order -- so pulling draws forward in wall time cannot reorder them in
    stream order.
    """

    #: (duration, interval) pairs drawn per block refill.
    PREDRAW_BLOCK = 64

    def __init__(
        self,
        kernel: Kernel,
        spec: IntrusionSpec,
        rng: RngStream,
        section_executor: Optional[SectionExecutor] = None,
    ):
        self.kernel = kernel
        self.spec = spec
        self.rng = rng.child(f"intrusion/{spec.name}")
        self.section_executor = section_executor
        self.fired = 0
        self._ms_to_cycles = kernel.clock.ms_to_cycles
        self._s_to_cycles = kernel.clock.s_to_cycles
        self._engine = kernel.engine
        self._hz = kernel.clock.hz
        self._vector_name: Optional[str] = None
        if spec.kind in (IntrusionKind.CLI, IntrusionKind.ISR):
            level = irql_mod.HIGH_LEVEL if spec.kind is IntrusionKind.CLI else spec.irql
            self._vector_name = kernel.register_intrusion_vector(
                f"intr-{spec.name}-{next(_uid)}", irql=level
            )
            self._vector = kernel.pic.vector(self._vector_name)
            self._assert_vector = kernel.pic.assert_vector
            # One reusable compiled body: the cost callable reads the
            # duration sampled at fire time, exactly when the generator
            # body used to read it (its first instruction).  Connected as
            # a constant Segments tuple -- there is no factory side effect
            # to defer -- so delivery skips the trampoline.
            self._isr_segments = Segments(
                (
                    Segment(
                        self._isr_cycles,
                        cli=spec.kind is IntrusionKind.CLI,
                        label=(spec.module, spec.function),
                    ),
                )
            )
            kernel.connect_interrupt(self._vector_name, self._isr_segments)
        if spec.kind is IntrusionKind.SECTION and section_executor is None:
            raise ValueError(f"SECTION intrusion {spec.name!r} needs a SectionExecutor")
        if spec.kind is IntrusionKind.DPC:
            #: Free list of reusable burn DPCs (see _new_burn_dpc).
            self._burn_pool: List[Dpc] = []
        self._duration_ms = 0.0
        #: Pre-drawn (duration_ms, interval_s) pairs and a cursor into them.
        self._pairs: List[Tuple[float, float]] = []
        self._pair_i = 0
        #: This source's own heap entry, re-armed in place every fire
        #: (Engine.repost_in) so steady arrivals allocate nothing.
        self._fire_entry: list = [0, 0, self._fire, (), 0]
        self._repost_in = kernel.engine.repost_in
        self._schedule_next()

    def _schedule_next(self) -> None:
        # Only the very first arrival is drawn here (a lone interval, before
        # any duration); every later (duration, interval) pair comes from
        # the pre-drawn block in _fire.
        delay_s = self.rng.poisson_interval(self.spec.rate_hz)
        self._repost_in(self._fire_entry, self._s_to_cycles(delay_s))

    def _refill_block(self) -> List[Tuple[float, float]]:
        rng = self.rng
        sample_fast = rng.sample_ms_fast
        rand = rng.random
        duration = self.spec.duration
        rate = self.spec.rate_hz
        # expovariate(rate) inlined (same expression as random.py, so the
        # produced floats and the draw count are bit-identical).  Kept
        # with both sources' repost_in/s_to_cycles copies: 1,898 / 630 calls.
        self._pairs = pairs = [
            (sample_fast(duration), -_log(1.0 - rand()) / rate)
            for _ in range(self.PREDRAW_BLOCK)
        ]
        self._pair_i = 0
        return pairs

    def _fire(self) -> None:
        pairs = self._pairs
        i = self._pair_i
        if i >= len(pairs):
            pairs = self._refill_block()
            i = 0
        duration_ms, delay_s = pairs[i]
        self._pair_i = i + 1
        spec = self.spec
        self.fired += 1
        kind = spec.kind
        if kind is IntrusionKind.CLI or kind is IntrusionKind.ISR:
            self._duration_ms = duration_ms
            self._assert_vector(self._vector, self._engine.now)
        elif kind is IntrusionKind.DPC:
            pool = self._burn_pool
            dpc = pool.pop() if pool else self._new_burn_dpc()
            dpc.burn_cycles = self._ms_to_cycles(duration_ms)
            self.kernel.queue_dpc(dpc)
        else:  # SECTION
            self.section_executor.submit(duration_ms, (spec.module, spec.function))
        # Engine.repost_in + Clock.s_to_cycles, inlined (one per arrival;
        # the cycles expression must stay exactly `int(round(s * hz))` for
        # parity with the out-of-line helpers).  The entry was just popped
        # by the run loop, so rewriting it in place is safe.  Kept: see
        # _refill_block.
        engine = self._engine
        seq = engine._seq + 1
        engine._seq = seq
        entry = self._fire_entry
        entry[0] = engine.now + int(round(delay_s * self._hz))
        entry[1] = seq
        entry[4] = 0
        heappush(engine._heap, entry)

    def _isr_cycles(self) -> int:
        """Cycle cost of the compiled ISR body (fire-time sampled duration)."""
        return self._ms_to_cycles(self._duration_ms)

    def _new_burn_dpc(self) -> Dpc:
        """One reusable burn DPC for a DPC-kind source.

        Each pooled DPC carries its own compiled one-segment body whose
        cost callable reads ``dpc.burn_cycles`` (set at fire time, exactly
        when the old per-fire DPC computed its fixed cost) and whose
        ``after`` hook returns the DPC to the pool.  Several may be in
        flight at once -- a fire while the pool is empty mints another --
        so queueing behaviour matches the old allocate-per-fire path.
        """
        spec = self.spec
        dpc = Dpc(
            routine=_pool_placeholder_routine,
            importance=DpcImportance.MEDIUM,
            name=spec.function,
            module=spec.module,
        )
        dpc.burn_cycles = 0
        pool = self._burn_pool
        segs = Segments(
            (
                Segment(
                    lambda: dpc.burn_cycles,
                    label=(spec.module, spec.function),
                    after=lambda: pool.append(dpc),
                ),
            )
        )
        dpc.routine = lambda kernel, d, _segs=segs: _segs
        dpc.compiled = True
        dpc.const_segs = segs
        return dpc


def _pool_placeholder_routine(kernel: Kernel, dpc: Dpc):  # pragma: no cover
    raise RuntimeError("pooled burn DPC queued before its body was installed")


class DeviceActivitySource:
    """Poisson interrupt traffic on a real peripheral, with a driver ISR
    that queues the device's DPC -- the standard WDM pattern.

    The ISR and DPC bodies are segments-compiled: durations are sampled
    when the segment starts executing, which is the same simulated instant
    the generator bodies sampled them.  Arrival intervals are *not*
    pre-drawn here (unlike :class:`IntrusionSource`): edge-triggered
    coalescing means fires and ISR executions don't pair one-to-one, so
    this stream's draw order is state-dependent and must stay on-demand.
    """

    def __init__(self, kernel: Kernel, spec: DeviceActivitySpec, rng: RngStream):
        self.kernel = kernel
        self.spec = spec
        self.rng = rng.child(f"device/{spec.device}")
        self.fired = 0
        self._s_to_cycles = kernel.clock.s_to_cycles
        self._random = self.rng.random
        self._rate = spec.rate_hz
        self._engine = kernel.engine
        self._hz = kernel.clock.hz
        # Fire path: assert the cached vector, skipping the raise_irq frame
        # (same state updates).
        self._device_vector = kernel.machine.device(spec.device).vector
        self._assert_vector = kernel.pic.assert_vector
        self._dpc = Dpc(
            routine=self._dpc_routine,
            importance=DpcImportance.MEDIUM,
            name=f"_{spec.device}Dpc",
            module=spec.module,
        )
        self._isr_segments = Segments(
            (
                Segment(
                    spec.isr_duration,
                    rng=self.rng,
                    label=(spec.module, f"_{spec.device}Isr"),
                    after=self._queue_device_dpc,
                ),
            )
        )
        self._dpc_segments = Segments(
            (
                Segment(
                    spec.dpc_duration,
                    rng=self.rng,
                    label=(spec.module, f"_{spec.device}Dpc"),
                ),
            )
        )
        # Both bodies are side-effect-free constants: the ISR connects as
        # a bare Segments tuple and the DPC carries its tuple on the Dpc,
        # so neither pays the factory trampoline per run.
        self._dpc.const_segs = self._dpc_segments
        kernel.connect_interrupt(spec.device, self._isr_segments)
        #: Recycled heap entry, same pattern as IntrusionSource.
        self._fire_entry: list = [0, 0, self._fire, (), 0]
        self._repost_in = kernel.engine.repost_in
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay_s = self.rng.poisson_interval(self.spec.rate_hz)
        self._repost_in(self._fire_entry, self._s_to_cycles(delay_s))

    def _fire(self) -> None:
        self.fired += 1
        engine = self._engine
        self._assert_vector(self._device_vector, engine.now)
        # expovariate(rate), Engine.repost_in and Clock.s_to_cycles all
        # inlined -- the float expressions are bit-identical to the
        # out-of-line forms, so arrival streams are unchanged.  Kept: see
        # IntrusionSource._refill_block.
        seq = engine._seq + 1
        engine._seq = seq
        entry = self._fire_entry
        entry[0] = engine.now + int(
            round(-_log(1.0 - self._random()) / self._rate * self._hz)
        )
        entry[1] = seq
        entry[4] = 0
        heappush(engine._heap, entry)

    def _queue_device_dpc(self) -> None:
        self.kernel.queue_dpc(self._dpc)

    @segments_body
    def _dpc_routine(self, kernel: Kernel, dpc: Dpc):
        # Nominal routine (never trampolined: const_segs short-circuits it).
        return self._dpc_segments


class AppThreadSource:
    """A normal-priority application thread doing compute + think cycles."""

    def __init__(self, kernel: Kernel, spec: AppThreadSpec, rng: RngStream):
        self.kernel = kernel
        self.spec = spec
        self.rng = rng.child(f"app/{spec.name}")
        self.bursts = 0
        self.thread = kernel.create_thread(
            spec.name, spec.priority, self._body, module=spec.module
        )

    def _body(self, kernel: Kernel, thread):
        spec = self.spec
        timer = KTimer(name=f"{spec.name}-sleep")
        while True:
            compute_ms = spec.compute.sample_ms(self.rng)
            self.bursts += 1
            yield Run(
                kernel.clock.ms_to_cycles(compute_ms),
                label=(spec.module, f"_{spec.name}_compute"),
            )
            if spec.think is not None:
                think_ms = spec.think.sample_ms(self.rng)
                kernel.set_timer(timer, think_ms)
                yield Wait(timer)


@dataclass
class AppliedLoad:
    """Handle to everything a load profile instantiated (for stats)."""

    profile: LoadProfile
    intrusion_sources: List[IntrusionSource] = field(default_factory=list)
    device_sources: List[DeviceActivitySource] = field(default_factory=list)
    app_threads: List[AppThreadSource] = field(default_factory=list)


def apply_load_profile(
    kernel: Kernel,
    profile: LoadProfile,
    rng: RngStream,
    section_executor: Optional[SectionExecutor] = None,
    work_item_queue=None,
) -> AppliedLoad:
    """Instantiate every source in ``profile`` against ``kernel``.

    Args:
        section_executor: Required if the profile has SECTION intrusions.
        work_item_queue: A :class:`repro.kernel.workitems.WorkItemQueue`;
            required if the profile generates work items.
    """
    applied = AppliedLoad(profile=profile)
    for spec in profile.intrusions:
        applied.intrusion_sources.append(
            IntrusionSource(kernel, spec, rng, section_executor=section_executor)
        )
    for spec in profile.devices:
        applied.device_sources.append(DeviceActivitySource(kernel, spec, rng))
    for spec in profile.app_threads:
        applied.app_threads.append(AppThreadSource(kernel, spec, rng))
    if profile.work_items is not None:
        if work_item_queue is None:
            raise ValueError(
                f"profile {profile.name!r} generates work items but the OS has no work-item queue"
            )
        work_item_queue.attach_load(profile.work_items, rng)
    return applied
