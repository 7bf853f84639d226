"""The WDM interrupt/DPC/thread latency measurement tool (section 2.2).

This is the paper's pseudocode made executable against :mod:`repro.wdm`:

* ``DriverEntry`` (2.2.1): create a single-shot timer, a Synchronization
  Event and a real-time kernel thread; reprogram the PIT to 1 kHz.
* ``LatRead`` (2.2.2): the I/O read dispatch -- ``GetCycleCount`` into
  ``ASB[0]``, then ``KeSetTimer``.
* ``LatDpcRoutine`` (2.2.3): ``GetCycleCount`` into ``ASB[1]``, stash the
  IRP, ``KeSetEvent``.
* ``LatThreadFunc`` (2.2.4): set own priority, loop { wait on the event,
  ``GetCycleCount`` into ``ASB[2]``, ``IoCompleteRequest`` }.

The control application (``run_control_app`` here) issues a ``ReadFileEx``
whose completion records one :class:`~repro.core.samples.RawSample` and
immediately issues the next read.

OS differences, exactly as the paper describes them: the thread-latency
driver is binary portable between the personalities; the *interrupt*
latency instrumentation needs a private PIT handler, which Windows 98
permits through its legacy IDT patching interface but NT does not without
source access.  So on ``win98`` the tool also records ISR timestamps
(interrupt latency and DPC latency separately), while on ``nt4`` it records
only DPC interrupt latency -- unless ``omniscient=True`` asks the simulator
to pretend it could hook NT too (used for validation, never for the
paper-reproduction figures).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.samples import RawSample, SampleColumns, SampleSet
from repro.kernel.boot import BootedOs
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel
from repro.kernel.objects import KEvent, KTimer
from repro.kernel.requests import Run, Segment, Segments, Wait, segments_body
from repro.wdm.driver import DeviceObject, DriverObject, IoManager
from repro.wdm.irp import Irp, IrpMajorFunction


@dataclass(frozen=True)
class LatencyToolConfig:
    """Measurement-tool knobs.

    Attributes:
        pit_hz: PIT rate the driver programs (the paper uses 1 kHz).
        delay_ms: ``ARBITRARY_DELAY`` passed to ``KeSetTimer`` each cycle.
        thread_priorities: Measurement thread priorities; the paper runs
            Win32 priority 28 ("high real-time") and 24 ("medium/default
            real-time").  Cycles alternate between the threads so the two
            series never perturb each other.
        dpc_importance: Queue importance of the tool's DPC ("a 'Medium
            Importance' WDM DPC enqueued by the PIT ISR").
        isr_work_us: CPU consumed inside the tool's hook/ISR bookkeeping.
        dpc_work_us: CPU consumed inside ``LatDpcRoutine`` after its
            timestamp.
        thread_work_us: CPU consumed by the thread per cycle after its
            timestamp (reading the TSC, completing the IRP).
        app_priority: Win32 priority of the control application thread
            ("simple command line control applications").
        app_processing_ms: (min, max) uniform user-mode processing time per
            cycle ("Calculate, Output Latencies").  Besides being realistic
            this de-phases consecutive reads from the PIT ticks, so the
            +/- one-period estimation error is spread rather than pinned.
        omniscient: Record ISR timestamps even on NT (simulator-only).
    """

    pit_hz: float = 1000.0
    delay_ms: float = 1.0
    thread_priorities: Tuple[int, ...] = (28, 24)
    dpc_importance: DpcImportance = DpcImportance.MEDIUM
    isr_work_us: float = 0.8
    dpc_work_us: float = 1.5
    thread_work_us: float = 2.0
    app_priority: int = 14
    app_processing_ms: Tuple[float, float] = (0.05, 1.25)
    omniscient: bool = False

    def __post_init__(self):
        if not self.thread_priorities:
            raise ValueError("need at least one measurement thread priority")
        for priority in self.thread_priorities:
            if not 16 <= priority <= 31:
                raise ValueError(
                    f"measurement threads are real-time priority (16-31), got {priority}"
                )
        if self.delay_ms <= 0:
            raise ValueError(f"delay_ms must be positive, got {self.delay_ms}")


class WdmLatencyTool:
    """The measurement driver plus its control application."""

    DEVICE_NAME = r"\\.\WdmLatTool"
    #: Ticks of ISR-entry history kept for the DPC's phase lookup; a DPC
    #: delayed past this many PIT periods loses its ISR timestamp (matching
    #: the bounded ring the real Win98 driver would keep).
    ISR_RING_SIZE = 16

    def __init__(self, os: BootedOs, config: LatencyToolConfig = LatencyToolConfig()):
        self.os = os
        self.kernel: Kernel = os.kernel
        self.config = config
        self.io = IoManager(self.kernel)
        #: Completed cycles, recorded column-wise (eight ints per cycle,
        #: no per-cycle Python object retained).  Supports ``len()`` and
        #: ``append(RawSample)`` like the list it replaced.
        self.samples: SampleColumns = SampleColumns()
        #: Observers called with each completed RawSample (the cause tool
        #: hooks in here to detect over-threshold episodes).
        self.on_sample: List = []
        self._seq = 0
        self._started_at: Optional[int] = None
        self._current: Optional[RawSample] = None
        self._current_irp: Optional[Irp] = None  # the paper's ghIRP
        # Ring of recent tick assertion times saved by the private PIT
        # handler, with the ISR-entry TSC held in a dict keyed by assertion
        # time; the DPC looks up the tick that enqueued it, which matters
        # whenever DPC latency exceeds one PIT period.  The deque's maxlen
        # bounds memory on long runs and evicts oldest-first in O(1).
        self._isr_ring: Deque[int] = deque(maxlen=self.ISR_RING_SIZE)
        self._isr_tsc_by_assert: Dict[int, int] = {}
        self._events: Dict[int, KEvent] = {}
        self._hook_installed = False
        self.driver = self.io.load_driver("wdmlat", self._driver_entry)
        self.device: DeviceObject = self.io.device(self.DEVICE_NAME)

    # ------------------------------------------------------------------
    # DriverEntry (2.2.1)
    # ------------------------------------------------------------------
    def _driver_entry(self, kernel: Kernel, driver: DriverObject) -> None:
        config = self.config
        self.g_timer = KTimer(name="gTimer")
        # The DPC's post-timestamp CPU burn is a fixed cost, so the routine
        # is segments-compiled: timestamping runs in the (exec-time) routine
        # call, the burn is this one prebuilt descriptor.
        self._dpc_work_segments = Segments(
            (
                Segment(
                    kernel.clock.us_to_cycles(config.dpc_work_us),
                    label=("WDMLAT", "_LatDpcRoutine"),
                ),
            )
        )
        self.g_dpc = Dpc(
            self._lat_dpc_routine,
            importance=config.dpc_importance,
            name="LatDpcRoutine",
            module="WDMLAT",
        )
        for priority in config.thread_priorities:
            event = KEvent(synchronization=True, name=f"gEvent{priority}")
            self._events[priority] = event
            kernel.create_thread(
                f"LatThread{priority}",
                priority,
                self._make_lat_thread_func(priority, event),
                module="WDMLAT",
            )
        # "Set PIT interrupt interval to 1 ms."
        kernel.machine.pit.set_frequency(config.pit_hz)
        # The Windows 98 driver installs its own timer handler via the
        # legacy Win9x interface; on NT that would need source access.
        if self.os.name == "win98" or config.omniscient:
            # Pure bookkeeping (timestamps a pending sample); draws no RNG
            # and schedules nothing, so idle-span fast-forward may replay
            # it analytically at each settled tick's exact instant.
            kernel.install_pit_hook(self._pit_isr_hook, draws_rng=False)
            self._hook_installed = True
        driver.set_dispatch(IrpMajorFunction.READ, self._lat_read)
        DeviceObject(driver, self.DEVICE_NAME)

    # ------------------------------------------------------------------
    # Driver I/O read (2.2.2)
    # ------------------------------------------------------------------
    def _lat_read(self, kernel: Kernel, device: DeviceObject, irp: Irp) -> None:
        irp.system_buffer[0] = kernel.read_tsc()  # GetCycleCount(&IRP->ASB[0])
        self._current_irp = irp
        priority = self.config.thread_priorities[self._seq % len(self.config.thread_priorities)]
        self._current = RawSample(
            seq=self._seq,
            priority=priority,
            t_read=irp.system_buffer[0],
            delay_cycles=kernel.clock.ms_to_cycles(self.config.delay_ms),
        )
        self._seq += 1
        # KeSetTimer(gTimer, ARBITRARY_DELAY, LatDpcRoutine): the PIT ISR
        # will enqueue LatDpcRoutine in the DPC queue.
        kernel.set_timer(self.g_timer, self.config.delay_ms, dpc=self.g_dpc)

    # ------------------------------------------------------------------
    # Windows 98 private timer handler (interrupt-latency driver)
    # ------------------------------------------------------------------
    def _pit_isr_hook(self, kernel: Kernel, asserted_at: int) -> None:
        # "PIT ISR: Read and save TSR" -- runs at the clock ISR's first
        # instruction, before the OS handler body.
        ring = self._isr_ring
        if len(ring) == self.ISR_RING_SIZE:
            # The append below pushes the oldest tick out of the deque;
            # drop its dict entry too so the map stays ring-sized.
            self._isr_tsc_by_assert.pop(ring[0], None)
        ring.append(asserted_at)
        self._isr_tsc_by_assert[asserted_at] = kernel.read_tsc()

    def _isr_tsc_for_assert(self, asserted_at: Optional[int]) -> Optional[int]:
        if asserted_at is None:
            return None
        return self._isr_tsc_by_assert.get(asserted_at)

    # ------------------------------------------------------------------
    # Timer DPC (2.2.3)
    # ------------------------------------------------------------------
    @segments_body
    def _lat_dpc_routine(self, kernel: Kernel, dpc: Dpc):
        t_dpc = kernel.read_tsc()  # GetCycleCount(&IRP->ASB[1])
        sample = self._current
        irp = self._current_irp
        if sample is not None and irp is not None:
            irp.system_buffer[1] = t_dpc
            sample.t_dpc = t_dpc
            # Ground truth from the simulator (not available to a real
            # driver; kept for validation): the assertion time of the tick
            # whose ISR enqueued this DPC.
            sample.t_assert = dpc.enqueue_clock_assert
            if self._hook_installed:
                sample.t_isr = self._isr_tsc_for_assert(dpc.enqueue_clock_assert)
            kernel.set_event(self._events[sample.priority])  # KeSetEvent(gEvent)
        return self._dpc_work_segments

    # ------------------------------------------------------------------
    # Thread (2.2.4)
    # ------------------------------------------------------------------
    def _make_lat_thread_func(self, priority: int, event: KEvent):
        def lat_thread_func(kernel: Kernel, thread):
            # KeSetPriorityThread(KeGetCurrentThread(), priority) -- the
            # thread was created at its priority already; assert the call
            # anyway for fidelity.
            kernel.set_thread_priority(thread, priority)
            while True:
                yield Wait(event)  # WaitForObject(gEvent, FOREVER)
                t_thread = kernel.read_tsc()  # GetCycleCount(&ghIRP->ASB[2])
                sample = self._current
                irp = self._current_irp
                if sample is not None and irp is not None and sample.priority == priority:
                    irp.system_buffer[2] = t_thread
                    sample.t_thread = t_thread
                    self._current_irp = None  # ghIRP = NULL
                    yield Run(
                        kernel.clock.us_to_cycles(self.config.thread_work_us),
                        label=("WDMLAT", "_LatThreadFunc"),
                    )
                    self.io.complete_request(irp)  # IoCompleteRequest(ghIRP)

        return lat_thread_func

    # ------------------------------------------------------------------
    # Control application (a user-mode thread, as in the real tool)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the control application thread."""
        if self._started_at is not None:
            raise RuntimeError("latency tool already started")
        self._started_at = self.kernel.engine.now
        self._app_event = KEvent(synchronization=True, name="lat-app-completion")
        self._app_rng = self.kernel.machine.rng.child("latency-tool-app")
        self.kernel.create_thread(
            "LatControlApp", self.config.app_priority, self._control_app_body, module="APP"
        )

    def _issue_read(self) -> None:
        self.io.read_file_ex(self.device, buffer_slots=3, completion=self._read_completed)

    def _read_completed(self, irp: Irp) -> None:
        # Completion APC: archive the sample, wake the control app so it
        # can "Calculate, Output Latencies" and issue the next read.
        sample = self._current
        if sample is not None and sample.complete:
            self.samples.append(sample)
            for observer in self.on_sample:
                observer(sample)
        self._current = None
        self.kernel.set_event(self._app_event)

    def _control_app_body(self, kernel: Kernel, thread):
        lo, hi = self.config.app_processing_ms
        while True:
            self._issue_read()  # ReadFileEx -> LatRead runs in our context
            yield Wait(self._app_event)
            processing_ms = self._app_rng.uniform(lo, hi)
            yield Run(
                kernel.clock.ms_to_cycles(processing_ms),
                label=("APP", "_LatControlApp"),
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def collect(self, workload_name: str = "unknown") -> SampleSet:
        """Package the accumulated samples as a :class:`SampleSet`."""
        if self._started_at is None:
            raise RuntimeError("latency tool never started")
        duration_s = self.kernel.clock.cycles_to_s(self.kernel.engine.now - self._started_at)
        return SampleSet(
            clock=self.kernel.clock,
            os_name=self.os.name,
            workload=workload_name,
            duration_s=duration_s,
            columns=self.samples.copy(),
        )
