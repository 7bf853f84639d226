"""A soft-modem datapump and the deadline-miss modelling tool.

Section 5.1 analyses soft modem quality of service: the datapump (the
modem's physical-interface layer) executes periodically with a cycle time
of 4-16 ms, consuming "somewhat less than 25% of a cycle" on a 300 MHz
Pentium II, and fails (buffer underrun) when the OS delays it past its
slack.  Section 6.1 describes a tool that "models periodic computation at
configurable modalities (e.g., threads, DPCs) and priorities ... and
reports the number of deadlines that have been missed" -- this module is
that tool.

Two datapump modalities, matching Figures 6 and 7:

* **DPC-based** -- a periodic timer's DPC does the signal processing at
  DISPATCH_LEVEL.  Its deadline exposure is DPC interrupt latency.
* **Thread-based** -- the timer DPC signals a high real-time priority
  kernel thread that does the processing.  Exposure adds thread latency.

The monitor counts a *miss* whenever a buffer's processing has not
completed by its deadline (arrival + (n-1) * t -- all buffered data
consumed).  Missed buffers are dropped, mirroring the paper's note that a
datapump can substitute a dummy buffer and survive occasional misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.kernel.boot import BootedOs
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel
from repro.kernel.objects import KEvent
from repro.kernel.requests import Run, Wait


@dataclass(frozen=True)
class DatapumpConfig:
    """Datapump parameters.

    Attributes:
        cycle_ms: Buffer period t (4-16 ms for real soft modems).
        n_buffers: Buffer count n; latency tolerance is (n-1) * t.
        cpu_fraction: Fraction of a cycle spent computing (the paper's
            conservative estimate is 0.25).
        modality: "dpc" or "thread".
        thread_priority: Priority of the processing thread (thread
            modality only).
        dirql: Device IRQL of the modem controller's interrupt.
    """

    cycle_ms: float = 8.0
    n_buffers: int = 3
    cpu_fraction: float = 0.25
    modality: str = "dpc"
    thread_priority: int = 28
    dirql: int = 15

    def __post_init__(self):
        if self.cycle_ms <= 0:
            raise ValueError(f"cycle_ms must be positive, got {self.cycle_ms}")
        if self.n_buffers < 2:
            raise ValueError(f"need at least double buffering, got {self.n_buffers}")
        if not 0.0 < self.cpu_fraction < 1.0:
            raise ValueError(f"cpu_fraction must be in (0, 1), got {self.cpu_fraction}")
        if self.modality not in ("dpc", "thread"):
            raise ValueError(f"modality must be 'dpc' or 'thread', got {self.modality!r}")

    @property
    def compute_ms(self) -> float:
        return self.cycle_ms * self.cpu_fraction

    @property
    def tolerance_ms(self) -> float:
        """Latency tolerance (n-1) * t."""
        return (self.n_buffers - 1) * self.cycle_ms

    @property
    def slack_ms(self) -> float:
        """Tolerance minus compute: the OS-delay budget per buffer."""
        return self.tolerance_ms - self.compute_ms


@dataclass
class DatapumpReport:
    """Results of a datapump run."""

    config: DatapumpConfig
    buffers_arrived: int
    buffers_completed: int
    misses: int
    duration_s: float
    worst_lateness_ms: float

    @property
    def mean_time_to_failure_s(self) -> Optional[float]:
        """Seconds between misses; ``None`` if no miss occurred."""
        if self.misses == 0:
            return None
        return self.duration_s / self.misses

    @property
    def miss_rate(self) -> float:
        if self.buffers_arrived == 0:
            return 0.0
        return self.misses / self.buffers_arrived


class SoftModemDatapump:
    """The running datapump + deadline monitor."""

    def __init__(self, os: BootedOs, config: DatapumpConfig = DatapumpConfig()):
        self.os = os
        self.kernel: Kernel = os.kernel
        self.config = config
        self.buffers_arrived = 0
        self.buffers_completed = 0
        self.misses = 0
        self.worst_lateness_ms = 0.0
        self._started_at: Optional[int] = None
        self._deadlines: List[int] = []  # deadline per in-flight buffer (FIFO)
        self._compute_cycles = self.kernel.clock.ms_to_cycles(config.compute_ms)
        self._tolerance_cycles = self.kernel.clock.ms_to_cycles(config.tolerance_ms)
        self._event = KEvent(synchronization=True, name="datapump-event")
        self._dpc = Dpc(
            self._modem_dpc,
            importance=DpcImportance.MEDIUM,
            name="_DatapumpDpc",
            module="SOFTMDM",
        )
        # The modem controller's DMA-completion interrupt: each buffer of
        # line data raises it, the ISR queues the processing DPC -- the WDM
        # pattern whose exposure *is* DPC interrupt latency.
        self._vector = self.kernel.register_intrusion_vector(
            f"softmodem-{id(self)}", irql=config.dirql, latency_us=2.0
        )
        self.kernel.connect_interrupt(self._vector, self._modem_isr)
        if config.modality == "thread":
            self.kernel.create_thread(
                "SoftModemPump",
                config.thread_priority,
                self._pump_thread,
                module="SOFTMDM",
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("datapump already started")
        self._started_at = self.kernel.engine.now
        # Buffer arrivals are hardware DMA: strictly periodic, independent
        # of how late the OS runs the processing.
        self._schedule_arrival()

    def _schedule_arrival(self) -> None:
        self.kernel.engine.post_in(
            self.kernel.clock.ms_to_cycles(self.config.cycle_ms), self._arrival_tick
        )

    def _arrival_tick(self) -> None:
        self._buffer_arrival()
        self.kernel.pic.assert_irq(self._vector, self.kernel.engine.now)
        self._schedule_arrival()

    def report(self) -> DatapumpReport:
        if self._started_at is None:
            raise RuntimeError("datapump never started")
        duration_s = self.kernel.clock.cycles_to_s(self.kernel.engine.now - self._started_at)
        return DatapumpReport(
            config=self.config,
            buffers_arrived=self.buffers_arrived,
            buffers_completed=self.buffers_completed,
            misses=self.misses,
            duration_s=duration_s,
            worst_lateness_ms=self.worst_lateness_ms,
        )

    # ------------------------------------------------------------------
    # Buffer bookkeeping
    # ------------------------------------------------------------------
    def _buffer_arrival(self) -> None:
        """A new buffer of line data is ready; note its deadline."""
        self.buffers_arrived += 1
        self._deadlines.append(self.kernel.engine.now + self._tolerance_cycles)

    def _reap_expired(self) -> None:
        """Count buffers whose deadline passed before processing finished."""
        now = self.kernel.engine.now
        while self._deadlines and self._deadlines[0] < now:
            lateness = self.kernel.clock.cycles_to_ms(now - self._deadlines[0])
            if lateness > self.worst_lateness_ms:
                self.worst_lateness_ms = lateness
            self._deadlines.pop(0)
            self.misses += 1

    def _complete_one(self) -> None:
        """Processing of the oldest in-flight buffer finished."""
        self._reap_expired()
        if self._deadlines:
            self._deadlines.pop(0)
            self.buffers_completed += 1

    # ------------------------------------------------------------------
    # Modalities
    # ------------------------------------------------------------------
    def _modem_isr(self, kernel: Kernel, vector, asserted_at: int):
        # WDM discipline: the ISR is tiny, all real work deferred.
        yield Run(kernel.clock.us_to_cycles(4.0), label=("SOFTMDM", "_ModemIsr"))
        kernel.queue_dpc(self._dpc)

    def _modem_dpc(self, kernel: Kernel, dpc: Dpc):
        self._reap_expired()
        if self.config.modality == "dpc":
            # Process every live buffer (catches up after a late DPC).
            while self._deadlines:
                yield Run(self._compute_cycles, label=("SOFTMDM", "_DatapumpCompute"))
                self._complete_one()
                self._reap_expired()
        else:
            kernel.set_event(self._event)
            yield Run(kernel.clock.us_to_cycles(2.0), label=("SOFTMDM", "_DatapumpDpc"))

    def _pump_thread(self, kernel: Kernel, thread):
        while True:
            yield Wait(self._event)
            self._reap_expired()
            # Drain every buffer that is still live.
            while self._deadlines:
                yield Run(self._compute_cycles, label=("SOFTMDM", "_DatapumpCompute"))
                self._complete_one()
                self._reap_expired()
