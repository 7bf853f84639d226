"""Interactive-event latency, Endo-style (the section 1.2 contrast).

Endo, Wang, Chen & Seltzer measured *interactive* latency -- keystroke and
mouse-click response -- on Windows NT and Windows 95 [7].  The paper uses
them as the foil: input response "is generally regarded as being adequately
responsive if the latencies are in the range of 50 to 150 ms" [Shneiderman],
which is an order of magnitude above the 4-40 ms tolerances of the
low-latency drivers this paper cares about.

This driver measures keystroke-to-echo latency on the simulated kernels:
a keyboard interrupt fires, its ISR queues a DPC, the DPC signals the GUI
thread (ordinary dynamic priority, boosted on wake like a real foreground
window thread), and the GUI thread "draws" the character.  The expected
result, which the benchmark asserts: **both** OSes look comfortably
responsive through this lens, even under load that destroys their
real-time behaviour -- interactive benchmarks cannot see the difference
Figure 4 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.stats import DistributionSummary
from repro.kernel.boot import BootedOs
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel
from repro.kernel.objects import KEvent
from repro.kernel.requests import Run, Wait
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class InteractiveConfig:
    """Keystroke workload parameters.

    Attributes:
        keystrokes_per_second: Typing rate (the paper's conservative human
            ceiling is ~10 chars/s; the default models a fast typist).
        gui_priority: Base priority of the GUI thread (foreground normal).
        echo_work_ms: CPU to process and draw one character (message loop,
            GDI text out).
    """

    keystrokes_per_second: float = 8.0
    gui_priority: int = 9
    echo_work_ms: float = 1.2

    def __post_init__(self):
        if self.keystrokes_per_second <= 0:
            raise ValueError("typing rate must be positive")
        if not 1 <= self.gui_priority <= 15:
            raise ValueError("the GUI thread is a normal-class thread")


@dataclass
class InteractiveReport:
    """Keystroke-echo latency distribution."""

    config: InteractiveConfig
    latencies_ms: List[float]

    @property
    def summary(self) -> DistributionSummary:
        return DistributionSummary.from_values(self.latencies_ms)

    def fraction_over(self, threshold_ms: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(1 for v in self.latencies_ms if v > threshold_ms) / len(
            self.latencies_ms
        )

    def format(self) -> str:
        s = self.summary
        return (
            f"keystroke echo latency: n={s.count} median={s.median:.2f} ms "
            f"p99={s.p99:.2f} ms max={s.maximum:.2f} ms "
            f"(>150 ms: {self.fraction_over(150.0):.2%})"
        )


class KeystrokeEchoDriver:
    """Keyboard interrupt -> ISR -> DPC -> GUI thread -> echo."""

    def __init__(self, os: BootedOs, config: InteractiveConfig = InteractiveConfig(),
                 seed: int = 1999):
        self.os = os
        self.kernel: Kernel = os.kernel
        self.config = config
        self.rng = RngStream(seed, "keystrokes")
        self.latencies_ms: List[float] = []
        self._pending: List[int] = []  # press timestamps awaiting echo
        self._started_at: Optional[int] = None
        self._event = KEvent(synchronization=True, name="wm-char")
        self._dpc = Dpc(
            self._kbd_dpc, importance=DpcImportance.MEDIUM,
            name="_I8042KeyboardDpc", module="I8042PRT",
        )
        self._vector = self.kernel.register_intrusion_vector(
            f"keyboard-{id(self)}", irql=18, latency_us=3.0
        )
        self.kernel.connect_interrupt(self._vector, self._kbd_isr)
        self.kernel.create_thread(
            "GuiThread", config.gui_priority, self._gui_thread, module="USER32"
        )

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("driver already started")
        self._started_at = self.kernel.engine.now
        self._schedule_keystroke()

    def report(self) -> InteractiveReport:
        if self._started_at is None:
            raise RuntimeError("driver never started")
        return InteractiveReport(config=self.config, latencies_ms=list(self.latencies_ms))

    # ------------------------------------------------------------------
    def _schedule_keystroke(self) -> None:
        delay_s = self.rng.poisson_interval(self.config.keystrokes_per_second)
        self.kernel.engine.post_in(
            self.kernel.clock.s_to_cycles(delay_s), self._key_press
        )

    def _key_press(self) -> None:
        self._pending.append(self.kernel.engine.now)
        self.kernel.pic.assert_irq(self._vector, self.kernel.engine.now)
        self._schedule_keystroke()

    def _kbd_isr(self, kernel: Kernel, vector, asserted_at: int):
        yield Run(kernel.clock.us_to_cycles(5.0), label=("I8042PRT", "_KeyboardIsr"))
        kernel.queue_dpc(self._dpc)

    def _kbd_dpc(self, kernel: Kernel, dpc: Dpc):
        kernel.set_event(self._event)
        yield Run(kernel.clock.us_to_cycles(8.0), label=("I8042PRT", "_KeyboardDpc"))

    def _gui_thread(self, kernel: Kernel, thread):
        echo_cycles = kernel.clock.ms_to_cycles(self.config.echo_work_ms)
        while True:
            yield Wait(self._event)
            while self._pending:
                pressed_at = self._pending.pop(0)
                yield Run(echo_cycles, label=("USER32", "_DispatchMessage"))
                self.latencies_ms.append(
                    kernel.clock.cycles_to_ms(kernel.engine.now - pressed_at)
                )
