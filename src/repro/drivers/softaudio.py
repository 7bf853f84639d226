"""A low-latency software audio renderer (Table 1's "RT audio" row).

The paper's running concrete example of latency damage is audio: "the
virus scanner causes breakup of low latency audio" (section 4.3), KMixer's
buffering appears in Table 1's footnote, and the expected-glitch arithmetic
of section 4.3 ("a 16 millisecond thread latency about every 1000 times
that our thread does a WaitForSingleObject ... roughly every 16 seconds for
an audio thread with a 16 millisecond period").

This driver is that audio thread: a render loop with ``n`` buffers of ``t``
milliseconds, fed by the audio device's period interrupt, rendering in a
real-time priority kernel thread (the KMixer model).  A *glitch* is a
buffer not rendered by the time the hardware needs it -- audible breakup.

Use with :data:`repro.workloads.perturbations.VIRUS_SCANNER` to reproduce
the paper's observation quantitatively; see
``tests/test_softaudio.py::TestVirusScannerBreakup``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.tolerance import latency_tolerance_ms
from repro.kernel.boot import BootedOs
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import Kernel
from repro.kernel.objects import KEvent
from repro.kernel.requests import Run, Wait


@dataclass(frozen=True)
class SoftAudioConfig:
    """Audio pipeline parameters.

    Attributes:
        period_ms: Buffer period t (Table 1: 8-24 ms for RT audio).
        n_buffers: Queue depth n (Table 1: 2-8; KMixer's 8 "is on the high
            side", 4 "more realistic").
        render_fraction: CPU share of a period spent mixing/rendering.
        thread_priority: The render thread's real-time priority.
    """

    period_ms: float = 16.0
    n_buffers: int = 4
    render_fraction: float = 0.15
    thread_priority: int = 24

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ValueError(f"period must be positive, got {self.period_ms}")
        if self.n_buffers < 2:
            raise ValueError(f"need at least double buffering, got {self.n_buffers}")
        if not 0.0 < self.render_fraction < 1.0:
            raise ValueError(f"render_fraction must be in (0,1), got {self.render_fraction}")

    @property
    def render_ms(self) -> float:
        return self.period_ms * self.render_fraction

    @property
    def tolerance_ms(self) -> float:
        """Latency tolerance (n-1) * t, straight from Table 1's model."""
        return latency_tolerance_ms(self.n_buffers, self.period_ms)


@dataclass
class SoftAudioReport:
    """Results of an audio run."""

    config: SoftAudioConfig
    periods: int
    glitches: int
    duration_s: float

    @property
    def glitch_rate(self) -> float:
        """Glitches per period (the per-wait probability of section 4.3)."""
        if self.periods == 0:
            return 0.0
        return self.glitches / self.periods

    @property
    def seconds_between_glitches(self) -> Optional[float]:
        if self.glitches == 0:
            return None
        return self.duration_s / self.glitches


class SoftAudioRenderer:
    """The render pipeline: device interrupt -> DPC -> RT render thread."""

    def __init__(self, os: BootedOs, config: SoftAudioConfig = SoftAudioConfig()):
        self.os = os
        self.kernel: Kernel = os.kernel
        self.config = config
        self.periods = 0
        self.glitches = 0
        self._started_at: Optional[int] = None
        self._render_deadlines: List[int] = []
        self._render_cycles = self.kernel.clock.ms_to_cycles(config.render_ms)
        self._tolerance_cycles = self.kernel.clock.ms_to_cycles(config.tolerance_ms)
        self._event = KEvent(synchronization=True, name="audio-period")
        self._dpc = Dpc(
            self._period_dpc,
            importance=DpcImportance.MEDIUM,
            name="_PortClsDpc",
            module="PORTCLS",
        )
        self._vector = self.kernel.register_intrusion_vector(
            f"softaudio-{id(self)}", irql=16, latency_us=2.0
        )
        self.kernel.connect_interrupt(self._vector, self._audio_isr)
        self.kernel.create_thread(
            "KMixerRender", config.thread_priority, self._render_thread, module="KMIXER"
        )

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("audio renderer already started")
        self._started_at = self.kernel.engine.now
        self._schedule_period()

    def report(self) -> SoftAudioReport:
        if self._started_at is None:
            raise RuntimeError("audio renderer never started")
        return SoftAudioReport(
            config=self.config,
            periods=self.periods,
            glitches=self.glitches,
            duration_s=self.kernel.clock.cycles_to_s(
                self.kernel.engine.now - self._started_at
            ),
        )

    # ------------------------------------------------------------------
    def _schedule_period(self) -> None:
        self.kernel.engine.post_in(
            self.kernel.clock.ms_to_cycles(self.config.period_ms), self._period_tick
        )

    def _period_tick(self) -> None:
        # The DMA engine consumed one buffer and raises the period IRQ.
        self.periods += 1
        self._render_deadlines.append(self.kernel.engine.now + self._tolerance_cycles)
        self.kernel.pic.assert_irq(self._vector, self.kernel.engine.now)
        self._schedule_period()

    def _audio_isr(self, kernel: Kernel, vector, asserted_at: int):
        yield Run(kernel.clock.us_to_cycles(3.0), label=("PORTCLS", "_AudioIsr"))
        kernel.queue_dpc(self._dpc)

    def _period_dpc(self, kernel: Kernel, dpc: Dpc):
        kernel.set_event(self._event)
        yield Run(kernel.clock.us_to_cycles(2.0), label=("PORTCLS", "_PortClsDpc"))

    def _reap_glitches(self) -> None:
        now = self.kernel.engine.now
        while self._render_deadlines and self._render_deadlines[0] < now:
            self._render_deadlines.pop(0)
            self.glitches += 1

    def _render_thread(self, kernel: Kernel, thread):
        while True:
            yield Wait(self._event)
            self._reap_glitches()
            while self._render_deadlines:
                yield Run(self._render_cycles, label=("KMIXER", "_MixAndRender"))
                self._reap_glitches()
                if self._render_deadlines:
                    self._render_deadlines.pop(0)
