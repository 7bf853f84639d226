"""The assembled test machine.

Replicates Table 2's testbed: a 300 MHz Pentium II with 32 MB SDRAM and an
all-PCI/USB peripheral set.  The :class:`Machine` wires together the
simulation engine, clock, TSC, interrupt controller, PIT and devices; a
kernel (from :mod:`repro.kernel`) is then booted on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.clock import CpuClock
from repro.sim.engine import Engine
from repro.sim.rng import RngStream
from repro.hw.devices import Device, standard_pci_devices
from repro.hw.pic import InterruptController, InterruptVector
from repro.hw.pit import DEFAULT_FREQUENCY_HZ, ProgrammableIntervalTimer
from repro.hw.tsc import TimeStampCounter


#: IRQL of the clock interrupt.  The paper notes the PIT ISR "runs at
#: extremely high IRQL"; NT's clock level is 28.
PIT_IRQL = 28


@dataclass(frozen=True)
class MachineConfig:
    """Hardware configuration knobs.

    Attributes:
        cpu_hz: CPU frequency (cycles per second).
        pit_hz: Initial PIT rate (before any driver reprograms it).
    """

    cpu_hz: int = 300_000_000
    pit_hz: float = DEFAULT_FREQUENCY_HZ


class Machine:
    """A simulated PC 99 minimum system (Table 2)."""

    def __init__(self, config: MachineConfig = MachineConfig(), seed: int = 1999):
        self.config = config
        self.engine = Engine()
        self.clock = CpuClock(hz=config.cpu_hz)
        self.tsc = TimeStampCounter(self.engine)
        self.rng = RngStream(seed, "machine")
        self.pic = InterruptController()
        self.pic.register(
            InterruptVector(
                name=ProgrammableIntervalTimer.VECTOR_NAME,
                irql=PIT_IRQL,
                latency_cycles=self.clock.us_to_cycles(1.5),
            )
        )
        self.pit = ProgrammableIntervalTimer(
            self.engine, self.clock, self.pic, frequency_hz=config.pit_hz
        )
        self.devices: Dict[str, Device] = standard_pci_devices(
            self.engine, self.clock, self.pic
        )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self.engine.now

    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.cycles_to_ms(self.engine.now)

    def run_for_ms(self, ms: float, max_events: int = None) -> int:
        """Advance the simulation by ``ms`` milliseconds."""
        return self.engine.run_for(self.clock.ms_to_cycles(ms), max_events=max_events)

    def device(self, name: str) -> Device:
        return self.devices[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mhz = self.config.cpu_hz / 1e6
        return f"<Machine {mhz:.0f} MHz, t={self.now_ms():.3f} ms>"
