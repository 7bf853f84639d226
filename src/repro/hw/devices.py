"""Interrupt-generating peripherals.

The paper's test system (Table 2) is deliberately legacy-free: PCI and USB
devices only, DMA (bus-master) IDE, a PCI NIC, PCI/USB audio and AGP
graphics.  For latency purposes a device is a source of interrupts whose
ISR/DPC work is supplied by whatever driver the kernel connects; this module
models the hardware half (vector, DIRQL, completion timing).

Workloads ask devices to ``complete_in`` -- e.g. the disk "finishes a DMA
transfer 3 ms from now" -- and the device asserts its interrupt line at that
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.clock import CpuClock
from repro.sim.engine import Engine
from repro.hw.pic import InterruptController, InterruptVector


@dataclass(frozen=True)
class DeviceConfig:
    """Static description of a peripheral.

    Attributes:
        name: Vector/device identifier.
        irql: DIRQL of the device's ISR.
        irq_latency_us: Hardware cost from assertion to ISR dispatch
            (bus arbitration, APIC/PIC vector fetch).
        description: Human-readable description for reports.
    """

    name: str
    irql: int
    irq_latency_us: float = 2.0
    description: str = ""


class Device:
    """A peripheral that can raise interrupts on its own vector."""

    def __init__(
        self,
        config: DeviceConfig,
        engine: Engine,
        clock: CpuClock,
        pic: InterruptController,
    ):
        self.config = config
        self.engine = engine
        self.clock = clock
        self.pic = pic
        self.vector = pic.register(
            InterruptVector(
                name=config.name,
                irql=config.irql,
                latency_cycles=clock.us_to_cycles(config.irq_latency_us),
            )
        )

    def raise_irq(self) -> None:
        """Assert the device's interrupt line right now."""
        self.pic.assert_vector(self.vector, self.engine.now)

    def complete_in(self, delay_ms: float) -> None:
        """Schedule an operation completion ``delay_ms`` from now.

        The interrupt is asserted when the (DMA) operation completes; the
        connected driver's ISR/DPC then run under kernel control.
        """
        if delay_ms < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ms}")
        self.engine.post_in(self.clock.ms_to_cycles(delay_ms), self.raise_irq)


#: Table 2's peripheral set.  DIRQLs are representative: all sit strictly
#: between DISPATCH_LEVEL (2) and the clock interrupt level, with the
#: relative ordering NT's HAL would typically assign.
STANDARD_DEVICE_CONFIGS: List[DeviceConfig] = [
    DeviceConfig("ide0", irql=12, description="Maxtor DiamondMax 6.4 GB UDMA (bus-master IDE)"),
    DeviceConfig("cdrom", irql=11, description="Sony CDU 711E 32x CD-ROM"),
    DeviceConfig("nic", irql=14, description="Intel EtherExpress Pro 100 PCI NIC"),
    DeviceConfig("audio", irql=16, description="Ensoniq PCI / Philips DSS 350 USB audio"),
    DeviceConfig("gpu", irql=9, description="ATI Xpert@Work AGP graphics"),
    DeviceConfig("usb", irql=13, description="USB host controller (UHCI)"),
]


def standard_pci_devices(
    engine: Engine, clock: CpuClock, pic: InterruptController
) -> Dict[str, Device]:
    """Instantiate the paper's legacy-free PCI/USB peripheral set."""
    return {
        cfg.name: Device(cfg, engine, clock, pic) for cfg in STANDARD_DEVICE_CONFIGS
    }
