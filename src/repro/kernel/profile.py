"""Static per-OS kernel parameters.

An :class:`OsProfile` captures the *fixed* costs of a kernel personality:
dispatch overheads, quantum length, context-switch cost.  The *stochastic*
legacy behaviour (VMM sections, interrupt-disable windows, DPC load) lives
in :mod:`repro.kernel.calibration` because it varies per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import CpuClock


@dataclass(frozen=True)
class OsProfile:
    """Fixed kernel costs and policies for one OS personality.

    All times are microseconds; they are converted to cycles against the
    machine clock at boot.  Defaults are NT-ish; the personalities override.

    Attributes:
        name: "nt4", "win98" or "win2k".
        description: Table 2-style configuration string.
        filesystem: Documentation only (NTFS vs FAT32).
        quantum_ms: Scheduler timeslice for round-robin at equal priority.
        context_switch_us: Cost charged when the scheduler switches between
            two different threads (save/restore + immediate cache refill
            effects; the paper's thread latency deliberately includes it).
        isr_dispatch_us: Software cost from vector acceptance to the ISR's
            first instruction (trap frame build, HAL dispatch).
        clock_isr_us: Body of the OS clock (PIT) ISR.
        dpc_dispatch_us: Per-DPC dequeue/dispatch overhead.
        timer_expiry_us: Clock-ISR cost per expired timer processed.
        work_item_thread: Whether :func:`~repro.kernel.boot.boot_os` builds
            a kernel work-item queue, serviced by a dedicated thread (NT).
            The paper: "The WDM 'kernel work item' queue is serviced by a
            real-time default priority thread, which accounts for the large
            difference between high and default priority threads under NT
            4.0."
        work_item_priority: Priority of that servicing thread (RT default,
            24).
        wait_boost: Dynamic priority boost granted to a *normal-class*
            thread when its wait is satisfied (decays by one level per
            expired quantum back to the base).  Real-time priorities
            (16-31) are never boosted -- section 4.1's hierarchy depends on
            them being exact.
    """

    name: str
    description: str = ""
    filesystem: str = "NTFS"
    quantum_ms: float = 20.0
    context_switch_us: float = 8.0
    isr_dispatch_us: float = 2.0
    clock_isr_us: float = 4.0
    dpc_dispatch_us: float = 1.5
    timer_expiry_us: float = 1.0
    work_item_thread: bool = False
    work_item_priority: int = 24
    wait_boost: int = 2

    def cycles(self, clock: CpuClock) -> "OsProfileCycles":
        """Pre-convert all costs to cycles for the hot path."""
        return OsProfileCycles(
            quantum=clock.ms_to_cycles(self.quantum_ms),
            context_switch=clock.us_to_cycles(self.context_switch_us),
            isr_dispatch=clock.us_to_cycles(self.isr_dispatch_us),
            clock_isr=clock.us_to_cycles(self.clock_isr_us),
            dpc_dispatch=clock.us_to_cycles(self.dpc_dispatch_us),
            timer_expiry=clock.us_to_cycles(self.timer_expiry_us),
        )


@dataclass(frozen=True)
class OsProfileCycles:
    """:class:`OsProfile` costs pre-converted to CPU cycles."""

    quantum: int
    context_switch: int
    isr_dispatch: int
    clock_isr: int
    dpc_dispatch: int
    timer_expiry: int
