"""The Windows 98 personality.

Windows 98 exposes the same WDM surface as NT (carefully written drivers
are binary portable -- the paper's thread-latency driver is), but the
implementation underneath keeps the Windows 95-era VMM and VxD layer.  The
consequences the paper measures:

* much longer interrupt-disable windows (legacy VMM/V86 paths run with
  interrupts masked for up to several milliseconds under load) -- the
  "H/W Int. to S/W ISR" latencies of Table 3;
* slower DPC dispatch through NTKERN's emulation of the NT DPC interface;
* long non-reentrant VMM sections during which a newly-woken thread cannot
  be dispatched even though ISRs and DPCs run -- these produce the tens of
  milliseconds of *thread* latency that dominate Figure 4's Windows 98
  panels, and are modelled as SECTION bursts on the hidden priority-31
  executor.

The baseline numbers here represent a quiet system; the per-workload
profiles in :mod:`repro.workloads` supply the heavy tails.
"""

from __future__ import annotations

from repro.kernel.intrusions import IntrusionKind, IntrusionSpec, LoadProfile
from repro.kernel.profile import OsProfile
from repro.sim.rng import DurationDistribution

WIN98_PROFILE = OsProfile(
    name="win98",
    description="Windows 98 + Plus! 98 Pack (no virus scanner), FAT32, DMA IDE",
    filesystem="FAT32",
    quantum_ms=20.0,
    context_switch_us=14.0,
    isr_dispatch_us=3.5,
    clock_isr_us=6.0,
    dpc_dispatch_us=4.0,
    timer_expiry_us=1.5,
    work_item_thread=False,
)

#: Baseline (quiet-system) legacy activity: VMM interrupt-disable windows
#: around 10-60 microseconds with a rare tail into the hundreds, and VMM
#: non-reentrant sections with a body of ~0.1 ms and a tail reaching a few
#: milliseconds even when idle.
WIN98_BASELINE_LOAD = LoadProfile(
    name="win98-baseline",
    intrusions=(
        IntrusionSpec(
            name="vmm-cli",
            kind=IntrusionKind.CLI,
            rate_hz=150.0,
            duration=DurationDistribution(
                body_median_ms=0.015, body_sigma=0.9, tail_prob=0.02,
                tail_scale_ms=0.08, tail_alpha=2.2, max_ms=1.0,
            ),
            module="VMM",
            function="@KfLowerIrql",
        ),
        IntrusionSpec(
            name="vmm-section",
            kind=IntrusionKind.SECTION,
            rate_hz=60.0,
            duration=DurationDistribution(
                body_median_ms=0.08, body_sigma=1.0, tail_prob=0.03,
                tail_scale_ms=0.6, tail_alpha=1.8, max_ms=8.0,
            ),
            module="VMM",
            function="_EnterMustComplete",
        ),
        IntrusionSpec(
            name="ntkern-dpc-overhead",
            kind=IntrusionKind.DPC,
            rate_hz=40.0,
            duration=DurationDistribution(
                body_median_ms=0.03, body_sigma=0.8, tail_prob=0.02,
                tail_scale_ms=0.1, tail_alpha=2.5, max_ms=1.0,
            ),
            module="NTKERN",
            function="_ExpAllocatePool",
        ),
    ),
)
