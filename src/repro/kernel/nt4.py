"""The Windows NT 4.0 personality.

NT 4.0 (Service Pack 3 with the 11/97 rollup hotfix, per Table 2) is a
fully preemptible kernel: interrupt-disable windows are short HAL/dispatcher
critical sections, DPCs drain promptly, and the scheduler dispatches a
woken real-time thread as soon as the DPC queue empties.  The two
NT-specific structures the paper leans on are both here:

* the kernel **work-item queue** serviced at real-time *default* priority
  (24), which is why a priority-24 measurement thread sees far worse
  latency than a priority-28 one; and
* short executive critical sections, modelled as baseline SECTION/CLI
  intrusions measured in microseconds rather than Windows 98's
  milliseconds.
"""

from __future__ import annotations

from repro.kernel.intrusions import IntrusionKind, IntrusionSpec, LoadProfile
from repro.kernel.profile import OsProfile
from repro.sim.rng import DurationDistribution

NT4_PROFILE = OsProfile(
    name="nt4",
    description="Windows NT 4.0 SP3 + 11/97 rollup hotfix, NTFS, PIIX bus-master IDE",
    filesystem="NTFS",
    quantum_ms=20.0,
    context_switch_us=9.0,
    isr_dispatch_us=2.0,
    clock_isr_us=4.5,
    dpc_dispatch_us=1.5,
    timer_expiry_us=1.0,
    work_item_thread=True,
    work_item_priority=24,
)

#: Baseline kernel activity present even on an idle NT system: HAL/spinlock
#: interrupt-disable windows and executive critical sections, all in the
#: tens-of-microseconds range.
NT4_BASELINE_LOAD = LoadProfile(
    name="nt4-baseline",
    intrusions=(
        IntrusionSpec(
            name="hal-cli",
            kind=IntrusionKind.CLI,
            rate_hz=120.0,
            duration=DurationDistribution(
                body_median_ms=0.004, body_sigma=0.7, tail_prob=0.01,
                tail_scale_ms=0.02, tail_alpha=3.0, max_ms=0.2,
            ),
            module="HAL",
            function="_KiAcquireSpinLock",
        ),
        IntrusionSpec(
            name="ke-dispatcher",
            kind=IntrusionKind.SECTION,
            rate_hz=60.0,
            duration=DurationDistribution(
                body_median_ms=0.008, body_sigma=0.8, tail_prob=0.01,
                tail_scale_ms=0.05, tail_alpha=2.5, max_ms=0.5,
            ),
            module="NTOSKRNL",
            function="_KiDispatcherLock",
        ),
    ),
)
