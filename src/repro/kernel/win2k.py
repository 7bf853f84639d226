"""The Windows 2000 (beta) personality -- the paper's section 6.1 follow-up.

"We have completed evaluations of Windows 98 and Windows NT 4.0 and
continue to monitor the performance of Beta releases of Windows 2000"
(footnote: Windows 2000 was previously Windows NT 5.0).

Windows 2000 keeps NT's structure -- fully preemptible kernel, work-item
queue at real-time default priority -- with incremental improvements that
were visible in the beta timeframe: cheaper context switches (larger
register save optimisations, queued spinlocks shortening dispatcher holds)
and a slightly tighter DPC path.  We model it as an NT 4.0 derivative with
~25-30 % lower fixed costs and shorter executive critical sections, which
is exactly the magnitude of change the latency metrics can resolve while
throughput metrics cannot.

This personality is an *extension* beyond the paper's published data; no
quantitative claims are calibrated against it.  It exists so the
methodology can be exercised on a third OS, as the authors did.
"""

from __future__ import annotations

from repro.kernel.intrusions import IntrusionKind, IntrusionSpec, LoadProfile
from repro.kernel.profile import OsProfile
from repro.sim.rng import DurationDistribution

WIN2K_PROFILE = OsProfile(
    name="win2k",
    description="Windows 2000 Beta (NT 5.0), NTFS, queued spinlocks",
    filesystem="NTFS",
    quantum_ms=20.0,
    context_switch_us=6.5,
    isr_dispatch_us=1.6,
    clock_isr_us=3.8,
    dpc_dispatch_us=1.1,
    timer_expiry_us=0.8,
    work_item_thread=True,
    work_item_priority=24,
)

WIN2K_BASELINE_LOAD = LoadProfile(
    name="win2k-baseline",
    intrusions=(
        IntrusionSpec(
            name="hal-cli",
            kind=IntrusionKind.CLI,
            rate_hz=120.0,
            duration=DurationDistribution(
                body_median_ms=0.003, body_sigma=0.7, tail_prob=0.008,
                tail_scale_ms=0.015, tail_alpha=3.0, max_ms=0.15,
            ),
            module="HAL",
            function="_KeAcquireQueuedSpinLock",
        ),
        IntrusionSpec(
            name="ke-dispatcher",
            kind=IntrusionKind.SECTION,
            rate_hz=60.0,
            duration=DurationDistribution(
                body_median_ms=0.006, body_sigma=0.8, tail_prob=0.008,
                tail_scale_ms=0.04, tail_alpha=2.6, max_ms=0.4,
            ),
            module="NTOSKRNL",
            function="_KiDispatcherLock",
        ),
    ),
)
