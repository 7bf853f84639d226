"""The simulated WDM kernel.

This package implements the execution model the paper measures (section 4.1's
"WDM scheduling hierarchy"):

1. Interrupt Service Routines (ISRs), executing at DIRQLs up to HIGH_LEVEL;
2. Deferred Procedure Calls (DPCs), a FIFO queue with three importance
   levels, drained at DISPATCH_LEVEL (DPCs cannot preempt other DPCs);
3. Real-time priority threads (Win32 priorities 16-31);
4. Normal priority threads (Win32 priorities 1-15), timesliced.

Each level is fully preemptible by the levels above it.  The OS
*personalities* (:mod:`repro.kernel.nt4`, :mod:`repro.kernel.win98` and the
section 6.1 :mod:`repro.kernel.win2k` beta) share this machinery and one
boot path, :func:`repro.kernel.boot.boot_os`, but differ in the costs and
legacy behaviour they layer on top (Windows 98 keeps its Windows 95-era
VMM, whose long non-preemptible sections produce the latency tails the
paper observes).

Schedulable code is written as Python generators that yield
:class:`repro.kernel.requests.Run` / :class:`repro.kernel.requests.Wait`
requests; every other kernel service (``KeSetEvent``, ``KeInsertQueueDpc``,
``KeSetTimer``, ...) is a plain method call on :class:`Kernel`.  Latencies
are *emergent*: they arise from queueing, preemption and the calibrated
durations of kernel activity, never from sampling a target distribution.
"""

from repro.kernel import irql
from repro.kernel.dpc import Dpc, DpcImportance
from repro.kernel.kernel import BugCheck, Kernel, KernelError
from repro.kernel.objects import KEvent, KMutex, KSemaphore, KTimer, WaitStatus
from repro.kernel.profile import OsProfile
from repro.kernel.requests import Run, Wait, WaitAny
from repro.kernel.threads import KThread, ThreadState

__all__ = [
    "BugCheck",
    "Dpc",
    "DpcImportance",
    "KEvent",
    "KMutex",
    "KSemaphore",
    "KThread",
    "KTimer",
    "Kernel",
    "KernelError",
    "OsProfile",
    "Run",
    "ThreadState",
    "Wait",
    "WaitAny",
    "WaitStatus",
    "irql",
]
