"""Deferred Procedure Calls.

WDM's mechanism for "longer processing in interrupt context": an ISR queues
a DPC; the queue is drained at DISPATCH_LEVEL after all ISRs complete but
before any thread runs, and DPCs cannot preempt other DPCs.  Ordinary DPCs
queue FIFO; *High* importance DPCs go to the head of the queue, *Low* to
the tail (same as Medium in queue position, but a real kernel may defer the
drain request -- we model Low as tail insertion, which preserves ordering
behaviour without the drain-threshold heuristic).

Because the queue is FIFO, "DPC latency encompasses the time required to
enqueue and dequeue a DPC as well as the aggregate time to execute all DPCs
in the DPC queue when the DPC was enqueued" (section 2.1) -- that aggregate
is exactly what this queue makes emergent.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional


class DpcImportance(enum.Enum):
    """Queue-position importance of a DPC."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Dpc:
    """A deferred procedure call.

    Attributes:
        routine: ``routine(kernel, dpc)`` returning a generator of kernel
            requests (the deferred work).
        importance: Queue insertion policy.
        name: Identifier the cause tool reports.
        module: Module label for cause-tool sampling (e.g. ``"NTKERN"``).
        context: Arbitrary per-queue payload (the paper passes the IRP).
    """

    # The drain reads ~10 of these per DPC run; slots keep that off a
    # per-instance dict.  ``burn_cycles`` is owner scratch: pooled burn
    # DPCs (see repro.kernel.intrusions) stash their fire-time cost here
    # for the body's cost callable to read.
    __slots__ = (
        "routine",
        "compiled",
        "importance",
        "name",
        "module",
        "mf_label",
        "const_segs",
        "context",
        "queued",
        "enqueued_at",
        "enqueue_clock_assert",
        "run_count",
        "burn_cycles",
    )

    def __init__(
        self,
        routine: Callable,
        importance: DpcImportance = DpcImportance.MEDIUM,
        name: str = "dpc",
        module: str = "NTKERN",
    ):
        self.routine = routine
        #: True when ``routine`` is segments-compiled (marked with
        #: :func:`repro.kernel.requests.segments_body`); cached here so the
        #: DPC drain avoids a per-run getattr.
        self.compiled = bool(getattr(routine, "__wdm_segments__", False))
        self.importance = importance
        self.name = name
        self.module = module
        #: (module, name) tuple reused by the kernel's DPC frame setup so
        #: the drain does not allocate a label per run.
        self.mf_label = (module, name)
        #: Optional constant Segments body.  When a compiled routine is a
        #: side-effect-free constant (it just returns a prebuilt tuple),
        #: the owner may stash that tuple here and the drain installs it on
        #: the frame without the factory trampoline; segment costs are
        #: still resolved at execution time.
        self.const_segs = None
        self.context: object = None
        self.queued = False
        self.enqueued_at: Optional[int] = None
        #: Assertion time of the clock interrupt being serviced when this
        #: DPC was enqueued (simulator ground truth for latency accounting;
        #: ``None`` when not enqueued from the clock ISR's tick).
        self.enqueue_clock_assert: Optional[int] = None
        self.run_count = 0


class DpcQueue:
    """The system DPC queue."""

    __slots__ = ("_queue", "max_depth")

    def __init__(self) -> None:
        self._queue: Deque[Dpc] = deque()
        self.max_depth = 0

    def insert(self, dpc: Dpc, now: int, context: object = None) -> bool:
        """``KeInsertQueueDpc``: queue a DPC if not already queued.

        Returns ``False`` (and does nothing) if the DPC is already in the
        queue -- WDM semantics; this is why an ISR storm coalesces rather
        than queueing duplicates.
        """
        if dpc.queued:
            return False
        dpc.queued = True
        dpc.enqueued_at = now
        if context is not None:
            dpc.context = context
        if dpc.importance is DpcImportance.HIGH:
            self._queue.appendleft(dpc)
        else:
            self._queue.append(dpc)
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)
        return True

    def remove(self, dpc: Dpc) -> bool:
        """``KeRemoveQueueDpc``: withdraw a queued DPC."""
        if not dpc.queued:
            return False
        try:
            self._queue.remove(dpc)
        except ValueError:  # pragma: no cover - defensive
            return False
        dpc.queued = False
        return True

    def pop(self) -> Optional[Dpc]:
        """Dequeue the next DPC to run (FIFO; High importance first)."""
        if not self._queue:
            return None
        dpc = self._queue.popleft()
        dpc.queued = False
        return dpc

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
