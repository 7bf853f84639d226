"""Prioritised interrupt delivery (PIC + HAL IRQL mapping).

The controller tracks *asserted* vectors and offers the kernel the highest-
IRQL pending vector.  Delivery policy (can the CPU take it right now?) is
the kernel's job; the controller only models the hardware-side state:
assertion, pending, acknowledge.

Each vector carries the IRQL its ISR runs at, matching the WDM notion that
device interrupt levels (DIRQLs) sit between ``DISPATCH_LEVEL`` and the
clock interrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


# slots=True: vector fields (irql, latency_cycles, asserted_at) are read on
# every poll/delivery; slotted instances keep those loads off a
# per-instance dict.
@dataclass(slots=True)
class InterruptVector:
    """One interrupt line as the kernel sees it.

    Attributes:
        name: Stable identifier ("pit", "ide0", "nic", ...).
        irql: IRQL at which the connected ISR executes.
        latency_cycles: Fixed hardware cost between assertion and the CPU
            being able to start the ISR (bus arbitration + vector fetch).
        asserted_at: Cycle time of the oldest un-acknowledged assertion, or
            ``None`` when idle.
        coalesced: Assertions that arrived while already pending (edge
            triggered semantics: they are lost, like real hardware).
    """

    name: str
    irql: int
    latency_cycles: int = 600  # ~2 microseconds at 300 MHz
    asserted_at: Optional[int] = None
    coalesced: int = 0

    @property
    def pending(self) -> bool:
        return self.asserted_at is not None


class InterruptController:
    """The machine's interrupt controller.

    The kernel registers a single ``delivery_hook`` which is poked whenever
    a new vector is asserted; the kernel then decides whether current IRQL
    and interrupt-flag state allow delivery, and calls :meth:`acknowledge`
    when it starts the ISR.
    """

    __slots__ = ("_vectors", "_pending_vectors", "delivery_hook")

    def __init__(self) -> None:
        self._vectors: Dict[str, InterruptVector] = {}
        # Live list of pending vectors, maintained by assert_irq/acknowledge.
        # The kernel polls for deliverable interrupts on every frame
        # transition, so the poll must not scan every registered vector;
        # membership mirrors ``vector.pending`` exactly (asserting appends,
        # acknowledging removes) and selection below is by a total order,
        # so iteration order of this list never affects results.
        self._pending_vectors: List[InterruptVector] = []
        self.delivery_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register(self, vector: InterruptVector) -> InterruptVector:
        """Register a vector; names must be unique."""
        if vector.name in self._vectors:
            raise ValueError(f"vector {vector.name!r} already registered")
        if not 3 <= vector.irql <= 31:
            raise ValueError(
                f"vector {vector.name!r} has IRQL {vector.irql}; device vectors "
                "must be above DISPATCH_LEVEL (2) and at most HIGH_LEVEL (31)"
            )
        self._vectors[vector.name] = vector
        return vector

    def vector(self, name: str) -> InterruptVector:
        return self._vectors[name]

    # ------------------------------------------------------------------
    # Hardware-side operations
    # ------------------------------------------------------------------
    def assert_irq(self, name: str, now: int) -> bool:
        """Assert an interrupt line at cycle ``now``.

        Returns ``True`` if the assertion created a new pending interrupt;
        ``False`` if it coalesced into an already-pending one.
        """
        return self.assert_vector(self._vectors[name], now)

    def assert_vector(self, vector: InterruptVector, now: int) -> bool:
        """:meth:`assert_irq` for callers already holding the vector.

        Steady interrupt sources (devices, intrusion ISRs) assert the same
        line on every fire; caching the vector object skips the per-fire
        name lookup.
        """
        if vector.asserted_at is not None:
            vector.coalesced += 1
            return False
        vector.asserted_at = now
        self._pending_vectors.append(vector)
        if self.delivery_hook is not None:
            self.delivery_hook()
        return True

    def highest_pending(self, above_irql: int) -> Optional[InterruptVector]:
        """The pending vector with the highest IRQL strictly above ``above_irql``.

        Ties are broken by earliest assertion time (FIFO within a level),
        then by name for determinism.
        """
        pending = self._pending_vectors
        if not pending:
            return None
        if len(pending) == 1:
            # One pending line is by far the common case under load.
            vector = pending[0]
            return vector if vector.irql > above_irql else None
        best: Optional[InterruptVector] = None
        for vector in pending:
            if vector.irql <= above_irql:
                continue
            if best is None:
                best = vector
                continue
            key = (-vector.irql, vector.asserted_at, vector.name)
            best_key = (-best.irql, best.asserted_at, best.name)
            if key < best_key:
                best = vector
        return best

    def acknowledge(self, name: str) -> int:
        """Acknowledge (begin servicing) a pending vector.

        Returns the cycle time at which the interrupt was asserted, which
        the kernel uses to account true hardware interrupt latency.
        """
        return self.acknowledge_vector(self._vectors[name])

    def acknowledge_vector(self, vector: InterruptVector) -> int:
        """:meth:`acknowledge` for callers already holding the vector.

        The kernel's delivery path gets the vector object from
        :meth:`highest_pending`; going back through the name->vector dict
        would be a wasted lookup per delivery.
        """
        if not vector.pending:
            raise RuntimeError(f"acknowledge of non-pending vector {vector.name!r}")
        asserted_at = vector.asserted_at
        vector.asserted_at = None
        self._pending_vectors.remove(vector)
        assert asserted_at is not None
        return asserted_at

    def any_pending(self, above_irql: int = 0) -> bool:
        return self.highest_pending(above_irql) is not None
