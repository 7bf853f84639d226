"""Raw latency samples and the derived latency kinds.

Section 2.1 of the paper defines the metrics (see Figures 1-3):

* **interrupt latency** -- hardware interrupt assertion to the first
  instruction of the software ISR;
* **DPC latency** -- ISR enqueues the DPC to the DPC's first instruction;
* **DPC interrupt latency** -- their sum (hardware interrupt to DPC);
* **thread latency** -- ISR/DPC signals a waiting thread to the thread's
  first instruction after the wait;
* **thread interrupt latency** -- hardware interrupt to the thread.

Each measurement cycle of the tool yields one :class:`RawSample` carrying
the TSC timestamps taken at the points Figure 3 marks.  Every kind is the
difference of two of them, written once in the span table ``_SPANS``:
DPC is ``t_isr`` to ``t_dpc``, THREAD is ``t_dpc`` to ``t_thread``, and
ISR, DPC_INTERRUPT and THREAD_INTERRUPT run from the hardware-interrupt
origin to ``t_isr``, ``t_dpc`` and ``t_thread``.  The origin follows the
paper's arithmetic: the hardware interrupt timestamp is *estimated* as
(read-time TSC + programmed delay), giving the +/- one PIT period
resolution the paper accepts; the simulator additionally records the
ground-truth assertion time so the estimation error itself can be
studied.

Storage is columnar: a :class:`SampleSet` holds one ``array('q')`` per
timestamp field (:class:`SampleColumns`) rather than a Python object per
cycle, so long collection runs cost eight machine words per sample instead
of a dataclass plus boxed ints.  A latency series is one pass over the
columns of its span, and one sorted copy per ``(kind, priority,
origin)`` is cached for every order-statistics consumer
(:class:`~repro.core.stats.DistributionSummary`, ``percentile``,
``exceedance_fraction``, the worst-case estimator).  Per-row
:class:`RawSample` objects are built only on demand, by
:meth:`SampleSet.iter_samples`; they are fresh views, so mutating one
leaves the set unchanged.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.clock import CpuClock

#: Column sentinel for "timestamp not recorded" (``None`` in RawSample).
#: Every real value is a non-negative cycle count, so -1 is unambiguous.
_NONE = -1

_ORIGIN_MODES = ("auto", "estimate", "truth")


class LatencyKind(enum.Enum):
    """The five latency metrics of section 2.1."""

    ISR = "isr_latency"
    DPC = "dpc_latency"
    DPC_INTERRUPT = "dpc_interrupt_latency"
    THREAD = "thread_latency"
    THREAD_INTERRUPT = "thread_interrupt_latency"

    @property
    def description(self) -> str:
        return _KIND_DESCRIPTIONS[self]


_KIND_DESCRIPTIONS = {
    LatencyKind.ISR: "H/W interrupt assertion to first ISR instruction",
    LatencyKind.DPC: "ISR DPC enqueue to first DPC instruction",
    LatencyKind.DPC_INTERRUPT: "H/W interrupt assertion to first DPC instruction",
    LatencyKind.THREAD: "DPC signal to first thread instruction after wait",
    LatencyKind.THREAD_INTERRUPT: "H/W interrupt assertion to thread execution",
}

#: Each kind as the span between two Figure 3 stamps: (start, end) field
#: names, with ``None`` for the hardware-interrupt origin
#: (:meth:`RawSample.origin`).  ISR's ``"auto"`` origin is therefore the
#: truth: ISR latency exists only on rows with a ``t_isr`` stamp (the
#: private PIT handler, whose phase arithmetic references the true tick
#: time), and those are the rows where ``"auto"`` means ``"truth"``.
_SPANS: Dict[LatencyKind, Tuple[Optional[str], str]] = {
    LatencyKind.ISR: (None, "t_isr"),
    LatencyKind.DPC: ("t_isr", "t_dpc"),
    LatencyKind.DPC_INTERRUPT: (None, "t_dpc"),
    LatencyKind.THREAD: ("t_dpc", "t_thread"),
    LatencyKind.THREAD_INTERRUPT: (None, "t_thread"),
}


@dataclass
class RawSample:
    """Timestamps (TSC cycles) from one measurement cycle (Figure 3).

    Attributes:
        seq: Cycle number within the run.
        priority: Win32 priority of the signalled measurement thread.
        t_read: TSC in the driver's I/O read routine, just before
            ``KeSetTimer`` (``ASB[0]``).
        delay_cycles: The programmed timer delay, in cycles.
        t_assert: Ground-truth PIT assertion time of the tick that expired
            the timer (simulator-only knowledge).
        t_isr: TSC at the first instruction of the (hooked) PIT ISR; only
            available when the Windows 98-style ISR hook is installed.
        t_dpc: TSC at the first instruction of the tool's DPC (``ASB[1]``).
        t_thread: TSC at the thread's first instruction after its wait is
            satisfied (``ASB[2]``).
    """

    seq: int
    priority: int
    t_read: int
    delay_cycles: int
    t_assert: Optional[int] = None
    t_isr: Optional[int] = None
    t_dpc: Optional[int] = None
    t_thread: Optional[int] = None

    @property
    def estimated_expiry(self) -> int:
        """The paper's estimated hardware-interrupt timestamp."""
        return self.t_read + self.delay_cycles

    def origin(self, mode: str = "auto") -> Optional[int]:
        """The 'hardware interrupt' reference timestamp.

        Modes:
            ``"auto"`` -- paper-faithful: when the run had the Windows
            98-style private PIT handler (``t_isr`` is recorded), the tool
            knows the true tick phase and references the assertion time;
            otherwise (the NT tool) it falls back to the estimated expiry
            with its +/- one PIT period resolution.
            ``"estimate"`` -- always use the software estimate.
            ``"truth"`` -- always use the simulator's ground truth.
        """
        if mode == "estimate":
            return self.estimated_expiry
        if mode == "truth":
            return self.t_assert
        if mode == "auto":
            return self.t_assert if self.t_isr is not None else self.estimated_expiry
        raise ValueError(f"unknown origin mode {mode!r}")

    def latency_cycles(self, kind: LatencyKind, origin: str = "auto") -> Optional[int]:
        """The latency of ``kind`` in cycles, or ``None`` if unmeasurable.

        Args:
            origin: Hardware-interrupt reference mode (see :meth:`origin`);
                read only by the kinds that start at the interrupt.
        """
        start_stamp, end_stamp = _SPANS[kind]
        if start_stamp is None:
            start = self.origin(origin)
        else:
            start = getattr(self, start_stamp)
        end = getattr(self, end_stamp)
        if start is None or end is None:
            return None
        return end - start

    @property
    def complete(self) -> bool:
        return self.t_dpc is not None and self.t_thread is not None


class SampleColumns:
    """Column-major storage for measurement cycles.

    One signed 64-bit array per :class:`RawSample` field; optional
    timestamps use ``-1`` for "not recorded" (all real values are
    non-negative cycle counts).  This is the recorder the latency tool
    streams into on its hot path and the storage behind every
    :class:`SampleSet`.
    """

    __slots__ = (
        "seq",
        "priority",
        "t_read",
        "delay_cycles",
        "t_assert",
        "t_isr",
        "t_dpc",
        "t_thread",
    )

    def __init__(self) -> None:
        self.seq = array("q")
        self.priority = array("q")
        self.t_read = array("q")
        self.delay_cycles = array("q")
        self.t_assert = array("q")
        self.t_isr = array("q")
        self.t_dpc = array("q")
        self.t_thread = array("q")

    def __len__(self) -> int:
        return len(self.seq)

    def append(self, sample: RawSample) -> None:
        """Append one completed cycle (drop-in for ``list.append``)."""
        self.append_cycle(
            sample.seq,
            sample.priority,
            sample.t_read,
            sample.delay_cycles,
            sample.t_assert,
            sample.t_isr,
            sample.t_dpc,
            sample.t_thread,
        )

    def append_cycle(
        self,
        seq: int,
        priority: int,
        t_read: int,
        delay_cycles: int,
        t_assert: Optional[int] = None,
        t_isr: Optional[int] = None,
        t_dpc: Optional[int] = None,
        t_thread: Optional[int] = None,
    ) -> None:
        self.seq.append(seq)
        self.priority.append(priority)
        self.t_read.append(t_read)
        self.delay_cycles.append(delay_cycles)
        self.t_assert.append(_NONE if t_assert is None else t_assert)
        self.t_isr.append(_NONE if t_isr is None else t_isr)
        self.t_dpc.append(_NONE if t_dpc is None else t_dpc)
        self.t_thread.append(_NONE if t_thread is None else t_thread)

    def view(self, index: int) -> RawSample:
        """A :class:`RawSample` for row ``index`` (a fresh object per call)."""
        t_assert = self.t_assert[index]
        t_isr = self.t_isr[index]
        t_dpc = self.t_dpc[index]
        t_thread = self.t_thread[index]
        return RawSample(
            seq=self.seq[index],
            priority=self.priority[index],
            t_read=self.t_read[index],
            delay_cycles=self.delay_cycles[index],
            t_assert=None if t_assert == _NONE else t_assert,
            t_isr=None if t_isr == _NONE else t_isr,
            t_dpc=None if t_dpc == _NONE else t_dpc,
            t_thread=None if t_thread == _NONE else t_thread,
        )

    def __iter__(self) -> Iterator[RawSample]:
        for index in range(len(self.seq)):
            yield self.view(index)

    def extend(self, other: "SampleColumns") -> None:
        for name in self.__slots__:
            getattr(self, name).extend(getattr(other, name))

    def copy(self) -> "SampleColumns":
        duplicate = SampleColumns()
        duplicate.extend(self)
        return duplicate

    def fingerprint_stream(self) -> Iterator[Tuple[int, ...]]:
        """Rows as raw tuples (sentinels included) for hashing/goldens."""
        return zip(
            self.seq,
            self.priority,
            self.t_read,
            self.delay_cycles,
            self.t_assert,
            self.t_isr,
            self.t_dpc,
            self.t_thread,
        )

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, column in zip(self.__slots__, state):
            setattr(self, name, column)


class SampleSet:
    """A collection of samples from one measurement run.

    Attributes:
        clock: CPU clock for cycle/ms conversion.
        os_name: Which OS personality produced the data.
        workload: Name of the stress load.
        duration_s: Simulated wall time of the collection.
        columns: The :class:`SampleColumns` holding every sample.
    """

    def __init__(
        self,
        clock: CpuClock,
        os_name: str,
        workload: str,
        duration_s: float,
        columns: Optional[SampleColumns] = None,
    ):
        self.clock = clock
        self.os_name = os_name
        self.workload = workload
        self.duration_s = duration_s
        self.columns = columns if columns is not None else SampleColumns()
        # sorted latency series keyed by (kind, priority, origin); appends
        # are the only mutation and clear it.
        self._sorted_cache: Dict[Tuple[LatencyKind, Optional[int], str], List[float]] = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, sample: RawSample) -> None:
        self.columns.append(sample)
        if self._sorted_cache:
            self._sorted_cache.clear()

    def __len__(self) -> int:
        return len(self.columns)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def iter_samples(self, priority: Optional[int] = None) -> Iterable[RawSample]:
        columns = self.columns
        if priority is None:
            return iter(columns)
        return (
            columns.view(i)
            for i, p in enumerate(columns.priority)
            if p == priority
        )

    def priorities(self) -> Sequence[int]:
        return sorted(set(self.columns.priority))

    # ------------------------------------------------------------------
    # Latency series
    # ------------------------------------------------------------------
    def latencies_ms(
        self,
        kind: LatencyKind,
        priority: Optional[int] = None,
        origin: str = "auto",
    ) -> List[float]:
        """All measured latencies of ``kind`` in milliseconds, sample order.

        Thread-relative kinds (THREAD, THREAD_INTERRUPT) are per-signalled-
        thread: pass ``priority`` to select the priority-24 or priority-28
        series.  Interrupt/DPC kinds are shared across the run, so when no
        priority is given every cycle contributes.

        Args:
            origin: Hardware-interrupt reference mode (see
                :meth:`RawSample.origin`).
        """
        to_ms = self.clock.cycles_to_ms
        return [to_ms(c) for c in self._latency_cycles(kind, priority, origin)]

    def _latency_cycles(
        self, kind: LatencyKind, priority: Optional[int], origin: str
    ) -> List[int]:
        """Columnar evaluation of :meth:`RawSample.latency_cycles` per row.

        One pass over the kind's span (same skips for missing stamps, same
        origin-mode selection as the per-row arithmetic).
        """
        if origin not in _ORIGIN_MODES:
            raise ValueError(f"unknown origin mode {origin!r}")
        columns = self.columns
        start_stamp, end_stamp = _SPANS[kind]
        end = getattr(columns, end_stamp)
        if start_stamp is not None:
            start = getattr(columns, start_stamp)
        elif origin == "truth":
            start = columns.t_assert
        elif origin == "estimate":
            # Stamps are non-negative, so the estimate is never the sentinel.
            start = [r + d for r, d in zip(columns.t_read, columns.delay_cycles)]
        else:  # auto: the truth on rows the hooked PIT handler stamped
            start = [
                a if i != _NONE else r + d
                for r, d, a, i in zip(
                    columns.t_read, columns.delay_cycles, columns.t_assert, columns.t_isr
                )
            ]
        if priority is None:
            return [e - s for s, e in zip(start, end) if s != _NONE and e != _NONE]
        return [
            e - s
            for p, s, e in zip(columns.priority, start, end)
            if p == priority and s != _NONE and e != _NONE
        ]

    def sorted_latencies_ms(
        self,
        kind: LatencyKind,
        priority: Optional[int] = None,
        origin: str = "auto",
    ) -> List[float]:
        """Ascending latency series of ``kind`` (milliseconds).

        The sorted copy is computed once per ``(kind, priority, origin)``
        and reused by every order-statistics consumer (percentiles,
        exceedance fractions, tail fits, histograms); appending new
        samples invalidates the cache.  Callers must treat the returned
        list as immutable.
        """
        key = (kind, priority, origin)
        cached = self._sorted_cache.get(key)
        if cached is None:
            cached = sorted(self.latencies_ms(kind, priority=priority, origin=origin))
            self._sorted_cache[key] = cached
        return cached

    def histogram(
        self,
        kind: LatencyKind,
        priority: Optional[int] = None,
        origin: str = "auto",
        edges_ms: Optional[Sequence[float]] = None,
    ):
        """A :class:`~repro.core.histogram.LatencyHistogram` of ``kind``.

        Built from the cached sorted series by bucket bisection, so a
        Figure 4 panel costs O(buckets log n) on top of the one-time sort
        instead of a per-value scan.
        """
        from repro.core.histogram import LOG2_BUCKETS_MS, LatencyHistogram

        values = self.sorted_latencies_ms(kind, priority=priority, origin=origin)
        return LatencyHistogram.from_sorted_values(
            values, edges_ms if edges_ms is not None else LOG2_BUCKETS_MS
        )

    def summary(
        self,
        kind: LatencyKind,
        priority: Optional[int] = None,
        origin: str = "auto",
    ):
        """A :class:`~repro.core.stats.DistributionSummary` of ``kind``."""
        from repro.core.stats import DistributionSummary

        return DistributionSummary.from_sorted(
            self.sorted_latencies_ms(kind, priority=priority, origin=origin)
        )

    def sample_rate_hz(self, priority: Optional[int] = None) -> float:
        """Measurement cycles per second for the selected series."""
        if self.duration_s <= 0:
            return 0.0
        if priority is None:
            count = len(self.columns)
        else:
            count = sum(1 for p in self.columns.priority if p == priority)
        return count / self.duration_s

    def merged_with(self, other: "SampleSet") -> "SampleSet":
        """Concatenate two runs of the same configuration."""
        if (self.os_name, self.workload) != (other.os_name, other.workload):
            raise ValueError("cannot merge sample sets from different configurations")
        columns = self.columns.copy()
        columns.extend(other.columns)
        return SampleSet(
            self.clock,
            self.os_name,
            self.workload,
            self.duration_s + other.duration_s,
            columns=columns,
        )

    # ------------------------------------------------------------------
    # Pickling (campaign workers ship SampleSets across processes)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "clock": self.clock,
            "os_name": self.os_name,
            "workload": self.workload,
            "duration_s": self.duration_s,
            "columns": self.columns,
        }

    def __setstate__(self, state) -> None:
        self.__init__(**state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SampleSet {self.os_name}/{self.workload} n={len(self)} "
            f"dur={self.duration_s:.1f}s>"
        )
