"""The section 6.1 cause-tool enhancements, implemented.

The paper's future work for the latency cause tool:

1. "enhance it to hook non-maskable interrupts caused by the Pentium II
   performance monitoring counters instead of the PIT interrupt.  By
   configuring the performance counter to the CPU_CLOCKS_UNHALTED event we
   will be able to get sub-millisecond resolution during both thread and
   interrupt latencies."
2. "enhance the hook to 'walk' the stack so as to generate call trees
   instead of isolated instruction pointer samples."

:class:`ProfilingCauseSampler` does both: it samples at a configurable
multi-kHz rate through an NMI-like mechanism (immune to interrupt-disabled
regions -- a PIT-hook sampler goes blind exactly when a ``cli`` window is
the thing causing the latency), and each sample records the whole execution
context chain (thread -> DPC -> nested ISRs), from which per-episode call
trees are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.samples import LatencyKind, RawSample
from repro.drivers.latency import WdmLatencyTool
from repro.kernel.kernel import Kernel

Label = Tuple[str, str]
Stack = Tuple[Label, ...]


@dataclass(frozen=True)
class StackSample:
    """One NMI sample: timestamp plus the full context chain."""

    tsc: int
    stack: Stack

    @property
    def leaf(self) -> Label:
        return self.stack[-1]


class CallTreeNode:
    """A node of an aggregated call tree."""

    __slots__ = ("label", "samples", "children")

    def __init__(self, label: Label):
        self.label = label
        self.samples = 0
        self.children: Dict[Label, "CallTreeNode"] = {}

    def child(self, label: Label) -> "CallTreeNode":
        node = self.children.get(label)
        if node is None:
            node = CallTreeNode(label)
            self.children[label] = node
        return node

    def format(self, indent: int = 0) -> str:
        lines = []
        if indent >= 0 and self.label != ("<root>", ""):
            module, function = self.label
            lines.append(f"{'  ' * indent}{self.samples:5d}  {module}!{function}")
        for child in sorted(self.children.values(), key=lambda n: -n.samples):
            lines.append(child.format(indent + (1 if self.label != ('<root>', '') else 0)))
        return "\n".join(line for line in lines if line)


def build_call_tree(stacks: List[Stack]) -> CallTreeNode:
    """Aggregate stack samples into a call tree (outermost frame at root)."""
    root = CallTreeNode(("<root>", ""))
    for stack in stacks:
        root.samples += 1
        node = root
        for label in stack:
            node = node.child(label)
            node.samples += 1
    return root


@dataclass
class ProfiledEpisode:
    """An over-threshold latency with sub-millisecond stack samples."""

    index: int
    priority: int
    latency_ms: float
    window: Tuple[int, int]
    samples: List[StackSample] = field(default_factory=list)

    def call_tree(self) -> CallTreeNode:
        return build_call_tree([s.stack for s in self.samples])

    def leaf_counts(self) -> Dict[Label, int]:
        counts: Dict[Label, int] = {}
        for sample in self.samples:
            counts[sample.leaf] = counts.get(sample.leaf, 0) + 1
        return counts

    def format(self) -> str:
        lines = [
            f"Episode {self.index}: {self.latency_ms:.2f} ms thread latency "
            f"(priority {self.priority}), {len(self.samples)} NMI samples"
        ]
        tree = self.call_tree()
        rendered = tree.format()
        if rendered:
            lines.append(rendered)
        return "\n".join(lines)


class ProfilingCauseSampler:
    """Perf-counter NMI sampler with stack walking.

    Args:
        tool: The latency tool supplying the over-threshold trigger.
        sampling_hz: NMI rate (CPU_CLOCKS_UNHALTED overflow period).  The
            paper's PIT hook was pinned to 1 kHz; performance-counter NMIs
            go much faster -- default 20 kHz gives 50 us resolution.
        threshold_ms: Minimum thread latency to capture.
        ring_size: Stack samples retained.
        max_episodes: Capture bound.

    The NMI is modelled as an ideal sampler: it observes the execution
    context without consuming simulated CPU (a real handler costs ~1 us; at
    20 kHz that is 2% overhead the idealisation ignores) and, crucially,
    *fires inside interrupt-disabled regions*, which the PIT-hook sampler
    cannot.
    """

    def __init__(
        self,
        tool: WdmLatencyTool,
        sampling_hz: float = 20_000.0,
        threshold_ms: float = 2.0,
        ring_size: int = 8192,
        max_episodes: int = 500,
    ):
        if sampling_hz <= 0:
            raise ValueError(f"sampling_hz must be positive, got {sampling_hz}")
        if threshold_ms <= 0:
            raise ValueError(f"threshold must be positive, got {threshold_ms}")
        self.tool = tool
        self.kernel: Kernel = tool.kernel
        self.threshold_ms = threshold_ms
        self.ring_size = ring_size
        self.max_episodes = max_episodes
        self.episodes: List[ProfiledEpisode] = []
        self.samples_taken = 0
        self._ring: List[StackSample] = []
        self._period_cycles = self.kernel.clock.period_cycles(sampling_hz)
        self._timer = self.kernel.engine.schedule_periodic(
            self._period_cycles, self._nmi_fire, start=False
        )
        tool.on_sample.append(self._check_sample)

    def start(self) -> None:
        """Arm the performance counter (begin sampling)."""
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def _nmi_fire(self) -> None:
        stack = tuple(self.kernel.execution_context_stack())
        self.samples_taken += 1
        self._ring.append(StackSample(tsc=self.kernel.read_tsc(), stack=stack))
        if len(self._ring) > self.ring_size:
            del self._ring[: self.ring_size // 2]

    def _check_sample(self, sample: RawSample) -> None:
        """Capture an episode for an over-threshold *thread* latency or an
        over-threshold *interrupt-path* latency -- the paper's goal is
        "sub-millisecond resolution during both thread and interrupt
        latencies", which the PIT-based hook could not provide (it is
        itself blocked by the interrupt-disabled regions it should be
        attributing)."""
        if len(self.episodes) >= self.max_episodes:
            return
        to_ms = self.kernel.clock.cycles_to_ms
        window: Optional[Tuple[int, int]] = None
        latency_ms = 0.0
        thread_cycles = sample.latency_cycles(LatencyKind.THREAD)
        if thread_cycles is not None and to_ms(thread_cycles) > self.threshold_ms:
            assert sample.t_dpc is not None and sample.t_thread is not None
            window = (sample.t_dpc, sample.t_thread)
            latency_ms = to_ms(thread_cycles)
        else:
            dpc_cycles = sample.latency_cycles(LatencyKind.DPC_INTERRUPT)
            if dpc_cycles is not None and to_ms(dpc_cycles) > self.threshold_ms:
                origin = sample.origin("auto")
                assert origin is not None and sample.t_dpc is not None
                window = (origin, sample.t_dpc)
                latency_ms = to_ms(dpc_cycles)
        if window is None:
            return
        captured = [s for s in self._ring if window[0] <= s.tsc <= window[1]]
        self.episodes.append(
            ProfiledEpisode(
                index=len(self.episodes),
                priority=sample.priority,
                latency_ms=latency_ms,
                window=window,
                samples=captured,
            )
        )

    # ------------------------------------------------------------------
    def format_report(self, limit: int = 5) -> str:
        if not self.episodes:
            return "No latency episodes above threshold."
        return "\n\n".join(e.format() for e in self.episodes[:limit])

    def resolution_us(self) -> float:
        """Sampling resolution in microseconds."""
        return self.kernel.clock.cycles_to_us(self._period_cycles)
