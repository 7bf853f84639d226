"""The columnar sample recorder behind SampleSet.

Covers column/RawSample-view equivalence, sorted-cache invalidation on
append, histogram streaming vs ``from_values``, plus the cross-process
pickling the campaign runner depends on.
"""

import pickle
import random

import pytest

from repro.core.histogram import LatencyHistogram, merge_histograms
from repro.core.samples import LatencyKind, RawSample, SampleColumns, SampleSet
from repro.core.stats import DistributionSummary
from repro.sim.clock import CpuClock

CLOCK = CpuClock()
MS = CLOCK.ms_to_cycles


def make_sample(seq, priority=28, with_isr=True, extra_ms=0.0):
    base = MS(extra_ms)
    return RawSample(
        seq=seq,
        priority=priority,
        t_read=base,
        delay_cycles=MS(1.0),
        t_assert=base + MS(1.4),
        t_isr=base + MS(1.5) if with_isr else None,
        t_dpc=base + MS(1.8),
        t_thread=base + MS(2.3),
    )


def build_set(n=12):
    ss = SampleSet(CLOCK, "win98", "games", duration_s=float(n))
    for i in range(n):
        ss.add(make_sample(i, priority=28 if i % 2 == 0 else 24, with_isr=i % 3 != 0))
    return ss


class TestSampleColumns:
    def test_append_and_view_round_trip(self):
        columns = SampleColumns()
        originals = [make_sample(i, with_isr=i % 2 == 0) for i in range(8)]
        for sample in originals:
            columns.append(sample)
        assert len(columns) == 8
        assert [columns.view(i) for i in range(8)] == originals
        assert list(columns) == originals

    def test_none_fields_survive_the_sentinel(self):
        columns = SampleColumns()
        columns.append(RawSample(seq=0, priority=28, t_read=5, delay_cycles=7))
        view = columns.view(0)
        assert view.t_assert is None
        assert view.t_isr is None
        assert view.t_dpc is None
        assert view.t_thread is None

    def test_extend_and_copy_are_independent(self):
        a = SampleColumns()
        a.append(make_sample(0))
        b = a.copy()
        b.append(make_sample(1))
        assert len(a) == 1 and len(b) == 2
        c = SampleColumns()
        c.extend(b)
        assert list(c) == list(b)

    def test_pickle_round_trip(self):
        columns = SampleColumns()
        for i in range(5):
            columns.append(make_sample(i, with_isr=i % 2 == 0))
        restored = pickle.loads(pickle.dumps(columns))
        assert list(restored) == list(columns)


class TestColumnarSampleSet:
    def test_view_matches_per_sample_arithmetic(self):
        """Columnar latency series == the RawSample-by-RawSample series."""
        ss = build_set()
        for kind in LatencyKind:
            for priority in (None, 28, 24):
                for origin in ("auto", "estimate", "truth"):
                    expected = [
                        CLOCK.cycles_to_ms(c)
                        for s in ss.iter_samples(priority)
                        if (c := s.latency_cycles(kind, origin=origin)) is not None
                    ]
                    assert ss.latencies_ms(kind, priority, origin) == expected

    def test_invalid_origin_rejected(self):
        ss = build_set()
        with pytest.raises(ValueError):
            ss.latencies_ms(LatencyKind.DPC_INTERRUPT, origin="bogus")

    def test_sorted_cache_invalidated_on_append(self):
        ss = build_set()
        first = ss.sorted_latencies_ms(LatencyKind.THREAD, priority=28)
        # Cached: same object back while nothing was appended.
        assert ss.sorted_latencies_ms(LatencyKind.THREAD, priority=28) is first
        ss.add(make_sample(99, priority=28, extra_ms=50.0))
        second = ss.sorted_latencies_ms(LatencyKind.THREAD, priority=28)
        assert second is not first
        assert len(second) == len(first) + 1
        assert second == sorted(ss.latencies_ms(LatencyKind.THREAD, priority=28))

    def test_pickle_drops_to_compact_columns(self):
        ss = build_set()
        ss.sorted_latencies_ms(LatencyKind.THREAD, priority=28)  # warm a cache
        restored = pickle.loads(pickle.dumps(ss))
        assert restored._sorted_cache == {}
        assert list(restored.iter_samples()) == list(ss.iter_samples())
        assert restored.latencies_ms(LatencyKind.DPC_INTERRUPT) == ss.latencies_ms(
            LatencyKind.DPC_INTERRUPT
        )

    def test_merged_with_preserves_streams(self):
        a = build_set(6)
        b = build_set(4)
        merged = a.merged_with(b)
        assert len(merged) == 10
        assert merged.duration_s == a.duration_s + b.duration_s
        assert list(merged.iter_samples()) == list(a.iter_samples()) + list(
            b.iter_samples()
        )

    def test_summary_uses_sorted_series(self):
        ss = build_set()
        summary = ss.summary(LatencyKind.THREAD, priority=28)
        assert summary == DistributionSummary.from_values(
            ss.latencies_ms(LatencyKind.THREAD, priority=28)
        )


class TestHistogramStreaming:
    def test_from_sorted_values_matches_from_values(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 1.5) for _ in range(500)]
        # Exercise the on-edge path too (bucket rule is edges[i-1] < x <= edges[i]).
        values += [0.125, 0.25, 16.0, 128.0, 300.0]
        streamed = LatencyHistogram.from_sorted_values(sorted(values))
        reference = LatencyHistogram.from_values(values)
        assert streamed.counts == reference.counts
        assert streamed.total == reference.total
        assert streamed.max_ms == reference.max_ms

    def test_empty_sorted_histogram(self):
        histogram = LatencyHistogram.from_sorted_values([])
        assert histogram.total == 0
        assert sum(histogram.counts) == 0

    def test_merge_of_streamed_histograms_matches_from_values(self):
        a = build_set(8)
        b = build_set(10)
        merged = merge_histograms(
            [
                a.histogram(LatencyKind.DPC_INTERRUPT),
                b.histogram(LatencyKind.DPC_INTERRUPT),
            ]
        )
        reference = LatencyHistogram.from_values(
            a.latencies_ms(LatencyKind.DPC_INTERRUPT)
            + b.latencies_ms(LatencyKind.DPC_INTERRUPT)
        )
        assert merged.counts == reference.counts
        assert merged.total == reference.total
        assert merged.max_ms == reference.max_ms

    def test_distribution_summary_from_sorted(self):
        values = [3.0, 1.0, 2.0, 9.0, 0.5]
        assert DistributionSummary.from_sorted(
            sorted(values)
        ) == DistributionSummary.from_values(values)
        with pytest.raises(ValueError):
            DistributionSummary.from_sorted([])
