"""Clock conversions, RNG streams and duration distributions."""

import math
import random

import pytest

from repro.sim.clock import CpuClock, PENTIUM_II_300
from repro.sim.rng import DurationDistribution, RngStream, _derive_seed, sample_or_fixed


def _reference_sample_ms(dist: DurationDistribution, rng: random.Random) -> float:
    """The pre-fast-path ``sample_ms``, verbatim: library ``lognormvariate``
    and ``paretovariate`` calls with ``math.log(median)`` recomputed per
    draw.  The fast path must match this bit-for-bit, draw-for-draw."""
    if dist.tail_prob > 0.0 and rng.random() < dist.tail_prob:
        value = dist.tail_scale_ms * (1.0 + rng.paretovariate(dist.tail_alpha) - 1.0)
    else:
        value = rng.lognormvariate(math.log(dist.body_median_ms), dist.body_sigma)
    if value > dist.max_ms:
        return dist.max_ms
    if value < dist.min_ms:
        return dist.min_ms
    return value


class TestSampleFastPathEquivalence:
    """sample_ms_fast (cached log-median, cached bound methods) must
    produce the *identical* variate stream to the original library-call
    implementation."""

    DISTS = [
        DurationDistribution(body_median_ms=0.05, body_sigma=0.8),
        DurationDistribution(
            body_median_ms=0.2,
            body_sigma=1.2,
            tail_prob=0.25,
            tail_scale_ms=2.0,
            tail_alpha=1.3,
            max_ms=50.0,
        ),
        DurationDistribution(body_median_ms=3.0, body_sigma=0.1, min_ms=2.5, max_ms=3.5),
    ]

    @pytest.mark.parametrize("dist_index", range(len(DISTS)))
    def test_identical_variate_stream(self, dist_index):
        dist = self.DISTS[dist_index]
        stream = RngStream(1234, "equiv")
        reference = random.Random(_derive_seed(1234, "equiv"))
        fast = [stream.sample_ms_fast(dist) for _ in range(5000)]
        slow = [_reference_sample_ms(dist, reference) for _ in range(5000)]
        assert fast == slow  # bit-for-bit, including draw count per sample

    def test_sample_ms_delegates_to_fast_path(self):
        dist = self.DISTS[1]
        a = RngStream(77, "delegate")
        b = RngStream(77, "delegate")
        assert [dist.sample_ms(a) for _ in range(500)] == [
            b.sample_ms_fast(dist) for _ in range(500)
        ]

    def test_interleaved_draws_stay_aligned(self):
        """Mixing duration draws with other primitives must not desync the
        stream (the fast path consumes exactly as many ``random()`` calls
        as the library implementation)."""
        dist = self.DISTS[1]
        stream = RngStream(99, "mixed")
        reference = random.Random(_derive_seed(99, "mixed"))
        got, want = [], []
        for i in range(1000):
            got.append(stream.sample_ms_fast(dist))
            want.append(_reference_sample_ms(dist, reference))
            if i % 7 == 0:
                got.append(stream.random())
                want.append(reference.random())
        assert got == want


class TestCpuClock:
    def test_reference_clock_is_300mhz(self):
        assert PENTIUM_II_300.hz == 300_000_000

    def test_ms_round_trip(self):
        clock = CpuClock()
        assert clock.cycles_to_ms(clock.ms_to_cycles(2.5)) == pytest.approx(2.5)

    def test_us_conversion(self):
        clock = CpuClock()
        assert clock.us_to_cycles(1.0) == 300
        assert clock.cycles_to_us(300) == pytest.approx(1.0)

    def test_s_conversion(self):
        clock = CpuClock()
        assert clock.s_to_cycles(1.0) == 300_000_000

    def test_period_cycles(self):
        clock = CpuClock()
        assert clock.period_cycles(1000.0) == 300_000  # 1 kHz -> 1 ms
        assert clock.period_cycles(100.0) == 3_000_000

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CpuClock(hz=0)
        with pytest.raises(ValueError):
            CpuClock().period_cycles(0)

    def test_alternate_cpu_speed(self):
        clock = CpuClock(hz=600_000_000)
        assert clock.ms_to_cycles(1.0) == 600_000


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42, "x")
        b = RngStream(42, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        a = RngStream(42, "x")
        b = RngStream(42, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_child_streams_deterministic(self):
        a = RngStream(42).child("dev").child("ide0")
        b = RngStream(42).child("dev").child("ide0")
        assert a.random() == b.random()

    def test_child_name_composition(self):
        child = RngStream(1, "root").child("a")
        assert child.name == "root/a"

    def test_expovariate_mean(self):
        rng = RngStream(7, "exp")
        samples = [rng.expovariate(10.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.1, rel=0.05)

    def test_expovariate_invalid_rate(self):
        with pytest.raises(ValueError):
            RngStream(1).expovariate(0.0)

    def test_lognormal_median(self):
        rng = RngStream(9, "ln")
        samples = sorted(rng.lognormal(5.0, 0.5) for _ in range(20_000))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(5.0, rel=0.07)

    def test_pareto_minimum(self):
        rng = RngStream(3, "p")
        samples = [rng.pareto(2.0, 1.5) for _ in range(1000)]
        assert min(samples) >= 2.0

    def test_invalid_pareto(self):
        with pytest.raises(ValueError):
            RngStream(1).pareto(0.0, 1.0)


class TestDurationDistribution:
    def test_samples_respect_clamps(self):
        dist = DurationDistribution(
            body_median_ms=1.0, body_sigma=2.0, tail_prob=0.5,
            tail_scale_ms=5.0, tail_alpha=0.5, min_ms=0.5, max_ms=10.0,
        )
        rng = RngStream(11, "d")
        for _ in range(2000):
            value = dist.sample_ms(rng)
            assert 0.5 <= value <= 10.0

    def test_no_tail_means_pure_lognormal(self):
        dist = DurationDistribution(body_median_ms=2.0, body_sigma=0.3)
        rng = RngStream(5, "d")
        samples = sorted(dist.sample_ms(rng) for _ in range(10_000))
        assert samples[len(samples) // 2] == pytest.approx(2.0, rel=0.1)

    def test_tail_produces_large_values(self):
        dist = DurationDistribution(
            body_median_ms=0.1, body_sigma=0.1, tail_prob=0.2,
            tail_scale_ms=10.0, tail_alpha=2.0, max_ms=100.0,
        )
        rng = RngStream(6, "d")
        samples = [dist.sample_ms(rng) for _ in range(1000)]
        assert max(samples) > 10.0
        big = sum(1 for s in samples if s >= 10.0)
        assert 120 <= big <= 280  # ~20%

    def test_scaled(self):
        dist = DurationDistribution(body_median_ms=1.0, tail_scale_ms=2.0, max_ms=10.0)
        scaled = dist.scaled(3.0)
        assert scaled.body_median_ms == 3.0
        assert scaled.tail_scale_ms == 6.0
        assert scaled.max_ms == 30.0

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            DurationDistribution(body_median_ms=1.0).scaled(0.0)

    def test_fixed_is_nearly_deterministic(self):
        dist = DurationDistribution.fixed(4.0)
        rng = RngStream(8, "d")
        for _ in range(100):
            assert dist.sample_ms(rng) == pytest.approx(4.0, rel=1e-6)

    def test_mean_estimate_sane(self):
        dist = DurationDistribution(body_median_ms=1.0, body_sigma=0.5)
        expected = 1.0 * math.exp(0.5**2 / 2)
        assert dist.mean_estimate_ms() == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            DurationDistribution(body_median_ms=0.0)
        with pytest.raises(ValueError):
            DurationDistribution(body_median_ms=1.0, tail_prob=1.5)
        with pytest.raises(ValueError):
            DurationDistribution(body_median_ms=1.0, min_ms=5.0, max_ms=1.0)

    def test_sample_or_fixed(self):
        rng = RngStream(2, "s")
        assert sample_or_fixed(rng, None, 7.5) == 7.5
        dist = DurationDistribution.fixed(2.0)
        assert sample_or_fixed(rng, dist, 7.5) == pytest.approx(2.0, rel=1e-6)
