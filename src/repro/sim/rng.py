"""Seeded random-number streams and duration distributions.

All stochastic behaviour in the simulator (interrupt inter-arrival times,
kernel-section durations, workload bursts) flows through named
:class:`RngStream` objects derived from a single campaign seed, so a whole
experiment is reproducible bit-for-bit from ``(seed, configuration)``.

The central modelling primitive is :class:`DurationDistribution`: a
lognormal *body* mixed with an optional Pareto *tail*.  OS latency
distributions measured by the paper are "highly non-symmetric, with a very
long tail on one side" (section 4.2); a lognormal body reproduces the bulk
of service times while the Pareto component supplies the straight-ish
log-log tail that Figure 4 shows.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Optional


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from a root seed and a stream name.

    Uses SHA-256 so streams are statistically independent and stable across
    Python versions (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named, independently-seeded random stream.

    Thin wrapper over :class:`random.Random` that adds the distribution
    shapes the simulator needs and supports hierarchical child streams.
    """

    # Streams are sampled on every distribution-cost segment; slots keep
    # the bound-method cache loads (``random``, ``_paretovariate``) cheap.
    __slots__ = ("seed", "name", "_rng", "random", "_lognormvariate", "_paretovariate")

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        self._rng = rng = random.Random(_derive_seed(seed, name))
        # Bound-method cache: hot callers (DurationDistribution.sample_ms,
        # pre-drawn arrival blocks) go through these to skip the wrapper
        # frame and the per-call attribute chain.  ``random`` is shadowed
        # by the underlying generator's bound method -- same callable
        # surface, one hop fewer.
        self.random = rng.random
        self._lognormvariate = rng.lognormvariate
        self._paretovariate = rng.paretovariate

    def child(self, name: str) -> "RngStream":
        """Create an independent sub-stream (``parent.name/name``)."""
        return RngStream(self.seed, f"{self.name}/{name}")

    # ------------------------------------------------------------------
    # Primitive draws
    # ------------------------------------------------------------------
    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    # ``random`` is provided per instance (bound to the underlying
    # generator in __init__); no class-level wrapper, which would conflict
    # with the slot of the same name.

    def choice(self, seq):
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (events per unit time)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self._rng.expovariate(rate)

    def poisson_interval(self, rate_hz: float) -> float:
        """Seconds until the next event of a Poisson process at ``rate_hz``."""
        return self.expovariate(rate_hz)

    def lognormal(self, median: float, sigma: float) -> float:
        """Lognormal variate parameterised by its median and log-sigma."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return self._rng.lognormvariate(math.log(median), sigma)

    def pareto(self, xm: float, alpha: float) -> float:
        """Pareto variate with scale ``xm`` (minimum) and shape ``alpha``."""
        if xm <= 0 or alpha <= 0:
            raise ValueError(f"invalid Pareto parameters xm={xm} alpha={alpha}")
        return xm * (1.0 + self._rng.paretovariate(alpha) - 1.0)

    def sample_ms_fast(self, dist: "DurationDistribution") -> float:
        """Hot-path duration draw: identical variates to ``dist.sample_ms``.

        Uses the distribution's cached log-space parameters and this
        stream's cached bound methods; the draw sequence, the floating-point
        arithmetic (including the historical ``xm * (1.0 + p - 1.0)``
        Pareto form) and the clamp are bit-for-bit those of the original
        ``sample_ms``, so RNG streams are unchanged.  The body draw is the
        library's own ``lognormvariate``; ``Kernel._advance_segments``
        keeps the one expression-identical copy of it.
        """
        if dist.tail_prob > 0.0 and self.random() < dist.tail_prob:
            value = dist.tail_scale_ms * (1.0 + self._paretovariate(dist.tail_alpha) - 1.0)
        else:
            value = self._lognormvariate(dist._log_body_median, dist.body_sigma)
        max_ms = dist.max_ms
        if value > max_ms:
            return max_ms
        min_ms = dist.min_ms
        return min_ms if value < min_ms else value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngStream {self.name!r} seed={self.seed}>"


@dataclass(frozen=True)
class DurationDistribution:
    """A lognormal body with an optional bounded Pareto tail.

    With probability ``1 - tail_prob`` a sample is drawn from
    ``Lognormal(median=body_median_ms, sigma=body_sigma)``; otherwise from
    ``Pareto(xm=tail_scale_ms, alpha=tail_alpha)``.  Every sample is clamped
    to ``[min_ms, max_ms]``.

    All parameters are in **milliseconds**, the natural unit for the
    latencies the paper reports (0.125 ms to 128 ms bucket range).

    Attributes:
        body_median_ms: Median of the lognormal body.
        body_sigma: Log-space standard deviation of the body.
        tail_prob: Probability that a sample comes from the Pareto tail.
        tail_scale_ms: Pareto scale (minimum tail value), ms.
        tail_alpha: Pareto shape; smaller values give heavier tails.
        min_ms: Lower clamp applied to all samples.
        max_ms: Upper clamp applied to all samples (keeps simulations from
            producing physically silly multi-second kernel sections).
    """

    body_median_ms: float
    body_sigma: float = 0.5
    tail_prob: float = 0.0
    tail_scale_ms: float = 1.0
    tail_alpha: float = 2.0
    min_ms: float = 0.0005
    max_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.body_median_ms <= 0:
            raise ValueError("body_median_ms must be positive")
        if not 0.0 <= self.tail_prob <= 1.0:
            raise ValueError(f"tail_prob must be in [0, 1], got {self.tail_prob}")
        if self.min_ms < 0 or self.max_ms <= self.min_ms:
            raise ValueError(f"invalid clamp range [{self.min_ms}, {self.max_ms}]")
        # Log-space body parameter, cached once: sample_ms used to pay a
        # math.log(median) on every draw.  The dataclass is frozen, so the
        # derived field goes in via object.__setattr__.
        object.__setattr__(self, "_log_body_median", math.log(self.body_median_ms))

    def sample_ms(self, rng: RngStream) -> float:
        """Draw one duration in milliseconds."""
        return rng.sample_ms_fast(self)

    def scaled(self, factor: float) -> "DurationDistribution":
        """Return a copy with all magnitudes multiplied by ``factor``.

        Used by ablation benchmarks to sweep calibration knobs without
        re-deriving every field.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return DurationDistribution(
            body_median_ms=self.body_median_ms * factor,
            body_sigma=self.body_sigma,
            tail_prob=self.tail_prob,
            tail_scale_ms=self.tail_scale_ms * factor,
            tail_alpha=self.tail_alpha,
            min_ms=self.min_ms,
            max_ms=self.max_ms * factor,
        )

    @classmethod
    def fixed(cls, ms: float) -> "DurationDistribution":
        """A (nearly) deterministic duration, handy in tests."""
        return cls(body_median_ms=ms, body_sigma=1e-9, min_ms=ms * 0.5, max_ms=ms * 2.0)

    def mean_estimate_ms(self) -> float:
        """Analytic estimate of the mean (ignoring clamps).

        Lognormal mean is ``median * exp(sigma^2 / 2)``; Pareto mean is
        ``alpha * xm / (alpha - 1)`` for ``alpha > 1`` (clamped otherwise).
        Useful for sanity checks and load accounting.
        """
        body_mean = self.body_median_ms * math.exp(self.body_sigma**2 / 2.0)
        if self.tail_prob <= 0.0:
            return body_mean
        if self.tail_alpha > 1.0:
            tail_mean = self.tail_alpha * self.tail_scale_ms / (self.tail_alpha - 1.0)
        else:
            tail_mean = self.max_ms
        tail_mean = min(tail_mean, self.max_ms)
        return (1.0 - self.tail_prob) * body_mean + self.tail_prob * tail_mean


def sample_or_fixed(
    rng: RngStream, dist: Optional[DurationDistribution], default_ms: float
) -> float:
    """Sample ``dist`` if provided, else return ``default_ms``."""
    if dist is None:
        return default_ms
    return dist.sample_ms(rng)
