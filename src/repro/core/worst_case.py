"""Expected hourly/daily/weekly worst-case latencies (Table 3).

The paper characterises the Windows 98 distributions by three expected
worst-case values -- hourly, daily, weekly -- where a "day" and a "week"
follow the usage patterns of section 3.1 (office: 6-8 h x 5 days; games and
web: 3-4 h x 7 days).

Our simulated runs are minutes rather than the paper's hours, so expected
maxima over longer horizons are computed in two regimes:

* **interpolation** -- when the horizon holds no more events than we
  sampled, the expected maximum of N draws is the empirical quantile at
  ``N / (N + 1)``;
* **extrapolation** -- for longer horizons, a Pareto tail fitted to the
  log-log CCDF (:func:`repro.core.stats.fit_pareto_tail`) supplies the
  exceedance quantile, clamped to a physical ceiling (no kernel section
  lasts longer than ``cap_ms``) and never below the observed maximum.

This mirrors the paper's own framing: they size collection times to see
"events that occur at frequencies as low as 1 in 100,000 in statistically
significant numbers", then read expected worst cases off the distribution.

**Time compression.**  The paper already time-compresses its loads --
Business Winstone drives input at >= 10x human speed, so "4 hours of
benchmark equal a 40-hour work week".  The simulator extends the same idea
with an explicit ``time_compression`` factor (default 120): one simulated
second of calibrated load stands for two minutes of real heavy use, so an
"hour" horizon is evaluated at 30 simulated seconds of events, a 40-hour
office "week" at 1200 s.  Workload calibration in :mod:`repro.workloads`
targets the paper's Table 3 values *under this convention*; a two-minute
simulated run then interpolates the hourly value from data and
extrapolates the weekly one by only ~10x in event count, which a fitted
power-law tail supports, instead of the hopeless ~50,000x a literal week
would require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.samples import LatencyKind, SampleSet
from repro.core.stats import ParetoTailFit, fit_pareto_tail, percentile

#: One simulated second of calibrated load represents this many seconds of
#: real heavy use (see module docstring, "Time compression").
DEFAULT_TIME_COMPRESSION = 240.0


@dataclass(frozen=True)
class UsagePattern:
    """How many hours of heavy use make a 'day' and a 'week' (section 3.1)."""

    name: str
    hours_per_day: float
    days_per_week: float

    @property
    def day_seconds(self) -> float:
        return self.hours_per_day * 3600.0

    @property
    def week_seconds(self) -> float:
        return self.hours_per_day * self.days_per_week * 3600.0


#: Section 3.1's usage patterns, keyed by workload name.
USAGE_PATTERNS: Dict[str, UsagePattern] = {
    "office": UsagePattern("office", hours_per_day=8.0, days_per_week=5.0),
    "workstation": UsagePattern("workstation", hours_per_day=6.0, days_per_week=5.0),
    "games": UsagePattern("games", hours_per_day=2.5, days_per_week=5.0),
    "web": UsagePattern("web", hours_per_day=3.5, days_per_week=7.0),
    "idle": UsagePattern("idle", hours_per_day=8.0, days_per_week=5.0),
}


def usage_pattern_for(workload: str) -> UsagePattern:
    """Pattern for a workload, defaulting to office-style usage."""
    return USAGE_PATTERNS.get(workload, USAGE_PATTERNS["office"])


class WorstCaseEstimator:
    """Expected-maximum estimates for one latency series."""

    #: Tail index assumed when the data cannot support a fit.
    DEFAULT_TAIL_ALPHA = 1.5
    #: Never extrapolate steeper than this (guards absurd shallow fits).
    MIN_TAIL_ALPHA = 0.8

    def __init__(
        self,
        latencies_ms: Sequence[float],
        duration_s: float,
        cap_ms: float = 500.0,
        presorted: bool = False,
    ):
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if not latencies_ms:
            raise ValueError("no latency samples")
        # presorted callers (the columnar SampleSet's cached series) hand
        # over ascending data the estimator must not mutate.
        self.sorted = list(latencies_ms) if presorted else sorted(latencies_ms)
        self.duration_s = duration_s
        self.rate_hz = len(self.sorted) / duration_s
        self.cap_ms = cap_ms
        self._tail_fit: Optional[ParetoTailFit] = None
        self._tail_fitted = False

    @property
    def tail_fit(self) -> Optional[ParetoTailFit]:
        if not self._tail_fitted:
            self._tail_fit = fit_pareto_tail(self.sorted)
            self._tail_fitted = True
        return self._tail_fit

    def expected_max(self, horizon_s: float) -> float:
        """Expected maximum latency over ``horizon_s`` of the same load."""
        if horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        n = len(self.sorted)
        events = self.rate_hz * horizon_s
        if events < 1.0:
            events = 1.0
        if events <= n:
            # Enough data: expected max of N draws ~ quantile N/(N+1).
            return percentile(self.sorted, events / (events + 1.0))
        # Extrapolate beyond the sample: continue the fitted power-law
        # *slope* from the observed maximum (the last order statistic sits
        # at exceedance ~1/n, the horizon needs ~1/events), i.e.
        #     x = max_obs * (events / n) ** (1 / alpha).
        # Anchoring at the observed maximum instead of the fitted intercept
        # keeps the estimate continuous with the data and immune to body
        # curvature leaking into the fit.
        fit = self.tail_fit
        alpha = fit.alpha if fit is not None else self.DEFAULT_TAIL_ALPHA
        alpha = max(alpha, self.MIN_TAIL_ALPHA)
        estimate = self.sorted[-1] * (events / n) ** (1.0 / alpha)
        return min(estimate, self.cap_ms)


@dataclass(frozen=True)
class WorstCaseRow:
    """One row of a Table 3-style report."""

    label: str
    kind: LatencyKind
    priority: Optional[int]
    max_per_hour_ms: float
    max_per_day_ms: float
    max_per_week_ms: float
    observed_max_ms: float
    samples: int

    def format(self) -> str:
        return (
            f"{self.label:44s} {self.max_per_hour_ms:8.2f} {self.max_per_day_ms:8.2f} "
            f"{self.max_per_week_ms:8.2f}   (obs max {self.observed_max_ms:.2f}, "
            f"n={self.samples})"
        )


#: The service rows of Table 3 (label, kind, thread priority).
TABLE3_ROWS = (
    ("H/W Int. to S/W ISR", LatencyKind.ISR, None),
    ("H/W Interrupt to DPC", LatencyKind.DPC_INTERRUPT, None),
    ("DPC to kernel RT thread (High Priority)", LatencyKind.THREAD, 28),
    ("H/W Int. to kernel RT thread (High Priority)", LatencyKind.THREAD_INTERRUPT, 28),
    ("DPC to kernel RT thread (Med. Priority)", LatencyKind.THREAD, 24),
    ("H/W Int. to kernel RT thread (Med. Priority)", LatencyKind.THREAD_INTERRUPT, 24),
)


class WorstCaseTable:
    """Builds the Table 3 report from a :class:`SampleSet`.

    Args:
        time_compression: How many seconds of real heavy use one simulated
            second represents (see module docstring).  Horizons are divided
            by this before being handed to the estimator.
    """

    def __init__(
        self,
        sample_set: SampleSet,
        pattern: Optional[UsagePattern] = None,
        time_compression: float = DEFAULT_TIME_COMPRESSION,
        cap_ms: float = 200.0,
    ):
        if time_compression <= 0:
            raise ValueError(f"time_compression must be positive, got {time_compression}")
        self.sample_set = sample_set
        self.pattern = pattern or usage_pattern_for(sample_set.workload)
        self.time_compression = time_compression
        self.cap_ms = cap_ms
        self.rows: List[WorstCaseRow] = []
        self._build()

    def _build(self) -> None:
        compression = self.time_compression
        rows_by_key = {}
        for label, kind, priority in TABLE3_ROWS:
            values = self.sample_set.sorted_latencies_ms(kind, priority=priority)
            if not values:
                continue
            estimator = WorstCaseEstimator(
                values, self.sample_set.duration_s, cap_ms=self.cap_ms, presorted=True
            )
            row = WorstCaseRow(
                label=label,
                kind=kind,
                priority=priority,
                max_per_hour_ms=estimator.expected_max(3600.0 / compression),
                max_per_day_ms=estimator.expected_max(
                    self.pattern.day_seconds / compression
                ),
                max_per_week_ms=estimator.expected_max(
                    self.pattern.week_seconds / compression
                ),
                observed_max_ms=estimator.sorted[-1],
                samples=len(values),
            )
            rows_by_key[(kind, priority)] = row
            self.rows.append(row)
        self._enforce_causal_coherence(rows_by_key)

    def _enforce_causal_coherence(self, rows_by_key) -> None:
        """Clamp the ISR row below the DPC-interrupt row.

        Sample-wise, DPC interrupt latency *contains* interrupt latency, so
        the true expected maxima are ordered; independent tail
        extrapolations of the two series can disagree on shallow-tailed
        short runs.  The DPC-interrupt series is the better-grounded of the
        two (its tail carries the queueing component), so the ISR estimate
        is capped by it horizon-by-horizon.
        """
        from dataclasses import replace

        isr = rows_by_key.get((LatencyKind.ISR, None))
        dpc_int = rows_by_key.get((LatencyKind.DPC_INTERRUPT, None))
        if isr is None or dpc_int is None:
            return
        clamped = replace(
            isr,
            max_per_hour_ms=min(isr.max_per_hour_ms, dpc_int.max_per_hour_ms),
            max_per_day_ms=min(isr.max_per_day_ms, dpc_int.max_per_day_ms),
            max_per_week_ms=min(isr.max_per_week_ms, dpc_int.max_per_week_ms),
        )
        self.rows[self.rows.index(isr)] = clamped
        rows_by_key[(LatencyKind.ISR, None)] = clamped

    def row(self, kind: LatencyKind, priority: Optional[int] = None) -> Optional[WorstCaseRow]:
        for row in self.rows:
            if row.kind is kind and row.priority == priority:
                return row
        return None

    def format(self) -> str:
        header = (
            f"Observed/extrapolated worst-case latencies (ms) -- "
            f"{self.sample_set.os_name}/{self.sample_set.workload}\n"
            f"{'OS service':44s} {'Max/Hr':>8s} {'Max/Day':>8s} {'Max/Wk':>8s}"
        )
        return "\n".join([header] + [row.format() for row in self.rows])
