"""Service observability: counters and per-stage latency percentiles.

The ``stats`` verb serves a snapshot of these, so load tests and
operators can see queue depth, rejection rates and where wall-clock goes
(admission wait vs. simulation vs. total serve time) without attaching a
profiler to a live server.

Two tiers share this module: the worker server (:data:`COUNTERS` /
:data:`STAGES`) and the fleet router (:data:`ROUTER_COUNTERS` /
:data:`ROUTER_STAGES`).  Every snapshot carries ``uptime_s`` so a fleet
health view can tell a freshly restarted process from a long-lived one
without correlating logs.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional, Sequence

#: Per-stage reservoir size.  512 observations is plenty for p99 on a
#: smoke test while bounding a long-lived server's memory.
_RESERVOIR = 512

#: Counter names, all starting at zero.  Kept in one place so the stats
#: snapshot shape is stable for dashboards/tests.
COUNTERS = (
    "submitted",          # submit requests admitted (new jobs)
    "coalesced",          # submit requests folded into an existing job
    "served",             # results returned to a client
    "cache_hits",         # served straight from the result store
    "simulations",        # cells actually simulated by the worker tier
    "rejected_overloaded",  # backpressure: admission queue was full
    "rejected_shutdown",  # submit during drain
    "cancelled",          # queued jobs cancelled before dispatch
    "deadline_expired",   # waits that hit their per-request deadline
    "failed",             # jobs whose simulation raised
    "pool_restarts",      # broken worker pools replaced by a fresh one
    "too_large",          # results refused: over the protocol's line cap
    "heartbeats",         # heartbeat pings (router probes) answered
    "register_refused",   # register replies other than ok (then retried)
    # Engine execution counters aggregated across simulated (non-cached)
    # runs -- virtual-time fast-forward and compiled-tape observability
    # (see docs/ARCHITECTURE.md "Virtual-time fast-forward").
    "sim_spans_fast_forwarded",   # idle spans analytically settled
    "sim_ticks_fast_forwarded",   # PIT ticks batch-settled inside them
    "sim_tape_frames",            # frames executed from a compiled tape
    "sim_interpreted_frames",     # frames run through the generator path
)

#: Stage names for latency observations (seconds).
STAGES = ("queue_wait", "execute", "serve")

#: Router-tier counters (see ``repro.fleet.router``).
ROUTER_COUNTERS = (
    "submitted",          # submit requests accepted for routing
    "served",             # results relayed (or store-served) to a client
    "cache_hits",         # served from the router's shared result store
    "forwarded",          # submits forwarded to a worker
    "forward_retries",    # forwards retried after a transport failure
    "failovers",          # keys re-routed off a worker marked down
    "shed_quota",         # load shedding: per-client token bucket empty
    "shed_lane",          # load shedding: priority lane at capacity
    "rejected_shutdown",  # submit during router drain
    "unavailable",        # submits with no live worker after retries
    "too_large",          # results refused: over the protocol's line cap
    "workers_marked_down",  # health transitions up -> down
    "workers_marked_up",    # health transitions down -> up
    "registrations",      # register verb accepted (new or re-register)
    "heartbeats",         # heartbeat pings answered
)

#: Router-tier stages: admission+ring lookup vs. worker round-trip vs.
#: total client-observed serve time.
ROUTER_STAGES = ("route", "forward", "serve")


class ServiceMetrics:
    """Counters plus bounded per-stage latency reservoirs.

    ``counters``/``stages`` default to the worker-tier names; the router
    passes :data:`ROUTER_COUNTERS`/:data:`ROUTER_STAGES`.  The snapshot
    always carries ``uptime_s`` measured from construction.
    """

    def __init__(
        self,
        counters: Sequence[str] = COUNTERS,
        stages: Sequence[str] = STAGES,
    ) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in counters}
        self._stages: Dict[str, Deque[float]] = {
            name: deque(maxlen=_RESERVOIR) for name in stages
        }
        self.started_at = time.monotonic()

    def count(self, name: str, amount: int = 1) -> None:
        """Increment one counter (unknown names fail loudly)."""
        self.counters[name] += amount

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency observation for ``stage``."""
        self._stages[stage].append(seconds)

    def uptime_s(self) -> float:
        """Seconds since this metrics object (i.e. the process) started."""
        return time.monotonic() - self.started_at

    def percentiles(self, stage: str) -> Optional[Dict[str, float]]:
        """p50/p90/p99/max (ms) over the stage's reservoir, or ``None``."""
        values = self._stages[stage]
        if not values:
            return None
        ordered = sorted(values)
        last = len(ordered) - 1

        def at(q: float) -> float:
            return ordered[min(last, int(q * len(ordered)))] * 1000.0

        return {
            "count": len(ordered),
            "p50_ms": round(at(0.50), 3),
            "p90_ms": round(at(0.90), 3),
            "p99_ms": round(at(0.99), 3),
            "max_ms": round(ordered[-1] * 1000.0, 3),
        }

    def snapshot(self, **gauges) -> Dict[str, object]:
        """The ``stats`` verb payload: counters, gauges, stage latencies."""
        return {
            "uptime_s": round(self.uptime_s(), 3),
            "counters": dict(self.counters),
            "gauges": dict(gauges),
            "stages": {
                stage: self.percentiles(stage)
                for stage in self._stages
                if self._stages[stage]
            },
        }
