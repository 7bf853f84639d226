"""Tiered admission at the router: quotas, priority lanes, load shedding.

The single-server admission story is a bounded queue with an explicit
``overloaded`` rejection.  A router fronting a whole fleet needs two more
dimensions, both of which shed load *with a hint* instead of queueing
unboundedly:

* **Per-client token buckets.**  Every client id gets ``client_rate``
  tokens/second with a burst of ``client_burst``; a submit that finds
  the bucket empty is shed with ``retry_after_s`` = the exact time until
  the next token accrues.  One greedy sweep cannot starve the fleet.
* **Priority lanes.**  Submits declare a lane -- ``interactive`` (the
  default: a person waiting on a cell) or ``batch`` (sweep traffic).
  Each lane has its own in-flight bound, and batch's is the smaller one,
  so when the fleet saturates, batch sweeps are shed first and
  interactive latency stays protected.

Shedding is explicit and cheap: the decision object carries the error
code the router should return (always ``overloaded``) and the
retry-after hint; nothing is buffered on behalf of a shed request.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

#: The recognized priority lanes, in shed order (batch sheds first by
#: virtue of its smaller in-flight bound).
LANES = ("interactive", "batch")

#: Per-client buckets tracked at once; least-recently-seen clients are
#: evicted (and start fresh with a full burst if they return).
MAX_TRACKED_CLIENTS = 4096

#: Retry hint on a lane-full shed: a lane frees a slot as soon as any
#: one of its in-flight requests finishes.
LANE_RETRY_AFTER_S = 0.25


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s, capacity ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def take(self, now: float, n: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, now: float, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will have accrued."""
        self._refill(now)
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class AdmissionDecision:
    """The outcome of one admission check."""

    __slots__ = ("admitted", "lane", "reason", "retry_after_s")

    def __init__(self, admitted: bool, lane: str, reason: str = "",
                 retry_after_s: float = 0.0):
        self.admitted = admitted
        self.lane = lane
        self.reason = reason            # "" | "quota" | "lane-full"
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Per-client quotas + per-lane in-flight bounds, with shed hints."""

    def __init__(
        self,
        client_rate: float = 200.0,
        client_burst: float = 400.0,
        interactive_inflight: int = 64,
        batch_inflight: int = 16,
        clock: Callable[[], float] = time.monotonic,
    ):
        if client_rate <= 0 or client_burst <= 0:
            raise ValueError("client_rate and client_burst must be positive")
        if interactive_inflight < 1 or batch_inflight < 1:
            raise ValueError("lane in-flight bounds must be >= 1")
        self.client_rate = client_rate
        self.client_burst = client_burst
        self.lane_limits: Dict[str, int] = {
            "interactive": interactive_inflight,
            "batch": batch_inflight,
        }
        self.clock = clock
        self._inflight: Dict[str, int] = {lane: 0 for lane in LANES}
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self.shed_quota = 0
        self.shed_lane = 0

    def _bucket(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.client_rate, self.client_burst, now)
            self._buckets[client_id] = bucket
        self._buckets.move_to_end(client_id)
        while len(self._buckets) > MAX_TRACKED_CLIENTS:
            self._buckets.popitem(last=False)
        return bucket

    def admit(self, client_id: str, lane: str = "interactive") -> AdmissionDecision:
        """Admit or shed one submit.  Admitted calls own a lane slot and
        MUST be paired with :meth:`release` when the request finishes."""
        if lane not in self.lane_limits:
            raise ValueError(f"unknown lane {lane!r} (expected one of {LANES})")
        now = self.clock()
        # Lane capacity first: a full lane sheds without charging the
        # client's bucket (the client did nothing wrong; the fleet is full).
        if self._inflight[lane] >= self.lane_limits[lane]:
            self.shed_lane += 1
            return AdmissionDecision(
                False, lane, reason="lane-full",
                retry_after_s=LANE_RETRY_AFTER_S,
            )
        bucket = self._bucket(client_id, now)
        if not bucket.take(now):
            self.shed_quota += 1
            return AdmissionDecision(
                False, lane, reason="quota",
                retry_after_s=max(bucket.retry_after(now), 0.001),
            )
        self._inflight[lane] += 1
        return AdmissionDecision(True, lane)

    def release(self, lane: str) -> None:
        """Return an admitted request's lane slot."""
        self._inflight[lane] -= 1

    def gauges(self) -> dict:
        return {
            "inflight_interactive": self._inflight["interactive"],
            "inflight_batch": self._inflight["batch"],
            "lane_limit_interactive": self.lane_limits["interactive"],
            "lane_limit_batch": self.lane_limits["batch"],
            "tracked_clients": len(self._buckets),
            "shed_quota": self.shed_quota,
            "shed_lane": self.shed_lane,
        }
