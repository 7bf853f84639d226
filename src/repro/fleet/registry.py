"""The worker registry: fleet membership, health, and key routing.

The router never guesses about worker health -- it tracks it here:

* **Registration.**  The only way in: a worker self-announces with the
  ``register`` verb (sent by ``python -m repro serve --register``), joins
  the consistent-hash ring and starts up.  Registering again -- a
  restarted worker, or any worker after a router restart -- refreshes
  the endpoint and marks the worker up.
* **Probes.**  The router's prober (:mod:`repro.fleet.router`, which owns
  the whole liveness policy) pings each worker's ``heartbeat`` verb on an
  interval.  A good reply refreshes ``last_heartbeat``; consecutive
  failures, or a forward that dies mid-flight, **mark the worker down**.
* **Mark-down is not removal.**  A down worker keeps its ring positions,
  so its keys fail over to their deterministic ring successors (same
  successor on every retry) and *return* the moment the worker is marked
  up again -- a flapping worker cannot permanently re-shard the fleet.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.fleet.ring import HashRing


class WorkerState:
    """One worker's registration, health and per-worker counters."""

    __slots__ = (
        "name", "host", "port", "state", "registered_at", "last_heartbeat",
        "consecutive_probe_failures", "forwards", "forward_failures",
    )

    def __init__(self, name: str, host: str, port: int, now: float):
        self.name = name
        self.host = host
        self.port = port
        self.state = "up"
        self.registered_at = now
        self.last_heartbeat = now
        self.consecutive_probe_failures = 0
        self.forwards = 0          # submits forwarded to this worker
        self.forward_failures = 0  # forwards that died mid-flight

    def snapshot(self, now: float) -> dict:
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "state": self.state,
            "age_s": round(now - self.registered_at, 3),
            "heartbeat_age_s": round(now - self.last_heartbeat, 3),
            "forwards": self.forwards,
            "forward_failures": self.forward_failures,
        }


class WorkerRegistry:
    """Ring membership plus health state for every known worker."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.ring = HashRing()
        self.clock = clock
        self._workers: Dict[str, WorkerState] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, name: str, host: str, port: int) -> WorkerState:
        """Add (or refresh) a worker; always leaves it up.

        Re-registration is how a restarted worker recovers: the endpoint
        is updated in place and the ring membership is unchanged, so its
        keys come straight back to it.
        """
        now = self.clock()
        worker = self._workers.get(name)
        if worker is None:
            worker = WorkerState(name, host, port, now)
            self._workers[name] = worker
            self.ring.add(name)
        else:
            worker.host = host
            worker.port = port
            worker.last_heartbeat = now
            worker.consecutive_probe_failures = 0
            worker.state = "up"
        return worker

    def get(self, name: str) -> Optional[WorkerState]:
        return self._workers.get(name)

    def workers(self) -> List[WorkerState]:
        return list(self._workers.values())

    def live_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.state == "up")

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def heartbeat(self, name: str) -> None:
        """Record a good probe of ``name`` (workers are never removed)."""
        worker = self._workers[name]
        worker.last_heartbeat = self.clock()
        worker.consecutive_probe_failures = 0

    def mark_down(self, name: str) -> bool:
        """Transition ``name`` up -> down; returns True if it transitioned."""
        worker = self._workers.get(name)
        if worker is None or worker.state == "down":
            return False
        worker.state = "down"
        return True

    def mark_up(self, name: str) -> bool:
        """Transition ``name`` down -> up; returns True if it transitioned."""
        worker = self._workers.get(name)
        if worker is None or worker.state == "up":
            return False
        worker.state = "up"
        worker.consecutive_probe_failures = 0
        worker.last_heartbeat = self.clock()
        return True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: str) -> Optional[WorkerState]:
        """The live worker owning ``key``, after failover; ``None`` if none.

        Walks the ring chain from the key's position and returns the
        first *up* worker -- the owner itself, or its deterministic
        failover successor while the owner is down.
        """
        for name in self.ring.chain(key):
            worker = self._workers[name]
            if worker.state == "up":
                return worker
        return None

    def owner(self, key: str) -> Optional[str]:
        """The key's nominal owner, ignoring health (for introspection)."""
        try:
            return self.ring.lookup(key)
        except LookupError:
            return None

    def snapshot(self) -> dict:
        now = self.clock()
        return {
            "workers": [w.snapshot(now) for w in self._workers.values()],
            "live": self.live_count(),
            "total": len(self._workers),
            "vnodes": self.ring.vnodes,
        }
