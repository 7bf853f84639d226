"""Consistent hashing with virtual nodes: the fleet's sharding function.

Submissions are sharded across workers by their campaign
:func:`~repro.core.campaign.cache_key`, so the single-server coalescing
property survives horizontally: every duplicate of a cell -- no matter
which client sent it or which router connection carried it -- lands on
the same worker, where the existing by-key coalescing collapses it into
one simulation.

The ring gives two properties a naive ``hash(key) % N`` cannot:

* **Minimal movement.**  Adding or removing one worker only remaps the
  keys in the arcs that worker's virtual nodes own (~1/N of the space);
  every other key keeps its owner, so their cached results and in-flight
  coalescing stay put.
* **Deterministic failover order.**  ``chain(key)`` walks distinct
  workers in ring order from the key's position.  A dead worker's keys
  all fail over to their ring successor -- the same successor on every
  router and on every retry -- and return to the original owner the
  moment it is marked up again (down workers keep their ring positions).

Positions are the first 8 bytes of SHA-256, so placement is stable
across processes, Python versions and restarts (``hash()`` is salted per
process and would re-shard the whole fleet on every reboot).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterator, List, Tuple

#: Virtual nodes per worker.  128 points keeps the max/min key-share
#: ratio across workers comfortably under 2 for small fleets (asserted
#: by ``tests/test_fleet.py``) while membership changes stay cheap.
DEFAULT_VNODES = 128


def _position(data: str) -> int:
    """A stable 64-bit ring position for ``data``."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping keys to named nodes."""

    __slots__ = ("vnodes", "_nodes", "_points", "_positions")

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set = set()
        #: Sorted (position, node) pairs; ties (cosmically unlikely with
        #: 64-bit positions) break deterministically on the node name.
        self._points: List[Tuple[int, str]] = []
        #: Positions only, kept parallel to ``_points`` for bisecting.
        self._positions: List[int] = []

    def add(self, node: str) -> None:
        """Insert ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            bisect.insort(self._points, (_position(f"{node}#{i}"), node))
        self._positions = [position for position, _ in self._points]

    def remove(self, node: str) -> None:
        """Drop ``node`` entirely (idempotent).

        The registry never calls this: a failed worker is marked down
        instead, which keeps its ring positions so recovery restores the
        original sharding.
        """
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]
        self._positions = [position for position, _ in self._points]

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (its ring successor)."""
        for node in self.chain(key):
            return node
        raise LookupError("hash ring is empty")

    def chain(self, key: str) -> Iterator[str]:
        """Distinct nodes in ring order from ``key``'s position.

        The first yielded node is the key's owner; each subsequent node
        is the deterministic failover target if everything before it is
        down.  Yields each node at most once.
        """
        if not self._points:
            return
        start = bisect.bisect_right(self._positions, _position(key))
        seen = set()
        count = len(self._points)
        for offset in range(count):
            node = self._points[(start + offset) % count][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return
