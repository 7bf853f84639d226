"""repro.fleet: the router/coordinator tier over ``repro.service``.

One router shards experiment submissions across N worker servers by
campaign cache key (consistent hashing with virtual nodes, so fleet-wide
coalescing keeps collapsing duplicates), admits workers through
``register`` and judges their health by probing them, fails keys over
to their deterministic ring successors when a worker dies, sheds load
through per-client quotas and priority lanes, and serves any
already-computed cell straight from the shared result store.

A result served through the router is byte-identical to a serial
``run_campaign`` of the same config -- the same invariant every layer
below upholds.

Quick start::

    python -m repro route --port 7999 --cache-dir fleet-cache
    python -m repro serve --port 0 --register 127.0.0.1:7999 \\
        --cache-dir fleet-cache     # repeat per worker
    python -m repro submit --router 127.0.0.1:7999 --os win98

Or in-process::

    from repro.fleet import RouterThread, AsyncServiceClient
    from repro.service import ServiceThread

    with RouterThread(cache_dir="fleet-cache") as router:
        workers = [ServiceThread(cache_dir="fleet-cache",
                                 register_with=f"127.0.0.1:{router.port}").start()
                   for _ in range(3)]
        ...
"""

from repro.fleet.admission import LANES, AdmissionController, AdmissionDecision, TokenBucket
from repro.fleet.async_client import AsyncServiceClient
from repro.fleet.registry import WorkerRegistry, WorkerState
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.fleet.router import FleetRouter, RouterConfig, RouterThread

__all__ = [
    "LANES",
    "DEFAULT_VNODES",
    "AdmissionController",
    "AdmissionDecision",
    "AsyncServiceClient",
    "FleetRouter",
    "HashRing",
    "RouterConfig",
    "RouterThread",
    "TokenBucket",
    "WorkerRegistry",
    "WorkerState",
]
