"""repro.service: the asyncio experiment-serving subsystem.

Turns the one-shot campaign runner into a long-lived measurement
service: clients submit :class:`~repro.core.experiment.ExperimentConfig`
cells over a newline-delimited-JSON TCP protocol and receive sample sets
that are byte-identical to a serial ``run_campaign`` -- with a bounded
admission queue (explicit backpressure), coalescing of identical cells,
per-job dispatch onto a process-pool worker tier, a content-addressed
result store shared with the campaign cache, and graceful drain on
shutdown.

Quick start::

    from repro.service import ServiceThread, ServiceClient

    with ServiceThread(cache_dir="results-cache") as server:
        with ServiceClient(port=server.port) as client:
            sample_set = client.submit(ExperimentConfig(os_name="win98"))

Or from the command line::

    python -m repro serve --port 7998 --cache-dir results-cache
    python -m repro submit --port 7998 --os win98 --workload games
"""

from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    config_from_wire,
    config_to_wire,
)
from repro.service.server import ExperimentService, ServiceConfig, ServiceThread
from repro.service.store import ResultStore

__all__ = [
    "PROTOCOL_VERSION",
    "ExperimentService",
    "ProtocolError",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceThread",
    "ServiceUnavailable",
    "config_from_wire",
    "config_to_wire",
]
