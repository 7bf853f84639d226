"""The fleet router: one coordinator sharding submits across N workers.

``python -m repro route`` binds a TCP socket speaking the *same* NDJSON
protocol as a single worker, so every existing client -- the sync
:class:`~repro.service.client.ServiceClient`, the CLI ``submit``
subcommand, the async client -- talks to a fleet by pointing at the
router instead of a worker.  The router adds the coordination tier the
related work says must stay separate from measurement:

* **Sharding by cache key.**  A submit's config is fingerprinted to its
  campaign :func:`~repro.core.campaign.cache_key` and routed through the
  consistent-hash ring (:mod:`repro.fleet.ring`), so duplicate
  submissions of one cell land on one worker and coalesce fleet-wide.
* **Health + failover.**  A registry (:mod:`repro.fleet.registry`)
  tracks worker heartbeats (push and probe); forwards that die mid-flight
  mark the worker down and retry on the key's deterministic ring
  successor with exponential backoff + jitter, bounded by
  ``forward_attempts``.  Because every cell is deterministic and results
  are content-addressed, a re-run on the failover worker returns
  byte-identical output -- failover is invisible to the client.
* **Tiered admission.**  Per-client token buckets and priority lanes
  (:mod:`repro.fleet.admission`); shed requests get an explicit
  ``overloaded`` + ``retry_after_s``, never an unbounded queue.
* **Shared result store.**  With ``cache_dir`` pointed at the same
  directory the workers use (atomic-rename writes make it multi-writer
  safe), the router serves any cell any worker ever computed -- including
  a dead worker's -- without forwarding at all.

Hard invariant, inherited from every layer below: a result served
through the router is byte-identical to a serial ``run_campaign`` of the
same config.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.campaign import cache_key
from repro.service.endpoint import NdjsonServer
from repro.service.loop_thread import LoopThread
from repro.service.metrics import ROUTER_COUNTERS, ROUTER_STAGES, ServiceMetrics
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    config_from_wire,
    encode_message,
    error_response,
    ok_response,
    request,
)
from repro.service.store import ResultStore
from repro.fleet.admission import LANES, AdmissionController
from repro.fleet.registry import WorkerRegistry
from repro.fleet.ring import DEFAULT_VNODES

#: Hint returned when no live worker could take a key: long enough for a
#: worker restart + registration round to land.
_UNAVAILABLE_RETRY_AFTER_S = 1.0

#: Consecutive probe failures before a worker is marked down.
_PROBE_FAILURE_THRESHOLD = 2


@dataclass
class RouterConfig:
    """Router knobs.

    Attributes:
        host / port: Bind address (``0`` picks an ephemeral port).
        workers: Static ``"host:port"`` seeds registered at startup
            (named by their endpoint); dynamic registration via the
            ``register`` verb works either way.
        cache_dir: The *shared* result store -- point it at the same
            directory the workers persist to and the router serves
            already-computed cells without forwarding.
        hot_capacity: Router-local LRU of serialized cells.
        vnodes: Virtual nodes per worker on the hash ring.
        heartbeat_interval_s: Prober cadence (and the interval workers
            are told to push heartbeats at).
        heartbeat_timeout_s: Silence past this marks a worker down.
        forward_attempts: Total tries for one submit across failovers.
        backoff_base_s / backoff_max_s: Exponential backoff (jittered)
            between forward retries.
        client_rate / client_burst: Per-client token-bucket quota.
        interactive_inflight / batch_inflight: Per-lane in-flight bounds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: Tuple[str, ...] = ()
    cache_dir: Optional[Union[str, Path]] = None
    hot_capacity: int = 64
    vnodes: int = DEFAULT_VNODES
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    forward_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    client_rate: float = 200.0
    client_burst: float = 400.0
    interactive_inflight: int = 64
    batch_inflight: int = 16

    def __post_init__(self):
        if self.forward_attempts < 1:
            raise ValueError(
                f"forward_attempts must be >= 1, got {self.forward_attempts}"
            )
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")


class FleetRouter(NdjsonServer):
    """The routing loop: admit, shard, forward, fail over, relay."""

    def __init__(self, config: Optional[RouterConfig] = None):
        super().__init__({
            "submit": self._verb_submit,
            "status": self._verb_proxy_job,
            "result": self._verb_proxy_job,
            "cancel": self._verb_proxy_job,
            "watch": self._verb_watch,
            "register": self._verb_register,
            "heartbeat": self._verb_heartbeat,
            "stats": self._verb_stats,
            "fleet_stats": self._verb_fleet_stats,
        })
        self.config = config or RouterConfig()
        self.registry = WorkerRegistry(vnodes=self.config.vnodes)
        self.admission = AdmissionController(
            client_rate=self.config.client_rate,
            client_burst=self.config.client_burst,
            interactive_inflight=self.config.interactive_inflight,
            batch_inflight=self.config.batch_inflight,
        )
        self.metrics = ServiceMetrics(counters=ROUTER_COUNTERS,
                                      stages=ROUTER_STAGES)
        self.store = ResultStore(
            cache_dir=self.config.cache_dir, hot_capacity=self.config.hot_capacity
        )
        self._pools: Dict[str, List[Tuple[asyncio.StreamReader,
                                          asyncio.StreamWriter]]] = {}
        self._active = 0
        self._quiet = asyncio.Event()  # set while no forward is in flight
        self._quiet.set()
        self._prober: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Seed the static workers, bind the socket, start probing."""
        for endpoint in self.config.workers:
            host, _, port = endpoint.rpartition(":")
            self.registry.register(endpoint, host or "127.0.0.1", int(port))
            self.metrics.count("registrations")
        await super().start()
        self._prober = asyncio.create_task(self._probe_loop())

    async def _drain(self) -> int:
        """Finish in-flight forwards, stop probing, drop worker sockets.

        Workers are *not* shut down -- they drain independently (their
        own ``shutdown`` verb or SIGTERM); the router only owns routing
        state.  Returns the number of forwards drained.
        """
        drained = self._active
        await self._quiet.wait()
        self._prober.cancel()
        try:
            await self._prober
        except asyncio.CancelledError:
            pass
        for name in list(self._pools):
            self._drop_pool(name)
        return drained

    @contextlib.contextmanager
    def _forwarding(self):
        """Count one forward in flight, for the gauge and the drain."""
        self._active += 1
        self._quiet.clear()
        try:
            yield
        finally:
            self._active -= 1
            if not self._active:
                self._quiet.set()

    # ------------------------------------------------------------------
    # Worker connections (pooled, one round trip per checkout)
    # ------------------------------------------------------------------
    def _drop_pool(self, name: str) -> None:
        for _, writer in self._pools.pop(name, []):
            writer.close()

    async def _worker_roundtrip(
        self, worker, payload: dict, timeout: Optional[float] = None
    ) -> dict:
        """One request/response against ``worker``, reusing pooled sockets.

        Raises ``ConnectionError`` (or ``OSError``/``TimeoutError``) on
        any transport-level failure; the caller decides about failover.
        """
        pool = self._pools.setdefault(worker.name, [])
        conn = pool.pop() if pool else None
        if conn is None:
            conn = await asyncio.open_connection(
                worker.host, worker.port, limit=MAX_LINE_BYTES
            )
        reader, writer = conn
        try:
            writer.write(encode_message(payload))
            await writer.drain()
            if timeout is not None:
                line = await asyncio.wait_for(reader.readline(), timeout)
            else:
                line = await reader.readline()
            if not line:
                raise ConnectionError(f"{worker.name} closed the connection")
            response = json.loads(line)
        except BaseException:
            writer.close()
            raise
        self._pools.setdefault(worker.name, []).append(conn)
        return response

    def _mark_down(self, worker) -> None:
        if self.registry.mark_down(worker.name):
            self.metrics.count("workers_marked_down")
        # Pooled sockets to a down worker are dead weight.
        self._drop_pool(worker.name)

    def _mark_up(self, name: str) -> None:
        if self.registry.mark_up(name):
            self.metrics.count("workers_marked_up")

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------
    async def _probe_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        # Drain cancels this task, but before Python 3.12 a wait_for() whose
        # probe reply lands with the cancel swallows it; the flag ends the
        # loop regardless.
        while not self._draining:
            await asyncio.sleep(interval)
            for worker in self.registry.workers():
                try:
                    response = await self._worker_roundtrip(
                        worker, request("heartbeat"),
                        timeout=self.config.heartbeat_timeout_s,
                    )
                    if not response.get("ok"):
                        raise ConnectionError(f"{worker.name} heartbeat refused")
                except (ConnectionError, OSError, asyncio.TimeoutError,
                        json.JSONDecodeError):
                    worker.consecutive_probe_failures += 1
                    if (worker.state == "up"
                            and worker.consecutive_probe_failures
                            >= _PROBE_FAILURE_THRESHOLD):
                        self._mark_down(worker)
                else:
                    self.registry.heartbeat(worker.name)
                    if worker.state == "down":
                        self._mark_up(worker.name)
            # Push heartbeats count too: a worker that registered but is
            # unreachable for probes *and* silent past the timeout goes
            # down even before the probe-failure threshold trips.
            for name in self.registry.expire(self.config.heartbeat_timeout_s):
                self.metrics.count("workers_marked_down")

    # ------------------------------------------------------------------
    # Verbs: registration + liveness
    # ------------------------------------------------------------------
    async def _verb_register(self, msg, req_id, writer) -> None:
        name = msg.get("name")
        host = msg.get("host")
        port = msg.get("port")
        # JSON true/false decode to bool, which is an int subclass.
        if (not isinstance(name, str) or not name
                or not isinstance(host, str) or not host
                or isinstance(port, bool) or not isinstance(port, int)
                or not 0 < port <= 65535):
            await self._send(writer, error_response(
                req_id, "bad-request",
                "register needs a name, host and port in 1..65535",
            ))
            return
        self.registry.register(name, host, port)
        self.metrics.count("registrations")
        await self._send(writer, ok_response(
            req_id, registered=name,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        ))

    async def _verb_heartbeat(self, msg, req_id, writer) -> None:
        self.metrics.count("heartbeats")
        name = msg.get("name")
        if name is None:
            # A plain ping (e.g. another router probing us): answer alive.
            await self._send(writer, ok_response(
                req_id, alive=True, uptime_s=round(self.metrics.uptime_s(), 3)
            ))
            return
        worker = self.registry.heartbeat(name)
        if worker is None:
            await self._send(writer, error_response(
                req_id, "not-found",
                f"unknown worker {name!r}; send register first",
            ))
            return
        if worker.state == "down":
            self._mark_up(name)
        await self._send(writer, ok_response(req_id, alive=True, worker=name))

    async def _verb_watch(self, msg, req_id, writer) -> None:
        await self._send(writer, error_response(
            req_id, "bad-request",
            "watch is not routed; open it against the owning worker",
        ))

    # ------------------------------------------------------------------
    # Verbs: submit (the routed hot path)
    # ------------------------------------------------------------------
    async def _verb_submit(self, msg, req_id, writer) -> None:
        t0 = time.monotonic()
        if self._draining:
            self.metrics.count("rejected_shutdown")
            await self._send(writer, error_response(
                req_id, "shutting-down", "router is draining"
            ))
            return
        lane = msg.get("lane", "interactive")
        if lane not in LANES:
            await self._send(writer, error_response(
                req_id, "bad-request",
                f"unknown lane {lane!r} (expected one of {LANES})",
            ))
            return
        client_id = msg.get("client")
        if not client_id or not isinstance(client_id, str):
            client_id = str((writer.get_extra_info("peername") or ("?",))[0])
        decision = self.admission.admit(client_id, lane)
        if not decision.admitted:
            self.metrics.count(
                "shed_quota" if decision.reason == "quota" else "shed_lane"
            )
            await self._send(writer, error_response(
                req_id, "overloaded",
                f"shed ({decision.reason}) on lane {lane!r}",
                retry_after_s=decision.retry_after_s,
            ))
            return
        with self._forwarding():
            try:
                await self._routed_submit(msg, req_id, writer, t0)
            finally:
                self.admission.release(lane)

    async def _routed_submit(self, msg, req_id, writer, t0: float) -> None:
        try:
            config = config_from_wire(msg.get("config"))
        except ProtocolError as exc:
            await self._send(writer, error_response(req_id, "bad-request", str(exc)))
            return
        key = cache_key(config)
        self.metrics.count("submitted")
        # The shared store first: any worker may have computed this cell
        # already (including one that is dead now).
        cached = self.store.get(config, key=key)
        if cached is not None:
            self.metrics.count("cache_hits")
            self.metrics.observe("route", time.monotonic() - t0)
            self.metrics.observe("serve", time.monotonic() - t0)
            if await self._send(writer, ok_response(
                req_id, status="done", key=key, cached=True, sample_set=cached
            )):
                self.metrics.count("served")
            return
        self.metrics.observe("route", time.monotonic() - t0)
        response = await self._forward_submit(msg, key, req_id)
        # Relay worker job ids under a "worker/" prefix so status/result/
        # cancel can route back; rewrite the id to the client's.
        if response.get("ok") and isinstance(response.get("job"), str):
            response["job"] = f"{response.pop('worker_name')}/{response['job']}"
        else:
            response.pop("worker_name", None)
        if req_id is not None:
            response["id"] = req_id
        else:
            response.pop("id", None)
        done = response.get("ok") and response.get("status") == "done"
        if done:
            serialized = response.get("sample_set")
            if isinstance(serialized, str):
                # Warm the router's hot LRU (and the shared store, when
                # the worker wrote to a different directory).
                self.store.put(config, serialized, key=key)
            self.metrics.observe("serve", time.monotonic() - t0)
        if await self._send(writer, response) and done:
            self.metrics.count("served")

    async def _forward_submit(self, msg, key: str, req_id) -> dict:
        """Forward one submit along the key's failover chain.

        Transport failures (and a worker that answers ``shutting-down``,
        which a draining worker does while it finishes old work) mark the
        worker down and retry the key's next ring successor after a
        jittered exponential backoff.
        """
        forward = dict(msg)
        forward["id"] = req_id
        attempt = 0
        while attempt < self.config.forward_attempts:
            worker = self.registry.route(key)
            if worker is None:
                break
            if attempt:
                self.metrics.count("forward_retries")
                delay = min(
                    self.config.backoff_base_s * (2 ** (attempt - 1)),
                    self.config.backoff_max_s,
                ) * (0.5 + random.random() / 2)
                await asyncio.sleep(delay)
            t0 = time.monotonic()
            try:
                self.metrics.count("forwarded")
                worker.forwards += 1
                response = await self._worker_roundtrip(worker, forward)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    json.JSONDecodeError) as exc:
                worker.forward_failures += 1
                self._mark_down(worker)
                self.metrics.count("failovers")
                attempt += 1
                continue
            self.metrics.observe("forward", time.monotonic() - t0)
            error = (response.get("error") or {}) if not response.get("ok") else {}
            if error.get("code") == "shutting-down":
                worker.forward_failures += 1
                self._mark_down(worker)
                self.metrics.count("failovers")
                attempt += 1
                continue
            response["worker_name"] = worker.name
            return response
        self.metrics.count("unavailable")
        return error_response(
            req_id, "unavailable",
            f"no live worker for key {key[:12]}… "
            f"({self.registry.live_count()}/{len(self.registry.workers())} up)",
            retry_after_s=_UNAVAILABLE_RETRY_AFTER_S,
        )

    # ------------------------------------------------------------------
    # Verbs: job proxying (status / result / cancel on "worker/job-N")
    # ------------------------------------------------------------------
    async def _verb_proxy_job(self, msg, req_id, writer) -> None:
        job = msg.get("job")
        if not isinstance(job, str) or "/" not in job:
            await self._send(writer, error_response(
                req_id, "not-found",
                f"unknown job {job!r} (router jobs look like 'worker/job-N')",
            ))
            return
        worker_name, _, worker_job = job.partition("/")
        worker = self.registry.get(worker_name)
        if worker is None:
            await self._send(writer, error_response(
                req_id, "not-found", f"unknown worker {worker_name!r}"
            ))
            return
        if worker.state != "up":
            await self._send(writer, error_response(
                req_id, "unavailable",
                f"worker {worker_name!r} is down; resubmit the cell "
                "(its key will fail over)",
                retry_after_s=_UNAVAILABLE_RETRY_AFTER_S,
            ))
            return
        forward = dict(msg)
        forward["job"] = worker_job
        forward["id"] = req_id
        with self._forwarding():
            try:
                response = await self._worker_roundtrip(worker, forward)
            except (ConnectionError, OSError, json.JSONDecodeError):
                self._mark_down(worker)
                self.metrics.count("failovers")
                response = error_response(
                    req_id, "unavailable",
                    f"worker {worker_name!r} died mid-call; resubmit the cell",
                    retry_after_s=_UNAVAILABLE_RETRY_AFTER_S,
                )
        if response.get("ok") and isinstance(response.get("job"), str):
            response["job"] = f"{worker_name}/{response['job']}"
        if req_id is not None:
            response["id"] = req_id
        await self._send(writer, response)

    # ------------------------------------------------------------------
    # Verbs: observability + drain
    # ------------------------------------------------------------------
    async def _verb_stats(self, msg, req_id, writer) -> None:
        snapshot = self.metrics.snapshot(
            queue_depth=0,  # the router never queues; it sheds
            active_forwards=self._active,
            draining=self._draining,
            workers_live=self.registry.live_count(),
            workers_total=len(self.registry.workers()),
            store=self.store.stats(),
            **self.admission.gauges(),
        )
        await self._send(writer, ok_response(req_id, stats=snapshot))

    async def _verb_fleet_stats(self, msg, req_id, writer) -> None:
        fleet = {
            "registry": self.registry.snapshot(),
            "admission": self.admission.gauges(),
            "router": self.metrics.snapshot(
                active_forwards=self._active, draining=self._draining,
                store=self.store.stats(),
            ),
        }
        await self._send(writer, ok_response(req_id, fleet=fleet))


# ----------------------------------------------------------------------
# Thread harness
# ----------------------------------------------------------------------
class RouterThread(LoopThread):
    """Run a :class:`FleetRouter` on a background thread.

    The fleet-tier analogue of
    :class:`~repro.service.server.ServiceThread`: a real router on a real
    ephemeral socket, for tests and benchmarks.
    """

    def __init__(self, config: Optional[RouterConfig] = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either a RouterConfig or keyword overrides")
        self.config = config or RouterConfig(**overrides)
        super().__init__(lambda: FleetRouter(self.config), "repro-router")

    @property
    def router(self) -> Optional[FleetRouter]:
        return self.served
