"""The asyncio experiment server.

One process owns the admission queue and the worker tier; any number of
clients connect over TCP and speak :mod:`repro.service.protocol`.  The
design follows the properties the related work shows matter for a
latency-measurement service under load:

* **Bounded admission (backpressure).**  At most ``queue_limit`` distinct
  cells wait for dispatch.  The next distinct submit is rejected with an
  explicit ``overloaded`` error instead of being buffered without bound --
  the client knows immediately and can retry elsewhere/later.
* **Coalescing by cache key.**  Submits are content-addressed with the
  campaign cache's :func:`~repro.core.campaign.cache_key`; N clients
  asking for the same cell share one queue slot and one simulation, and
  all N receive byte-identical results.
* **Per-job dispatch.**  An admitted job starts on a
  :class:`~concurrent.futures.ProcessPoolExecutor` as soon as fewer than
  ``max_workers`` jobs are running, and is finished from its own
  completion, so a short cell never waits for a long one that started
  with it.
* **Determinism end to end.**  Workers return the *serialized* sample
  set; the store and the wire carry those exact bytes.  A served result
  is byte-identical to ``run_campaign`` run serially, and every served
  cell lands in the on-disk campaign cache for offline replay.
* **Graceful drain.**  Shutdown (verb or SIGTERM) rejects new submits,
  finishes everything already admitted, flushes the store and only then
  closes -- no torn cache files, no abandoned clients.  The connection
  loop and the drain are :class:`~repro.service.endpoint.NdjsonServer`'s,
  shared with the fleet router.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.core.campaign import cache_key
from repro.core.experiment import ExperimentConfig, run_latency_experiment
from repro.core.export import sample_set_to_json
from repro.service.endpoint import NdjsonServer
from repro.service.loop_thread import LoopThread
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ProtocolError,
    config_from_wire,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_endpoint,
    request,
)
from repro.service.store import ResultStore

#: Completed job records kept for late ``status``/``result`` calls.
MAX_FINISHED_JOBS = 1024

#: Retry hint attached to ``overloaded`` rejections: roughly one short
#: cell's run on a busy pool -- long enough to matter, short enough that
#: shed clients converge quickly once pressure lifts.
OVERLOADED_RETRY_AFTER_S = 0.5

#: Pause before a worker registers again after the router closed its
#: registration connection, refused the registration or could not be
#: reached.
REGISTER_RETRY_S = 1.0

#: Bind hosts that mean "every interface": no router can dial them back.
_WILDCARD_HOSTS = ("", "0.0.0.0", "::")


def _run_cell_serialized(config: ExperimentConfig) -> tuple:
    """Worker-side body: one cell as ``repro.sample_set/2`` text, plus counters.

    Returning the serialized form (rather than the SampleSet) means the
    bytes a client receives are produced exactly once, in the worker, by
    the same :func:`~repro.core.export.sample_set_to_json` a serial
    ``run_campaign`` export uses -- the determinism guarantee needs no
    re-encode step to stay byte-exact.  The second element carries the
    run's engine execution counters (fast-forward spans/ticks, tape vs
    interpreted frames) for the server's ``stats`` verb; cached results
    skip the simulation entirely and contribute nothing.
    """
    result = run_latency_experiment(config)
    engine = result.os.machine.engine
    counters = {
        "spans_fast_forwarded": engine.spans_fast_forwarded,
        "ticks_fast_forwarded": engine.ticks_fast_forwarded,
        "tape_frames": engine.tape_frames,
        "interpreted_frames": engine.interpreted_frames,
    }
    return sample_set_to_json(result.sample_set), counters


@dataclass
class ServiceConfig:
    """Server knobs.

    Attributes:
        host: Bind address.
        port: TCP port; ``0`` picks an ephemeral port (``.port`` on the
            started service reports the real one).
        queue_limit: Bound on *distinct* cells not yet started; the
            next distinct submit gets an ``overloaded`` rejection.
        max_workers: Simulation worker processes, and so the number of
            jobs running at once: a queued job starts as soon as one of
            them finishes.
        cache_dir: Persistent result store (campaign-cache format);
            ``None`` keeps results in the hot LRU only.  In a fleet,
            point every worker (and the router) at one shared directory:
            the atomic-rename writer makes it multi-writer safe, and any
            tier can then serve any cell the fleet ever computed.
        hot_capacity: In-process LRU size (serialized cells).
        start_paused: Admit but start no job until ``resume()`` -- used
            by tests to make queueing behaviour deterministic.
        register_with: ``"host:port"`` of a fleet router to self-register
            with (``python -m repro serve --register``).  The worker
            announces itself on start and again whenever the router
            closes the registration connection or refuses it; an
            unreachable router is retried forever, never fatal.  A
            malformed value raises :class:`ValueError` here.
        worker_name: Stable name on the router's hash ring; defaults to
            ``"host:port"`` of the advertised host and this worker's own
            listening port.
        advertise_host: Host the router should dial back.  Defaults to
            the bind host; with a wildcard bind (``""``, ``0.0.0.0`` or
            ``::``) it defaults to the local address of the worker's
            first connection to the router, the interface the router is
            reached through.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 16
    max_workers: int = 2
    cache_dir: Optional[Union[str, Path]] = None
    hot_capacity: int = 64
    start_paused: bool = False
    register_with: Optional[str] = None
    worker_name: Optional[str] = None
    advertise_host: Optional[str] = None

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.register_with is not None:
            parse_endpoint(self.register_with)


class Job:
    """One admitted cell: the unit of coalescing and dispatch."""

    __slots__ = (
        "job_id",
        "key",
        "config",
        "state",
        "future",
        "literal",
        "error",
        "enqueued_at",
        "dispatched_at",
        "subscribers",
    )

    def __init__(self, job_id: str, key: str, config: ExperimentConfig,
                 future: "asyncio.Future[None]", enqueued_at: float):
        self.job_id = job_id
        self.key = key
        self.config = config
        self.state = "queued"
        self.future = future
        #: The result's JSON string literal: the object the store keeps.
        self.literal: Optional[bytes] = None
        self.error: Optional[str] = None
        self.enqueued_at = enqueued_at
        self.dispatched_at: Optional[float] = None
        self.subscribers: List[asyncio.Queue] = []


class ExperimentService(NdjsonServer):
    """The serving loop: admission, coalescing, dispatch, drain."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        super().__init__({
            "submit": self._verb_submit,
            "status": self._verb_status,
            "result": self._verb_result,
            "watch": self._verb_watch,
            "cancel": self._verb_cancel,
            "stats": self._verb_stats,
        })
        self.config = config or ServiceConfig()
        self.store = ResultStore(
            cache_dir=self.config.cache_dir, hot_capacity=self.config.hot_capacity
        )
        self.metrics = ServiceMetrics()
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        self._finished_order: Deque[str] = deque()
        self._job_ids = itertools.count(1)
        self._running = 0
        self._paused = self.config.start_paused
        self._executor: Optional[ProcessPoolExecutor] = None
        self._registrar: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tier, bind the socket, register if asked."""
        self._executor = ProcessPoolExecutor(max_workers=self.config.max_workers)
        await super().start()
        if self.config.register_with:
            self._registrar = asyncio.create_task(self._register_loop())

    def pause(self) -> None:
        """Start no further jobs (admission continues); test hook."""
        self._paused = True

    def resume(self) -> None:
        """Lift a pause and start the jobs it held back."""
        self._paused = False
        self._start_jobs()

    async def _drain(self) -> int:
        """Finish every admitted job, queued or running, then the pool."""
        if self._registrar is not None:
            self._registrar.cancel()
            try:
                await self._registrar
            except asyncio.CancelledError:
                pass
        # A paused server must still drain what it admitted.
        self.resume()
        pending = [job.future for job in self._by_key.values()]
        if pending:
            await asyncio.wait(pending)
        self._executor.shutdown(wait=True)
        return len(pending)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _start_jobs(self) -> None:
        """Start queued jobs while fewer than ``max_workers`` are running."""
        loop = asyncio.get_running_loop()
        while (self._queue and not self._paused
               and self._running < self.config.max_workers):
            job = self._queue.popleft()
            job.dispatched_at = time.monotonic()
            self.metrics.observe("queue_wait", job.dispatched_at - job.enqueued_at)
            self._running += 1
            self._set_state(job, "running")
            try:
                future = self._run_in_pool(loop, job.config)
            except RuntimeError as exc:
                # Even a fresh pool refused the job: fail it, don't strand it.
                future = loop.create_future()
                future.set_exception(exc)
            future.add_done_callback(functools.partial(self._job_done, job))

    def _run_in_pool(self, loop: asyncio.AbstractEventLoop,
                     config: ExperimentConfig) -> "asyncio.Future[tuple]":
        """Run one cell on the pool, first replacing a broken pool: one
        dead process (OOM kill, crash) fails the jobs that pool held and
        makes it refuse new work."""
        try:
            return loop.run_in_executor(self._executor, _run_cell_serialized, config)
        except BrokenProcessPool:
            self._executor.shutdown(wait=False)
            self._executor = ProcessPoolExecutor(max_workers=self.config.max_workers)
            self.metrics.count("pool_restarts")
            return loop.run_in_executor(self._executor, _run_cell_serialized, config)

    def _job_done(self, job: Job, future: "asyncio.Future[tuple]") -> None:
        """Finish ``job`` from its own completion, then start the next."""
        self._running -= 1
        try:
            serialized, sim_counters = future.result()
        except Exception as exc:
            self.metrics.count("failed")
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed")
        else:
            self.metrics.count("simulations")
            # Aggregate engine execution counters across simulated
            # (non-cached) runs; reported under ``sim_*`` by the
            # ``stats`` verb.
            for name, value in sim_counters.items():
                self.metrics.count(f"sim_{name}", value)
            self.metrics.observe("execute", time.monotonic() - job.dispatched_at)
            job.literal = self.store.put(job.config, serialized, key=job.key)
            self._finish(job, "done")
        self._start_jobs()

    # ------------------------------------------------------------------
    # Fleet self-registration (serve --register HOST:PORT)
    # ------------------------------------------------------------------
    async def _register_loop(self) -> None:
        """Register with the router, and again each time it hangs up.

        One NDJSON connection per registration: ``register`` once, then,
        if the router replies ``ok``, the worker sends nothing and holds
        the connection idle until the router closes it (its drain, a
        restart, a reset).  The router's own probes judge this worker's
        health.  Any other reply counts ``register_refused`` and closes
        the connection.  After the close, or a failed attempt, the worker
        waits ``REGISTER_RETRY_S`` and registers again -- a restarted
        router relearns the fleet from these.
        """
        router_host, router_port = parse_endpoint(self.config.register_with)
        advertise = self.config.advertise_host or self.config.host
        if advertise in _WILDCARD_HOSTS:
            advertise = None  # learned from the first connection
        name = self.config.worker_name or None
        while True:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    router_host, router_port
                )
                if advertise is None:
                    advertise = writer.get_extra_info("sockname")[0]
                if name is None:
                    name = f"{advertise}:{self.port}"
                writer.write(encode_message(request(
                    "register", name=name, host=advertise, port=self.port,
                )))
                await writer.drain()
                reply = await reader.readline()
                if reply and decode_message(reply).get("ok") is True:
                    # The router never writes on this connection again,
                    # so this read returns only when the router closes it.
                    await reader.readline()
                elif reply:
                    self.metrics.count("register_refused")
            except ProtocolError:  # an unreadable reply is a refusal too
                self.metrics.count("register_refused")
            except (ConnectionError, OSError):
                pass
            finally:
                if writer is not None:
                    writer.close()
            await asyncio.sleep(REGISTER_RETRY_S)

    def _set_state(self, job: Job, state: str) -> None:
        job.state = state
        for queue in job.subscribers:
            queue.put_nowait(state)

    def _finish(self, job: Job, state: str) -> None:
        self._set_state(job, state)
        self._by_key.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(None)
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            stale = self._jobs.get(self._finished_order.popleft())
            if stale is not None and stale.state in ("done", "failed", "cancelled"):
                del self._jobs[stale.job_id]

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _decode_deadline(self, msg: dict, field: str = "deadline_s"):
        deadline = msg.get(field)
        # JSON true/false decode to bool, which is an int subclass.
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ProtocolError(f"{field} must be a positive number")
        return deadline

    async def _verb_submit(self, msg, req_id, writer) -> None:
        t0 = time.monotonic()
        if self._draining:
            self.metrics.count("rejected_shutdown")
            await self._send(
                writer,
                error_response(req_id, "shutting-down", "server is draining"),
            )
            return
        try:
            config = config_from_wire(msg.get("config"))
            deadline = self._decode_deadline(msg)
        except ProtocolError as exc:
            await self._send(writer, error_response(req_id, "bad-request", str(exc)))
            return
        key = cache_key(config)
        cached = self.store.get_literal(config, key=key)
        if cached is not None:
            self.metrics.count("cache_hits")
            self.metrics.observe("serve", time.monotonic() - t0)
            if await self._send(writer, ok_response(
                req_id, status="done", key=key, cached=True
            ), cached):
                self.metrics.count("served")
            return
        job = self._by_key.get(key)
        if job is not None:
            self.metrics.count("coalesced")
        else:
            if len(self._queue) >= self.config.queue_limit:
                self.metrics.count("rejected_overloaded")
                await self._send(
                    writer,
                    error_response(
                        req_id,
                        "overloaded",
                        f"admission queue full ({self.config.queue_limit} cells)",
                        retry_after_s=OVERLOADED_RETRY_AFTER_S,
                    ),
                )
                return
            job = Job(
                job_id=f"job-{next(self._job_ids)}",
                key=key,
                config=config,
                future=asyncio.get_running_loop().create_future(),
                enqueued_at=t0,
            )
            self._jobs[job.job_id] = job
            self._by_key[key] = job
            self._queue.append(job)
            self.metrics.count("submitted")
            self._start_jobs()
        if not msg.get("wait", False):
            await self._send(
                writer, ok_response(req_id, status=job.state, job=job.job_id, key=key)
            )
            return
        await self._send_result(writer, job, req_id, deadline, t0)

    async def _send_result(self, writer, job: Job, req_id, deadline, t0) -> None:
        """Wait for ``job``, then send its cell (or why there is none)."""
        response = await self._await_job(job, req_id, deadline, t0)
        literal = job.literal if response["ok"] else None
        if await self._send(writer, response, literal) and response["ok"]:
            self.metrics.count("served")

    async def _await_job(self, job: Job, req_id, deadline, t0) -> dict:
        """The reply for a finished ``job``, without its result, which the
        sender splices in."""
        try:
            if deadline is not None:
                await asyncio.wait_for(asyncio.shield(job.future), deadline)
            else:
                await job.future
        except asyncio.TimeoutError:
            self.metrics.count("deadline_expired")
            return error_response(
                req_id, "deadline", f"{job.job_id} not done within {deadline}s"
            )
        if job.state == "failed":
            return error_response(req_id, "failed", job.error or "simulation failed")
        if job.state == "cancelled":
            return error_response(req_id, "cancelled", f"{job.job_id} was cancelled")
        self.metrics.observe("serve", time.monotonic() - t0)
        return ok_response(
            req_id,
            status="done",
            job=job.job_id,
            key=job.key,
            cached=False,
        )

    def _lookup(self, msg, req_id) -> Union[Job, dict]:
        job = self._jobs.get(msg.get("job", ""))
        if job is None:
            return error_response(
                req_id, "not-found", f"unknown job {msg.get('job')!r}"
            )
        return job

    async def _verb_status(self, msg, req_id, writer) -> None:
        job = self._lookup(msg, req_id)
        if isinstance(job, dict):
            await self._send(writer, job)
            return
        payload = ok_response(
            req_id, job=job.job_id, status=job.state, key=job.key,
            queue_depth=len(self._queue),
        )
        if job.state == "queued":
            payload["position"] = self._queue.index(job)
        await self._send(writer, payload)

    async def _verb_result(self, msg, req_id, writer) -> None:
        t0 = time.monotonic()
        job = self._lookup(msg, req_id)
        if isinstance(job, dict):
            await self._send(writer, job)
            return
        try:
            deadline = self._decode_deadline(msg)
        except ProtocolError as exc:
            await self._send(writer, error_response(req_id, "bad-request", str(exc)))
            return
        await self._send_result(writer, job, req_id, deadline, t0)

    async def _verb_watch(self, msg, req_id, writer) -> None:
        """Stream state transitions, then the final result response."""
        t0 = time.monotonic()
        job = self._lookup(msg, req_id)
        if isinstance(job, dict):
            await self._send(writer, job)
            return
        events: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(events)
        try:
            state = job.state
            await self._send(
                writer, {"id": req_id, "event": {"job": job.job_id, "state": state}}
            )
            while state not in ("done", "failed", "cancelled"):
                state = await events.get()
                await self._send(
                    writer,
                    {"id": req_id, "event": {"job": job.job_id, "state": state}},
                )
        finally:
            job.subscribers.remove(events)
        await self._send_result(writer, job, req_id, None, t0)

    async def _verb_cancel(self, msg, req_id, writer) -> None:
        job = self._lookup(msg, req_id)
        if isinstance(job, dict):
            await self._send(writer, job)
            return
        if job.state != "queued":
            await self._send(
                writer,
                error_response(
                    req_id, "not-cancellable", f"{job.job_id} is {job.state}"
                ),
            )
            return
        self._queue.remove(job)
        self._by_key.pop(job.key, None)
        self.metrics.count("cancelled")
        self._set_state(job, "cancelled")
        if not job.future.done():
            job.future.set_result(None)
        await self._send(
            writer, ok_response(req_id, job=job.job_id, status="cancelled")
        )

    async def _verb_stats(self, msg, req_id, writer) -> None:
        snapshot = self.metrics.snapshot(
            queue_depth=len(self._queue),
            queue_limit=self.config.queue_limit,
            running=self._running,
            jobs=len(self._jobs),
            draining=self._draining,
            store=self.store.stats(),
        )
        await self._send(writer, ok_response(req_id, stats=snapshot))


# ----------------------------------------------------------------------
# Thread harness
# ----------------------------------------------------------------------
class ServiceThread(LoopThread):
    """Run an :class:`ExperimentService` on a background thread.

    What tests, benchmarks and ``examples/compare_os.py --serve`` use: a
    real server on a real (ephemeral) socket, owned by a daemon thread,
    with thread-safe ``pause``/``resume``/``stop`` controls.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either a ServiceConfig or keyword overrides")
        self.config = config or ServiceConfig(**overrides)
        super().__init__(lambda: ExperimentService(self.config), "repro-service")

    @property
    def service(self) -> Optional[ExperimentService]:
        return self.served

    def pause(self) -> None:
        self._loop.call_soon_threadsafe(self.service.pause)

    def resume(self) -> None:
        self._loop.call_soon_threadsafe(self.service.resume)
