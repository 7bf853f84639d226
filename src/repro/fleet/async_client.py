"""Asyncio client: connection pooling, fan-out, retry-after honoring.

The sync :class:`~repro.service.client.ServiceClient` is one blocking
connection -- fine for a CLI, wrong for driving a fleet.  This client is
what load generators, sweep submitters and the benchmarks use:

* **Connection pooling.**  Up to ``pool_size`` concurrent NDJSON
  connections to one endpoint (router or worker -- same protocol).  A
  request checks a connection out for exactly one round trip, so the
  pool bound is also the client's concurrency bound.
* **`submit_many` fan-out.**  N configs are submitted concurrently
  across the pool and the results come back in input order -- the async
  analogue of ``run_campaign``, byte-identical to it through any tier.
* **Retry-after honoring.**  A shed (``overloaded``) or routing-gap
  (``unavailable``) response carrying ``retry_after_s`` is retried after
  sleeping that hint (plus deterministic per-attempt backoff when no
  hint is given); transport failures are retried the same bounded way.
  A client that respects shed hints converges instead of stampeding.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_from_json
from repro.service.client import ServiceError, ServiceUnavailable, checked
from repro.service.protocol import (
    MAX_LINE_BYTES,
    config_to_wire,
    encode_message,
    request,
)

#: Error codes worth retrying: shed load and routing gaps are transient.
#: ``unavailable`` covers transport failures too (``ServiceUnavailable``).
_RETRYABLE_CODES = ("overloaded", "unavailable")

#: Backoff when a retryable error carries no ``retry_after_s`` hint:
#: ``_BACKOFF_S`` doubling per attempt, capped at ``_BACKOFF_MAX_S``.
_BACKOFF_S = 0.05
_BACKOFF_MAX_S = 1.0


class AsyncServiceClient:
    """A pooled asyncio client for one service or router endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 8,
        retries: int = 3,
        lane: Optional[str] = None,
        client_id: Optional[str] = None,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.host = host
        self.port = port
        self.retries = retries
        self.lane = lane
        self.client_id = client_id
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._slots = asyncio.Semaphore(pool_size)
        self._req_ids = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    async def _open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            return await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach service at {self.host}:{self.port} ({exc})"
            ) from exc

    async def _roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response on a pooled connection."""
        if self._closed:
            raise ServiceUnavailable("client is closed")
        outgoing = encode_message(payload)
        await self._slots.acquire()
        conn = self._idle.pop() if self._idle else None
        try:
            if conn is None:
                conn = await self._open()
            reader, writer = conn
            try:
                writer.write(outgoing)
                await writer.drain()
                line = await reader.readline()
            except (ConnectionError, OSError) as exc:
                await self._discard(conn)
                conn = None
                raise ServiceUnavailable(
                    f"service connection lost: {exc}"
                ) from exc
            except ValueError:  # StreamReader: the line is over its limit
                raise ServiceError("too-large", f"a response line exceeded the "
                                   f"{MAX_LINE_BYTES}-byte line cap") from None
            if not line:
                await self._discard(conn)
                conn = None
                raise ServiceUnavailable("server closed the connection")
            self._idle.append(conn)
            conn = None
            return json.loads(line)
        finally:
            if conn is not None:
                await self._discard(conn)
            self._slots.release()

    @staticmethod
    async def _discard(conn) -> None:
        _, writer = conn
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass

    async def request(self, verb: str, **fields) -> Dict[str, Any]:
        """One checked round trip with no retry policy (building block)."""
        self._req_ids += 1
        payload = request(verb, req_id=f"a{self._req_ids}", **fields)
        return checked(await self._roundtrip(payload))

    async def _request_with_retry(self, verb: str, **fields) -> Dict[str, Any]:
        """Bounded retry honoring ``retry_after_s`` hints.

        Attempt ``retries + 1`` times; shed/unavailable responses and
        transport failures sleep the server's hint, or the local backoff
        (doubling per attempt, capped) when there is none.
        """
        attempt = 0
        while True:
            try:
                return await self.request(verb, **fields)
            except ServiceError as exc:
                if exc.code not in _RETRYABLE_CODES or attempt >= self.retries:
                    raise
                delay = exc.retry_after_s or min(
                    _BACKOFF_S * (2 ** attempt), _BACKOFF_MAX_S
                )
            attempt += 1
            await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def _submit_fields(self, config: ExperimentConfig,
                       deadline_s: Optional[float]) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "config": config_to_wire(config), "wait": True,
        }
        if deadline_s is not None:
            fields["deadline_s"] = deadline_s
        if self.lane is not None:
            fields["lane"] = self.lane
        if self.client_id is not None:
            fields["client"] = self.client_id
        return fields

    async def submit(
        self,
        config: ExperimentConfig,
        deadline_s: Optional[float] = None,
        as_text: bool = False,
    ):
        """Run one cell through the endpoint; retries shed responses."""
        response = await self._request_with_retry(
            "submit", **self._submit_fields(config, deadline_s)
        )
        text = response["sample_set"]
        return text if as_text else sample_set_from_json(text)

    async def submit_many(
        self,
        configs: Sequence[ExperimentConfig],
        deadline_s: Optional[float] = None,
        as_text: bool = False,
    ) -> List[Any]:
        """Fan out every cell concurrently; results in input order.

        Concurrency is bounded by the connection pool, so hundreds of
        configs are safe -- they queue for pool slots, not sockets.
        """
        return list(
            await asyncio.gather(*(
                self.submit(config, deadline_s=deadline_s, as_text=as_text)
                for config in configs
            ))
        )

    async def submit_scenario(
        self,
        scenario,
        deadline_s: Optional[float] = None,
        as_text: bool = False,
    ) -> List[Tuple[Any, Any]]:
        """Fan out a loaded scenario's cells; ``(cell, result)`` pairs.

        Duck-typed like the sync client's ``submit_scenario``: anything
        with ``.cells`` whose items carry ``.config`` works (normally a
        :class:`repro.scenarios.Scenario`).  All cells go through
        :meth:`submit_many`, so identical matrix cells coalesce at the
        endpoint and results come back in spec document order.
        """
        cells = list(scenario.cells)
        results = await self.submit_many(
            [cell.config for cell in cells],
            deadline_s=deadline_s, as_text=as_text,
        )
        return list(zip(cells, results))

    async def stats(self) -> Dict[str, Any]:
        return (await self.request("stats"))["stats"]

    async def fleet_stats(self) -> Dict[str, Any]:
        return (await self.request("fleet_stats"))["fleet"]

    async def shutdown(self) -> Dict[str, Any]:
        return await self.request("shutdown")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            await self._discard(conn)

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
