"""One NDJSON endpoint, shared by the worker and the router.

:class:`NdjsonServer` is what :class:`~repro.service.server.ExperimentService`
and :class:`~repro.fleet.router.FleetRouter` have in common:

* the bind, and the ``port`` it reports, one for every address family;
* the connection loop: one request line at a time, dispatched through
  the subclass's verb table, with ``bad-request`` and
  ``unsupported-version`` replies for lines that do not parse or name no
  verb of this tier;
* :meth:`~NdjsonServer._send`, which splices a stored result's literal
  into its reply and replaces a reply over the protocol's line cap with
  a ``too-large`` error;
* the drain: an idempotent :meth:`~NdjsonServer.shutdown` that awaits the
  subclass's ``_drain()``, then closes the listener and every connection
  idle in ``readline()`` itself, and the ``shutdown`` verb, which answers
  ``closed`` to whoever sent it;
* the ``heartbeat`` verb, a plain ping that the router's health probes
  send to workers and that either tier answers the same way.

Nothing here awaits ``asyncio.Server.wait_closed()``.  From Python 3.12.1
it waits for every open connection, the one that sent ``shutdown``
included, so a drain that awaited it could never reply.  Closing idle
connections here makes the drain behave the same on every supported
Python.
"""

from __future__ import annotations

import asyncio
import errno
from typing import Awaitable, Callable, Dict, Optional, Set

from repro.service.protocol import (
    MAX_LINE_BYTES,
    MessageTooLarge,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)

#: ``handler(msg, req_id, writer)``: serve one request and write its reply.
Handler = Callable[[dict, Optional[str], asyncio.StreamWriter], Awaitable[None]]

#: Binds tried before a wildcard port-0 listener gives up on having one
#: port for every address family.
_BIND_ATTEMPTS = 8


class NdjsonServer:
    """Bind, connection loop, verb table and drain of one serving tier.

    A subclass passes its verb table to ``__init__``, sets ``config``
    (read for ``host`` and ``port``) and ``metrics`` (a
    :class:`~repro.service.metrics.ServiceMetrics` with ``too_large`` and
    ``heartbeats`` counters), rejects new work while ``_draining`` is set,
    and implements :meth:`_drain`.
    """

    def __init__(self, verbs: Dict[str, Handler]):
        self.port: Optional[int] = None
        self._verbs = dict(verbs, shutdown=self._verb_shutdown,
                           heartbeat=self._verb_heartbeat)
        self._draining = False
        self._closed = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._idle: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind the socket; ``port`` then reports the real (ephemeral) port.

        A wildcard bind opens one listener per address family, and on port
        0 each gets its own ephemeral port: every family is then rebound
        on the first listener's port, so ``port`` is the one port they
        all use.  Another process can take that port in the gap; the
        rebind is retried from port 0 up to :data:`_BIND_ATTEMPTS` times.
        """
        for attempt in range(1, _BIND_ATTEMPTS + 1):
            server = await self._bind(self.config.port)
            port = server.sockets[0].getsockname()[1]
            if all(s.getsockname()[1] == port for s in server.sockets):
                break
            server.close()
            try:
                server = await self._bind(port)
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE or attempt == _BIND_ATTEMPTS:
                    raise
        self._server = server
        self.port = port

    async def _bind(self, port: int) -> asyncio.base_events.Server:
        return await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=port,
            limit=MAX_LINE_BYTES,
        )

    async def _drain(self) -> int:
        """Finish the work admitted before the drain; return how much."""
        raise NotImplementedError

    async def shutdown(self) -> int:
        """Graceful drain; returns what :meth:`_drain` drained.  Idempotent.

        New work is rejected from the moment this is called.  Once the
        admitted work is done, the listener closes, and so does every
        connection waiting for its next request; a connection in the
        middle of a request closes after its reply.
        """
        if self._draining:
            await self._closed.wait()
            return 0
        self._draining = True
        drained = await self._drain()
        self._server.close()
        for writer in self._idle:
            writer.close()
        self._closed.set()
        return drained

    async def wait_closed(self) -> None:
        """Return once drained and every connection handler has returned,
        so whoever owns the loop never tears down a reply mid-write."""
        await self._closed.wait()
        if self._handlers:
            await asyncio.wait(self._handlers)

    async def _send(self, writer: asyncio.StreamWriter, payload: dict,
                    sample_set: Optional[bytes] = None) -> bool:
        """Write one message, with a result's JSON string literal spliced in
        as its ``sample_set``; ``False`` if it would not fit in one line
        and a ``too-large`` error went out in its place."""
        try:
            line, fits = encode_message(payload, sample_set), True
        except MessageTooLarge as exc:
            self.metrics.count("too_large")
            line, fits = encode_message(
                error_response(payload.get("id"), "too-large", f"result refused: {exc}")
            ), False
        writer.write(line)
        await writer.drain()
        return fits

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while not self._closed.is_set():
                self._idle.add(writer)
                try:
                    line = await reader.readline()
                finally:
                    self._idle.discard(writer)
                if not line or self._closed.is_set():
                    break
                try:
                    msg = decode_message(line)
                except ProtocolError as exc:
                    code = (
                        "unsupported-version"
                        if "version" in str(exc)
                        else "bad-request"
                    )
                    await self._send(writer, error_response(None, code, str(exc)))
                    continue
                req_id = msg.get("id")
                handler = self._verbs.get(msg.get("verb"))
                if handler is None:
                    await self._send(
                        writer,
                        error_response(
                            req_id, "bad-request", f"unknown verb {msg.get('verb')!r}"
                        ),
                    )
                    continue
                await handler(msg, req_id, writer)
        except (ConnectionResetError, BrokenPipeError, ValueError):
            pass
        except asyncio.CancelledError:
            # A loop torn down without a drain cancels handlers; Python
            # 3.11's stream callback would log a cancelled one as an error.
            pass
        finally:
            writer.close()
            self._handlers.discard(task)

    async def _verb_shutdown(self, msg, req_id, writer) -> None:
        drained = await self.shutdown()
        await self._send(writer, ok_response(req_id, status="closed", drained=drained))

    async def _verb_heartbeat(self, msg, req_id, writer) -> None:
        """Liveness: cheap and never blocks."""
        self.metrics.count("heartbeats")
        await self._send(writer, ok_response(
            req_id, alive=True, uptime_s=round(self.metrics.uptime_s(), 3),
            draining=self._draining,
        ))
