"""Synchronous client for the experiment service.

A thin blocking wrapper over one TCP connection speaking
:mod:`repro.service.protocol`.  This is what tests, the ``submit`` CLI
subcommand and ``examples/compare_os.py --serve`` use; an asyncio caller
can open streams against the same protocol directly.
"""

from __future__ import annotations

import itertools
import json
import socket
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.campaign import cache_key
from repro.core.experiment import ExperimentConfig
from repro.core.export import sample_set_from_json
from repro.core.samples import SampleSet
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    config_to_wire,
    encode_message,
    request,
)


class ServiceError(RuntimeError):
    """An ``{"ok": false}`` response, surfaced with its machine code.

    ``retry_after_s`` carries the server's backoff hint when the
    response had one (load shedding, no live worker); ``None`` otherwise.
    """

    def __init__(self, code: str, message: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


class ServiceUnavailable(ServiceError):
    """The transport died mid-call (connection refused/reset, server EOF).

    Replaces the raw ``ConnectionError`` a server restart used to
    surface: callers get one typed exception for "the service is not
    there right now", with the retry-after hint when one is known and --
    for :meth:`ServiceClient.stream_results` -- the cache keys that were
    *not* delivered before the transport failed, so a caller can resubmit
    exactly the missing cells.
    """

    def __init__(self, message: str, retry_after_s: Optional[float] = None,
                 undelivered: Optional[List[str]] = None):
        super().__init__("unavailable", message, retry_after_s=retry_after_s)
        self.undelivered: List[str] = list(undelivered or [])


def checked(response: Dict[str, Any]) -> Dict[str, Any]:
    """``response`` as is, or its ``{"ok": false}`` error raised as a
    :class:`ServiceError`."""
    if not response.get("ok", False):
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "unknown"),
            error.get("message", ""),
            retry_after_s=error.get("retry_after_s"),
        )
    return response


class ServiceClient:
    """One connection to a running :class:`~repro.service.server.ExperimentService`.

    Usage::

        with ServiceClient(port=port) as client:
            sample_set = client.submit(ExperimentConfig(os_name="win98"))
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 300.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._req_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _write(self, payload: Dict[str, Any]) -> None:
        line = encode_message(payload)
        try:
            self._file.write(line)
            self._file.flush()
        except (OSError, ValueError) as exc:  # ValueError: file already closed
            raise ServiceUnavailable(f"service connection lost: {exc}") from exc

    def _read_message(self) -> Dict[str, Any]:
        try:
            line = self._file.readline(MAX_LINE_BYTES)
        except (ConnectionError, OSError) as exc:
            raise ServiceUnavailable(f"service connection lost: {exc}") from exc
        if not line:
            raise ServiceUnavailable("server closed the connection")
        if not line.endswith(b"\n"):
            # The rest of the line is still in the socket: drop the connection.
            self.close()
            if len(line) >= MAX_LINE_BYTES:
                raise ServiceError("too-large", f"a response line reached the "
                                   f"{MAX_LINE_BYTES}-byte line cap")
            raise ServiceUnavailable("server closed the connection mid-message")
        return json.loads(line)

    def _request(self, verb: str, **fields) -> Dict[str, Any]:
        self._write(request(verb, req_id=f"r{next(self._req_ids)}", **fields))
        return checked(self._read_message())

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        config: ExperimentConfig,
        deadline_s: Optional[float] = None,
        as_text: bool = False,
        lane: Optional[str] = None,
    ):
        """Run one cell and return its :class:`SampleSet` (blocking).

        ``as_text=True`` returns the raw ``repro.sample_set/2`` text -- the
        byte-exact payload the determinism tests compare.  ``lane``
        selects a router admission lane (``interactive``/``batch``);
        workers ignore it.
        """
        fields: Dict[str, Any] = {
            "config": config_to_wire(config), "wait": True,
            "deadline_s": deadline_s,
        }
        if lane is not None:
            fields["lane"] = lane
        response = self._request("submit", **fields)
        text = response["sample_set"]
        return text if as_text else sample_set_from_json(text)

    def submit_nowait(self, config: ExperimentConfig) -> Optional[str]:
        """Queue one cell; returns its job id immediately.

        Returns ``None`` when the cell was already in the result store:
        the server serves it inline and never creates a job.
        """
        response = self._request("submit", config=config_to_wire(config), wait=False)
        if response.get("cached"):
            return None
        return response["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("status", job=job_id)

    def result(
        self, job_id: str, deadline_s: Optional[float] = None, as_text: bool = False
    ):
        """Block until ``job_id`` finishes; return its SampleSet (or text)."""
        response = self._request("result", job=job_id, deadline_s=deadline_s)
        text = response["sample_set"]
        return text if as_text else sample_set_from_json(text)

    def watch(self, job_id: str) -> Iterator[str]:
        """Stream a job's state transitions until it reaches a terminal one."""
        self._write(request("watch", req_id=f"r{next(self._req_ids)}", job=job_id))
        while True:
            message = self._read_message()
            event = message.get("event")
            if event is None:
                checked(message)  # final response; raises on failure
                return
            yield event["state"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("cancel", job=job_id)

    def stats(self) -> Dict[str, Any]:
        """Service counters / gauges / stage latencies (the ``stats`` verb)."""
        return self._request("stats")["stats"]

    def fleet_stats(self) -> Dict[str, Any]:
        """Registry/admission/router view (router endpoints only)."""
        return self._request("fleet_stats")["fleet"]

    def heartbeat(self) -> Dict[str, Any]:
        """A liveness ping; either tier answers with its uptime."""
        return self._request("heartbeat")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and close; blocks until drained."""
        return self._request("shutdown")

    # ------------------------------------------------------------------
    # Streaming pipelines
    # ------------------------------------------------------------------
    def stream_results(
        self,
        configs: Sequence[ExperimentConfig],
        as_text: bool = False,
        deadline_s: Optional[float] = None,
    ) -> Iterator[Any]:
        """Submit every cell up front, then yield results in input order.

        The service-side analogue of ``run_campaign``: all cells are
        admitted (and start executing / coalescing) before the first
        result is consumed, and the yield order is the input order, so a
        streamed campaign is byte-identical to a serial one.

        If the transport dies mid-stream, the raised
        :class:`ServiceUnavailable` carries ``undelivered`` -- the cache
        keys of every cell not yet yielded, in input order -- so the
        caller can resubmit exactly the missing cells instead of
        restarting the whole campaign.
        """
        keys = [cache_key(config) for config in configs]
        pending: List[Any] = []
        for index, config in enumerate(configs):
            try:
                response = self._request(
                    "submit", config=config_to_wire(config), wait=False
                )
            except ServiceUnavailable as exc:
                exc.undelivered = keys  # nothing has been yielded yet
                raise
            # A store-served cell arrives inline, with no job to poll.
            if response.get("cached"):
                pending.append(("text", response["sample_set"]))
            else:
                pending.append(("job", response["job"]))
        for index, (kind, value) in enumerate(pending):
            if kind == "text":
                yield value if as_text else sample_set_from_json(value)
            else:
                try:
                    result = self.result(value, deadline_s=deadline_s,
                                         as_text=as_text)
                except ServiceUnavailable as exc:
                    exc.undelivered = keys[index:]
                    raise
                yield result

    def run_campaign(
        self, configs: Sequence[ExperimentConfig]
    ) -> List[SampleSet]:
        """Drain :meth:`stream_results` into a list."""
        return list(self.stream_results(configs))

    def submit_scenario(
        self,
        scenario,
        as_text: bool = False,
        deadline_s: Optional[float] = None,
    ) -> Iterator[Any]:
        """Run every cell of a loaded scenario; yield ``(cell, result)``.

        ``scenario`` is a :class:`repro.scenarios.Scenario` (duck-typed:
        anything with ``.cells`` whose items carry ``.config`` works, so
        this module never imports the loader).  Cells are admitted up
        front via :meth:`stream_results` -- identical matrix cells
        coalesce server-side by cache key -- and results arrive in spec
        document order, paired with the cell that produced them.
        """
        cells = list(scenario.cells)
        results = self.stream_results(
            [cell.config for cell in cells],
            as_text=as_text, deadline_s=deadline_s,
        )
        for cell, result in zip(cells, results):
            yield cell, result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
