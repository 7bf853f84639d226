"""One asyncio server on a background thread, for synchronous callers.

Tests, benchmarks and ``examples/compare_os.py --serve`` run a real
worker (:class:`~repro.service.server.ServiceThread`) or router
(:class:`~repro.fleet.router.RouterThread`) on a real ephemeral socket
from blocking code.  Both are this harness plus the object they serve,
which must provide ``start()``, ``wait_closed()``, an idempotent
``shutdown()`` coroutine and a ``port`` attribute.

Stopping is safe whoever started the drain.  A client's ``shutdown`` verb
closes the served object, ``_main`` returns and ``asyncio.run`` tears the
loop down while :meth:`LoopThread.stop` may be running on another thread.
``stop()`` therefore only *asks* the loop to shut the object down, through
a callback that runs on the loop thread and does nothing once ``_main``
has returned, and then waits on the thread itself.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Optional


class LoopThread:
    """Run the object ``make()`` returns on a daemon thread's event loop."""

    def __init__(self, make: Callable[[], Any], name: str):
        self._make = make
        self._name = name
        self.served: Any = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._finished = False
        # Holds the drain task: the event loop keeps tasks only weakly.
        self._stopper: Optional[asyncio.Task] = None

    def start(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True, name=self._name,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError(f"{self._name} thread failed to start within 60s")
        if self._error is not None:
            raise RuntimeError(f"{self._name} failed to start: {self._error}")
        return self

    async def _main(self) -> None:
        self.served = self._make()
        try:
            await self.served.start()
        except Exception as exc:  # surfaced to start() in the caller
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self.port = self.served.port
        self._ready.set()
        await self.served.wait_closed()
        self._finished = True

    def _request_shutdown(self) -> None:
        # On the loop thread, so it cannot interleave with _main's return.
        if not self._finished:
            self._stopper = self._loop.create_task(self.served.shutdown())

    def stop(self, timeout: float = 120.0) -> None:
        """Drain and join; safe to call after a client-driven shutdown.

        Raises :class:`TimeoutError` if the thread is still alive after
        ``timeout`` seconds.
        """
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._request_shutdown)
            except RuntimeError:
                pass  # the loop has closed; the thread is exiting
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(f"{self._name} thread still running {timeout}s after stop()")

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
