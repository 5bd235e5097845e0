"""Run the fleet server on a daemon thread, in-process.

The test suite, the throughput benchmark, and the check.sh smoke all
need a real listening server without a subprocess.  This helper runs
:func:`repro.server.serve` inside ``asyncio.run`` on a background
thread, waits for the socket to bind, and drains it on exit::

    with BackgroundServer(workers=2) as server:
        client = server.client()
        job = client.submit(spec_dict)
        client.wait(job["id"])

The served port is always ephemeral (``port=0``) unless pinned.

Tests that must act on a job *while it runs* pass a cleared
``threading.Event`` as ``hold``: each job then waits at its first home
(or journaled epoch) boundary until the test sets the event, so no test
depends on a job being slow.  :meth:`BackgroundServer.stop` sets it, so
a failing test never wedges the drain.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.server import serve
from repro.server.client import ServerClient


class BackgroundServer:
    """Context manager owning one server thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, store_capacity: int = 64,
                 spill_path: Optional[str] = None,
                 sse_keepalive_s: float = 2.0,
                 startup_timeout_s: float = 30.0,
                 hold: Optional[threading.Event] = None):
        self.host = host
        self.port = port
        self.workers = workers
        self.store_capacity = store_capacity
        self.spill_path = spill_path
        self.sse_keepalive_s = sse_keepalive_s
        self.startup_timeout_s = startup_timeout_s
        self.hold = hold
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(self.startup_timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError("server crashed on startup") from self._error
        return self

    def stop(self, join_timeout_s: float = 120.0) -> None:
        """Trigger a graceful drain and wait for the thread to finish."""
        if self.hold is not None:
            self.hold.set()
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(join_timeout_s)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- access ------------------------------------------------------------
    def client(self, timeout: float = 60.0) -> ServerClient:
        return ServerClient(self.host, self.port, timeout=timeout)

    # -- thread body -------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        ready = asyncio.Event()

        async def _flag_ready() -> None:
            await ready.wait()
            self._ready.set()

        def _on_bound(http) -> None:
            self.port = http.port

        flagger = asyncio.create_task(_flag_ready())
        try:
            await serve(host=self.host, port=self.port,
                        workers=self.workers,
                        store_capacity=self.store_capacity,
                        spill_path=self.spill_path,
                        sse_keepalive_s=self.sse_keepalive_s,
                        ready=ready, shutdown=self._shutdown,
                        on_bound=_on_bound, quiet=True, hold=self.hold)
        finally:
            flagger.cancel()
