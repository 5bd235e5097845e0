"""``repro.server`` — the resident fleet service.

Turns the one-shot ``run_spec`` batch engine into a long-lived,
multi-tenant service: submit :class:`~repro.scenarios.spec.ScenarioSpec`
JSON over REST, watch per-home progress and alerts stream over SSE,
scrape live Prometheus metrics, and fetch results that are
byte-identical (in their ``observations`` section) to a direct CLI run
of the same spec.

Run it::

    python -m repro serve --port 8787 --workers 2

or embed it::

    from repro.server import serve
    asyncio.run(serve(port=8787, workers=2))

or, for tests and benchmarks, in-process::

    from repro.server.background import BackgroundServer
    with BackgroundServer() as server:
        job = server.client().submit(spec_dict)

Layering (nothing imports upward):

* :mod:`repro.server.jobs` — job model, event log, priority queue
* :mod:`repro.server.store` — result serialization + bounded store
* :mod:`repro.server.service` — queue workers, live telemetry, drain
* :mod:`repro.server.http` — hand-rolled asyncio HTTP/1.1 + SSE front end
* :mod:`repro.server.client` — stdlib blocking client
* :mod:`repro.server.background` — in-process server-on-a-thread helper
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
import threading
from typing import Callable, Optional

from repro.server.jobs import Job, JobQueue, JobState
from repro.server.service import FleetService, ServiceDraining, UnknownJob
from repro.server.store import ResultStore, canonical_json, result_to_dict
from repro.server.http import HttpServer


async def serve(host: str = "127.0.0.1", port: int = 8787,
                workers: int = 2,
                store_capacity: int = 64,
                spill_path: Optional[str] = None,
                sse_keepalive_s: float = 10.0,
                ready: Optional[asyncio.Event] = None,
                shutdown: Optional[asyncio.Event] = None,
                on_bound: Optional[Callable[[HttpServer], None]] = None,
                quiet: bool = False,
                hold: Optional[threading.Event] = None) -> int:
    """Run the service until SIGTERM/SIGINT (or ``shutdown`` is set),
    then drain gracefully: stop accepting jobs, finish accepted ones,
    close the sockets.  Returns 0 on a clean drain.  ``hold`` is
    :class:`FleetService`'s job-boundary test seam."""
    store = ResultStore(capacity=store_capacity, spill_path=spill_path)
    service = FleetService(workers=workers, store=store, hold=hold)
    await service.start()
    http = HttpServer(service, host=host, port=port,
                      sse_keepalive_s=sse_keepalive_s)
    await http.start()
    if on_bound is not None:
        on_bound(http)

    stop = shutdown if shutdown is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for signame in ("SIGTERM", "SIGINT"):
        sig = getattr(signal, signame, None)
        if sig is None:
            continue
        # Non-main threads (BackgroundServer) and some platforms cannot
        # install loop signal handlers; the shutdown event still works.
        with contextlib.suppress(NotImplementedError, ValueError,
                                 RuntimeError):
            loop.add_signal_handler(sig, stop.set)
            registered.append(sig)

    if not quiet:
        print(f"repro.server listening on http://{http.host}:{http.port} "
              f"({workers} job worker(s); POST /jobs, GET /metrics, "
              f"SSE /jobs/<id>/events)", file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()

    await stop.wait()
    if not quiet:
        print("repro.server draining: finishing accepted jobs ...",
              file=sys.stderr, flush=True)
    await service.drain()
    await http.close()
    for sig in registered:
        with contextlib.suppress(NotImplementedError, ValueError,
                                 RuntimeError):
            loop.remove_signal_handler(sig)
    if not quiet:
        finished = sum(1 for job in service.jobs.values() if job.terminal)
        print(f"repro.server stopped cleanly "
              f"({finished}/{len(service.jobs)} job(s) finished)",
              file=sys.stderr, flush=True)
    return 0


__all__ = [
    "FleetService",
    "HttpServer",
    "Job",
    "JobQueue",
    "JobState",
    "ResultStore",
    "ServiceDraining",
    "UnknownJob",
    "canonical_json",
    "result_to_dict",
    "serve",
]
