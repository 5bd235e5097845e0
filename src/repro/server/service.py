"""The resident fleet service: queue workers, live telemetry, drain.

:class:`FleetService` is the sim-core-behind-a-facade piece: everything
the HTTP layer does goes through it, and nothing in it knows about
HTTP.  Jobs are :class:`~repro.server.jobs.Job`s pulled off a priority
:class:`~repro.server.jobs.JobQueue` by N asyncio worker tasks; each
job's ``run_spec`` executes on a worker *thread* (the event loop stays
free to serve status, SSE, and ``/metrics`` while simulations run),
inside a :func:`repro.telemetry.scoped_registry` block so concurrent
jobs never cross-contaminate their telemetry.

Determinism contract: a job is executed by the exact same
``run_spec(spec, workers=...)`` call the CLI makes, with a fresh
registry, so the ``observations`` section of its stored result is
byte-identical to a direct run of the same spec (see
:mod:`repro.server.store`).  The per-home progress hook only *reads*
each merged :class:`HomeRunResult` — and doubles as the cooperative
cancellation/timeout point, at home granularity.

Crash resilience rides on the PR-5 path: a job submitted with
``workers > 1`` whose forked worker dies mid-home is retried serially
inside ``run_spec`` — the job completes (flagging
``degraded_homes``) instead of being lost.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.scenarios.spec import ScenarioSpec, SpecError, run_spec
from repro.server.jobs import (
    Job,
    JobInterrupted,
    JobQueue,
    JobState,
    QueueClosed,
)
from repro.server.store import ResultStore, result_to_dict
from repro.telemetry import MetricsRegistry
from repro.telemetry.export import to_prometheus

# Wall-clock job durations: wider than the latency-shaped default
# buckets (a full fleet job legitimately takes minutes).
JOB_DURATION_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class ServiceDraining(RuntimeError):
    """Submission rejected: the service is shutting down."""


class UnknownJob(KeyError):
    """No job with that id was ever submitted."""


class FleetService:
    """Long-lived job runner over the spec engine.

    ``workers`` bounds how many jobs simulate concurrently (each job may
    additionally fork its own home-shard processes via its envelope's
    ``workers`` field).  All public methods that touch the queue or the
    job table must run on the service's event loop; ``metrics_text``
    and ``live`` merging are thread-safe because job threads report
    into them through a lock.
    """

    def __init__(self, workers: int = 2,
                 store: Optional[ResultStore] = None,
                 max_spec_homes: int = 10_000,
                 hold: Optional[threading.Event] = None):
        if workers < 1:
            raise ValueError("FleetService needs at least one worker")
        self.workers = workers
        # Test seam: while ``hold`` is clear, every running job waits at
        # its next home or epoch boundary, before the cancel/timeout
        # checks, so a test can act on a job it knows is running.
        self.hold = hold
        self.store = store if store is not None else ResultStore()
        self.max_spec_homes = max_spec_homes
        self.jobs: Dict[str, Job] = {}
        self.queue = JobQueue()
        self.draining = False
        self.started_at = time.time()
        # Live metrics: merged job telemetry + server-level counters.
        self.live = MetricsRegistry(max_spans=0)
        self._live_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._worker_tasks: List[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and launch the worker tasks."""
        telemetry.enable()
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fleet-job")
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"fleet-worker-{i}")
            for i in range(self.workers)
        ]

    async def drain(self) -> None:
        """Graceful shutdown: refuse new jobs, finish accepted ones.

        Every job already accepted — queued or running — completes
        normally; SSE streams see their terminal events before the
        sockets close.
        """
        self.draining = True
        self.queue.close()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # -- submission and control (event-loop side) --------------------------
    def submit(self, spec_data: Dict[str, Any], *, priority: int = 0,
               workers: int = 1, timeout_s: Optional[float] = None,
               journal: Optional[str] = None) -> Job:
        """Validate and enqueue one scenario; raises
        :class:`~repro.scenarios.spec.SpecError` on a malformed spec and
        :class:`ServiceDraining` once shutdown began."""
        if self.draining:
            raise ServiceDraining("server is draining; job rejected")
        spec = ScenarioSpec.from_dict(spec_data)
        if len(spec.homes) > self.max_spec_homes:
            raise SpecError(
                f"spec has {len(spec.homes)} homes; this server accepts "
                f"at most {self.max_spec_homes}")
        if workers < 1:
            raise SpecError("job workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise SpecError("job timeout_s must be > 0")
        if journal is not None and not str(journal).strip():
            raise SpecError("job journal path must be non-empty")
        job = Job(spec, priority=priority, workers=workers,
                  timeout_s=timeout_s, journal_path=journal)
        job.events.bind(self._loop)
        self.jobs[job.id] = job
        try:
            self.queue.put(job)
        except QueueClosed:
            del self.jobs[job.id]
            raise ServiceDraining("server is draining; job rejected")
        job.events.append("queued", job=job.summary())
        with self._live_lock:
            self.live.counter("server.jobs_submitted").inc()
            self._update_queue_gauges()
        return job

    def get_job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a job.  Queued jobs die immediately; running jobs are
        interrupted cooperatively at their next home boundary.  Returns
        the job; raises :class:`UnknownJob` for unknown ids."""
        job = self.get_job(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            self._finish(job, JobState.CANCELLED)
            with self._live_lock:
                self._update_queue_gauges()
        else:
            job.events.append("cancel-requested", job_id=job.id)
        return job

    def job_summaries(self) -> List[Dict[str, Any]]:
        return [job.summary() for job in self.jobs.values()]

    # -- metrics -----------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus text of the live registry: server counters plus
        the telemetry of every home completed so far."""
        with self._live_lock:
            self._update_queue_gauges()
            snap = self.live.snapshot()
        return to_prometheus(snap)

    def _update_queue_gauges(self) -> None:
        # Callers hold _live_lock.
        self.live.gauge("server.queue_depth").set(self.queue.depth())
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        for state in JobState:
            self.live.gauge("server.jobs",
                            state=state.value).set(states.get(state.value, 0))

    # -- execution (worker task -> worker thread) --------------------------
    async def _worker(self) -> None:
        while True:
            job = await self.queue.get()
            if job is None:
                return
            if job.terminal:       # cancelled while queued
                continue
            with self._live_lock:
                self._update_queue_gauges()
            await self._loop.run_in_executor(
                self._executor, self._execute, job)

    def _execute(self, job: Job) -> None:
        """Run one job to completion on this worker thread."""
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.events.append("started", job_id=job.id,
                          homes_total=job.homes_total)
        deadline = (time.monotonic() + job.timeout_s
                    if job.timeout_s is not None else None)

        def on_home(home) -> None:
            job.homes_done += 1
            job.alerts_seen += len(home.alerts)
            job.events.append(
                "home",
                home=home.home_index,
                homes_done=job.homes_done,
                homes_total=job.homes_total,
                alerts=len(home.alerts),
                infected=sorted(home.infected),
                cloned=home.cloned,
                degraded=home.degraded,
            )
            for alert in home.alerts:
                job.events.append(
                    "alert",
                    home=home.home_index,
                    category=alert.category,
                    device=alert.device,
                    timestamp=alert.timestamp,
                    confidence=alert.confidence,
                    layers=[layer.value for layer in alert.layers_involved],
                )
            with self._live_lock:
                self.live.counter("server.homes_completed").inc()
                if home.degraded:
                    self.live.counter("server.homes_degraded").inc()
            if self.hold is not None:
                self.hold.wait()
            if job.cancel_requested:
                raise JobInterrupted(JobState.CANCELLED)
            if deadline is not None and time.monotonic() > deadline:
                raise JobInterrupted(JobState.TIMEOUT)

        def on_epoch(home, epoch) -> None:
            # The epoch-granular interruption point for journaled jobs:
            # the supervisor has just fsynced the boundary record, so an
            # abort here leaves a well-formed, truncation-marked journal.
            if self.hold is not None:
                self.hold.wait()
            if job.cancel_requested:
                raise JobInterrupted(JobState.CANCELLED)
            if deadline is not None and time.monotonic() > deadline:
                raise JobInterrupted(JobState.TIMEOUT)

        journal = None
        if job.journal_path is not None:
            from repro.runtime.journal import Journal
            # Durable mode: a server job's journal must survive
            # process death, not just driver exceptions.
            journal = Journal(job.journal_path, fsync=True)
        scratch = MetricsRegistry()
        result = None
        try:
            with telemetry.scoped_registry(scratch):
                result = run_spec(
                    job.spec, workers=job.workers, on_home=on_home,
                    journal=journal,
                    on_epoch=on_epoch if journal is not None else None)
        except JobInterrupted as exc:
            self._finish(job, exc.state)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, JobState.FAILED)
        else:
            payload = result_to_dict(result)
            self.store.put(job.id, payload)
            self._finish(job, JobState.DONE,
                         alerts=len(result.alerts),
                         infected=sorted(result.infected),
                         degraded_homes=list(result.degraded_homes))
        finally:
            if journal is not None:
                journal.close()
        # Fold the job's telemetry (including retry counters recorded
        # outside any home-local registry) into the live registry.
        with self._live_lock:
            self.live.merge(scratch)
            duration = time.time() - job.started_at
            self.live.histogram(
                "server.job_duration_s",
                buckets=JOB_DURATION_BUCKETS,
                state=job.state.value).observe(duration)

    def _finish(self, job: Job, state: JobState, **extra: Any) -> None:
        job.state = state
        job.finished_at = time.time()
        if job.error is not None:
            extra.setdefault("error", job.error)
        job.events.append(state.value, job_id=job.id,
                          homes_done=job.homes_done, **extra)
        with self._live_lock:
            self.live.counter("server.jobs_finished",
                              state=state.value).inc()
            self._update_queue_gauges()
