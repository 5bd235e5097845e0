"""Defended-path benchmark of the XLF reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload worm-flood --seed 3 --seconds 28 --trace 0

Runs one workload (see ``workloads.py``) through the public
``run_spec`` entry point, serially in this process (``workers=1``).
Every run's observations are hashed and checked against the digest
``reference.json`` records for the seed's variant; a run that raises or
mismatches counts as failed and gives no timing.

``--trace 0`` times the end-to-end metrics: set-up in fresh processes,
then untimed warm-up runs, then timed runs until ``--seconds`` have
passed.  Times are CPU seconds, host-normalised: the host-speed probe
(``probe.py``) runs on the same CPU the whole time, and a time is scaled
by ``probe_ref / probe``, with ``probe`` the probe's CPU seconds per
probe over that same interval.

``--trace 1`` reports per-layer metrics instead: one warm-up run, two
untraced timed runs, then runs with the layer entry points wrapped
(``tracer.py``) until ``--seconds`` have passed.  The spans are written
to ``perfbench/out/`` as a Chrome trace.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"perfbench: no repro package under {SRC}; run from the "
             "root of a repository checkout")
sys.path[:0] = [SRC, HERE]

from measures import (Ledger, normalise, observation_digest,  # noqa: E402
                      probe_during, recall_precision)
from probe import ROUNDS  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.core.plugin import load_builtin_functions  # noqa: E402
from repro.scenarios import run_spec  # noqa: E402
from repro.scenarios.prototype import PROTOTYPES  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import OBSERVED, WORKLOADS, variant  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
# The first two runs in a process are still slower (by about 5% on
# worm-flood), so two untimed runs come first.
WARMUP_RUNS = 2
MIN_TIMED_RUNS = 2
CHILD_TIMEOUT_S = 120


class Run(NamedTuple):
    """One passing run or set-up process: its ``perf_counter`` interval
    and CPU seconds."""
    began: float
    ended: float
    cpu_s: float
    result: object = None


class Probe:
    """The host-speed probe (``probe.py``), running in a child process
    on this process's CPU from ``__enter__`` to ``__exit__``, except
    while :meth:`paused` (untimed work then runs at full speed).  Its
    timeline is read at exit; :meth:`normalise` needs it."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        self.points = []
        return self

    def __exit__(self, *exc) -> bool:
        try:
            out, _err = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        self.points = json.loads(out)
        return False

    @contextlib.contextmanager
    def paused(self):
        self.proc.send_signal(signal.SIGSTOP)
        try:
            yield
        finally:
            self.proc.send_signal(signal.SIGCONT)

    def during(self, run: Run) -> float:
        """The probe's CPU seconds per probe while ``run`` ran."""
        return probe_during(self.points, run.began, run.ended, ROUNDS)

    def normalise(self, run: Run, probe_ref: float) -> float:
        return normalise(run.cpu_s, self.during(run), probe_ref)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _percentile(values, percent: int) -> float:
    """Nearest-rank percentile (matches repro's latency summaries)."""
    ordered = sorted(values)
    return ordered[max(-(-percent * len(ordered) // 100) - 1, 0)]


class Bench:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.make_spec = WORKLOADS[workload]
        self.observed = workload in OBSERVED
        self.probe_ref = reference["probe_ref_s"]
        expected = reference["digests"].get(workload, {}).get(
            str(variant(seed)))
        self.ledger = Ledger(expected)
        self.last_digest = None
        self.journal_bytes = 0

    # -- one run -----------------------------------------------------------
    def execute(self, call=None) -> Optional[Run]:
        """One checked run, or None when it raised or its observations
        differ from the recorded ones.  ``call(run_spec, spec, **kw)``
        replaces the plain call (the tracer runs it under a span)."""
        spec = self.make_spec(self.seed)
        kwargs = {"workers": 1}
        journal_dir = None
        if self.observed:
            telemetry.reset()
            journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT)
            kwargs["journal"] = os.path.join(journal_dir, "run.jsonl")
        call = call or (lambda fn, *a, **k: fn(*a, **k))
        try:
            began, cpu = time.perf_counter(), time.process_time()
            result = call(run_spec, spec, **kwargs)
            cpu = time.process_time() - cpu
            ended = time.perf_counter()
            if journal_dir is not None:
                journal_bytes = os.path.getsize(kwargs["journal"])
        except Exception as exc:   # a raising run is a failed operation
            print(f"run raised: {exc!r}", file=sys.stderr)
            self.ledger.record(None)
            return None
        finally:
            if journal_dir is not None:
                shutil.rmtree(journal_dir, ignore_errors=True)
        self.last_digest = observation_digest(result)
        if not self.ledger.record(self.last_digest):
            print("observation digest mismatch", file=sys.stderr)
            return None
        if journal_dir is not None:
            self.journal_bytes += journal_bytes
        return Run(began, ended, cpu, result)

    def setup(self, reps: int, probe: Probe) -> List[Run]:
        """``reps`` fresh set-up processes, after one untimed process
        that fills bytecode and page caches."""
        command = [sys.executable, os.path.join(HERE, "setup_child.py"),
                   self.workload, str(self.seed)]

        def child() -> Run:
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                                  check=True)
            began, ended, cpu = map(float, done.stdout.split()[-3:])
            return Run(began, ended, cpu)

        with probe.paused():
            child()
        return [child() for _ in range(reps)]

    def timed(self, seconds: float, min_runs: int, call=None,
              tracer: Optional[Tracer] = None) -> List[Run]:
        """The passing runs of ``seconds`` of running (at least
        ``min_runs`` attempts).  Only the last run keeps its result,
        except with a ``tracer``; then a failed run's spans are dropped,
        so per-layer figures only ever come from runs that passed."""
        runs: List[Run] = []
        started = time.perf_counter()
        attempts = 0
        last = 0.0
        # Start another run only if it should end within ``seconds``.
        while (attempts < min_runs
               or time.perf_counter() - started + last <= seconds):
            attempts += 1
            # Garbage from earlier runs would set off a full collection
            # in some runs and not others; every run starts from a
            # collected heap, as a run in a fresh process does.
            gc.collect()
            mark = tracer.mark() if tracer is not None else None
            began = time.perf_counter()
            run = self.execute(call)
            last = time.perf_counter() - began
            if run is not None:
                if runs and tracer is None:   # keep one result alive
                    runs[-1] = runs[-1]._replace(result=None)
                runs.append(run)
            elif tracer is not None:
                tracer.drop(mark)
        return runs

    # -- the two modes -----------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        with Probe() as probe:
            setup_runs = self.setup(SETUP_REPS, probe)
            with probe.paused():
                for _ in range(WARMUP_RUNS):
                    self.execute()
            runs = self.timed(seconds, MIN_TIMED_RUNS)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not runs:
            return {}
        wall = [probe.normalise(run, self.probe_ref) for run in runs]
        setup = [probe.normalise(run, self.probe_ref) for run in setup_runs]
        probes = [probe.during(run) for run in runs + setup_runs]
        print(f"{self.workload} seed {self.seed}: "
              f"wall_s median of {len(wall)} runs {_fmt(wall)} "
              f"(raw {_fmt(run.cpu_s for run in runs)}), "
              f"setup_s median of {len(setup)} processes {_fmt(setup)} "
              f"(raw {_fmt(run.cpu_s for run in setup_runs)}), "
              f"probe {_fmt(probes)}")
        recall, precision = recall_precision(runs[-1].result)
        return {
            "wall_s": _metric(statistics.median(wall), "ref-s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "recall": _metric(recall, "ratio"),
            "precision": _metric(precision, "ratio"),
        }

    def per_layer(self, seconds: float) -> dict:
        with Probe() as probe:
            setup_run, = self.setup(1, probe)
        self.execute()   # untimed warm-up
        untraced = self.timed(0.0, 2)
        tracer = Tracer()
        clones = PROTOTYPES.clones
        fallbacks = PROTOTYPES.fallbacks
        self.journal_bytes = 0
        tracer.install()
        try:
            traced = self.timed(seconds, 1, call=tracer.run, tracer=tracer)
        finally:
            tracer.uninstall()
        if not traced or not untraced:
            return {}
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome_trace(os.path.join(
            OUT, f"trace-{self.workload}-{self.seed}.json"))

        runs = len(traced)
        results = [run.result for run in traced]
        totals = tracer.layer_totals()
        metrics = {}

        def count(name: str, value: float) -> None:
            metrics[name] = _metric(value / runs, "count")

        def seconds_(name: str, value: float) -> None:
            metrics[name] = _metric(value / runs, "s")

        def layer(span: str, prefix: str, calls: str = "calls") -> None:
            n, self_s = totals.get(span, (0, 0.0))
            if calls:
                count(f"{prefix}.{calls}", n)
            seconds_(f"{prefix}.self_s", self_s)

        for function in load_builtin_functions().names():
            layer(f"xlf.{function}", f"xlf.{function}")
        layer("core.bus", "core.bus", "reports")
        layer("core.correlator", "core.correlator", None)
        count("core.alerts", sum(len(r.alerts) for r in results))
        layer("net.transmit", "net.transmit", None)
        packets, transmit_s = totals.get("net.transmit", (0, 0.0))
        count("net.packets", packets)
        metrics["net.us_per_packet"] = _metric(
            transmit_s / packets * 1e6 if packets else 0.0, "us")
        layer("net.gateway", "net.gateway", None)
        layer("net.exchange", "net.exchange", "messages")
        layer("device", "device", None)
        layer("service.cloud", "service.cloud")
        count("sim.events", tracer.sim_events)
        layer("sim", "sim", None)
        layer(ROOT_SPAN, ROOT_SPAN, None)
        homes = [home for r in results for home in r.homes]
        for stage in ("build_s", "run_s", "featurize_s"):
            seconds_(f"scenarios.{stage}",
                     sum(home.timings.get(stage, 0.0) for home in homes))
        home_s = [sum(home.timings.values()) for home in homes]
        metrics["scenarios.home_s.p50"] = _metric(
            _percentile(home_s, 50), "s")
        metrics["scenarios.home_s.p95"] = _metric(
            _percentile(home_s, 95), "s")
        count("scenarios.clones", PROTOTYPES.clones - clones)
        count("scenarios.clone_fallbacks", PROTOTYPES.fallbacks - fallbacks)
        layer("runtime.journal", "runtime.journal", "appends")
        metrics["runtime.journal.bytes"] = _metric(
            self.journal_bytes / runs, "B")
        layer("telemetry", "telemetry")
        layer("streaming.refresh", "streaming.refresh", None)
        latency = results[-1].detection_latency_summary().get("fleet", {})
        metrics["detect.p50_sim_s"] = _metric(
            latency.get("median_s", 0.0), "sim-s")
        metrics["trace.overhead"] = _metric(
            statistics.median(run.ended - run.began for run in traced)
            / statistics.median(run.ended - run.began for run in untraced),
            "ratio")
        metrics["host.probe_s"] = _metric(probe.during(setup_run), "s")
        metrics["host.wall_raw_s"] = _metric(untraced[0].cpu_s, "s")
        metrics["host.setup_raw_s"] = _metric(setup_run.cpu_s, "s")
        print(f"{self.workload} seed {self.seed}: {runs} traced runs, "
              f"{len(tracer.starts)} spans, trace overhead "
              f"{metrics['trace.overhead']['value']:.2f}x")
        return metrics


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children, so the probe times
        # the CPU the runs use (the two CPUs of a shared host differ).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    os.makedirs(OUT, exist_ok=True)

    bench = Bench(args.workload, args.seed, reference)
    if bench.observed:
        telemetry.enable()
    try:
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        telemetry.disable()
    ledger = bench.ledger
    if not metrics:
        print(f"perfbench: no run passed ({ledger.failed} of "
              f"{ledger.attempted} failed)", file=sys.stderr)
        return 1
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
