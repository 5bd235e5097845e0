"""Wall-clock span tracing of ``repro``'s layer entry points, from outside.

:class:`Tracer` wraps public entry points at class level (no change to
``repro`` itself), records one span per call into flat arrays, and
undoes every patch on :meth:`Tracer.uninstall`.  A layer's self time is
its spans' durations minus the part of each span that child spans
cover (:func:`self_times`); every moment inside the root span is
therefore attributed to exactly one layer, and the self times sum to
the root span's duration.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.bus import CoreBus
from repro.core.plugin import load_builtin_functions
from repro.core.streaming import StreamingDetector
from repro.device.device import IoTDevice
from repro.network.gateway import Gateway
from repro.network.internet import WanExchangePort
from repro.network.node import Link
from repro.runtime.journal import Journal
from repro.service.cloud import CloudPlatform
from repro.sim import Simulator
from repro.telemetry.registry import MetricsRegistry

ROOT_SPAN = "scenarios.run_spec"
_HOOKS = ("link_observer", "ingress_middleware", "egress_middleware")
# Chrome trace files stay loadable: beyond this many spans of the last
# run, only the first ones (in start order) are written.
MAX_FILE_SPANS = 200_000


def self_times(names: Sequence[int], starts: Sequence[float],
               ends: Sequence[float], parents: Sequence[int]
               ) -> Sequence[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent.  ``parents[i]`` is the index
    of span i's parent, or -1 for a root.  Children may overlap each
    other; the overlap is counted once."""
    count = len(starts)
    covered = array("d", bytes(8 * count))
    cover_end = array("d", starts)
    # Recorded spans are already in start order; hand-built ones may not be.
    in_order = all(starts[i] <= starts[i + 1] for i in range(count - 1))
    order = range(count) if in_order else sorted(range(count),
                                                  key=starts.__getitem__)
    for child in order:
        parent = parents[child]
        if parent < 0:
            continue
        lo = max(starts[child], cover_end[parent])
        hi = min(ends[child], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            cover_end[parent] = hi
    return array("d", (ends[i] - starts[i] - covered[i]
                       for i in range(count)))


class _Listener:
    """A traced bus listener that still compares equal to the listener
    it wraps, so ``CoreBus.unsubscribe(original)`` finds it."""

    __slots__ = ("fn", "traced")

    def __init__(self, fn: Callable, traced: Callable):
        self.fn = fn
        self.traced = traced

    def __call__(self, signal) -> None:
        self.traced(signal)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Listener):
            other = other.fn
        return self.fn == other

    def __hash__(self) -> int:
        return hash(self.fn)


class Tracer:
    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.runs = array("i")
        self.run_id = 0
        self.sim_events = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording ---------------------------------------------------------
    def label(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        label = self.label(name)
        stack = self._stack
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs = self.parents, self.runs
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------
    def _patch(self, cls: type, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, replacement)

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def install(self) -> None:
        """Wrap every entry point the per-layer metrics name."""
        for cls in load_builtin_functions().ordered():
            span = f"xlf.{cls.name}"
            for hook in _HOOKS:
                if hook in cls.__dict__:
                    self._patch(cls, hook,
                                self._hook_factory(span, cls.__dict__[hook]))
            if cls.provides_periodic_audit():
                self._patch_method(cls, "periodic_audit", span)
        self._patch_method(CoreBus, "report", "core.bus")
        original_subscribe = CoreBus.subscribe
        correlator = self.label("core.correlator")

        def subscribe(bus, listener):
            traced = self.wrap(self.labels[correlator], listener)
            original_subscribe(bus, _Listener(listener, traced))

        self._patch(CoreBus, "subscribe", subscribe)
        self._patch_method(Link, "transmit", "net.transmit")
        self._patch_method(Gateway, "receive", "net.gateway")
        self._patch_method(WanExchangePort, "deliver", "net.exchange")
        self._patch_method(IoTDevice, "receive", "device")
        self._patch_method(IoTDevice, "send_telemetry", "device")
        self._patch_method(IoTDevice, "emit_event", "device")
        self._patch_method(CloudPlatform, "receive", "service.cloud")
        for method in ("counter", "gauge", "histogram", "record_span"):
            self._patch_method(MetricsRegistry, method, "telemetry")
        self._patch_method(Journal, "append", "runtime.journal")
        self._patch_method(StreamingDetector, "refresh", "streaming.refresh")
        self._patch(Simulator, "run", self._sim_run(Simulator.run))

    def _hook_factory(self, span: str, hook: Callable) -> Callable:
        def factory(function):
            callback = hook(function)
            return None if callback is None else self.wrap(span, callback)
        return factory

    def _sim_run(self, run: Callable) -> Callable:
        traced_run = self.wrap("sim", run)

        def sim_run(sim, until=None):
            before = sim.events_processed
            try:
                return traced_run(sim, until)
            finally:
                self.sim_events += sim.events_processed - before
        return sim_run

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patches):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a new root span (one traced run)."""
        self.run_id += 1
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    def mark(self) -> Tuple[int, int]:
        """A point to :meth:`drop` back to (taken between runs)."""
        return len(self.starts), self.sim_events

    def drop(self, mark: Tuple[int, int]) -> None:
        """Forget every span and simulator event since ``mark``: the
        run that made them failed."""
        spans, self.sim_events = mark
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.runs):
            del column[spans:]

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """{span name: (calls, summed self seconds)} over all spans."""
        selfs = self_times(self.names, self.starts, self.ends, self.parents)
        totals: Dict[str, List] = {name: [0, 0.0] for name in self.labels}
        for label, seconds in zip(self.names, selfs):
            entry = totals[self.labels[label]]
            entry[0] += 1
            entry[1] += seconds
        return {name: (calls, seconds)
                for name, (calls, seconds) in totals.items()}

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto) of
        the last traced run: one complete event per span."""
        total = len(self.starts)
        first = self.runs.index(self.runs[-1]) if total else 0
        last = min(total, first + MAX_FILE_SPANS)
        origin = self.starts[first] if total else 0.0
        events = [{"name": self.labels[self.names[i]], "ph": "X",
                   "ts": (self.starts[i] - origin) * 1e6,
                   "dur": (self.ends[i] - self.starts[i]) * 1e6,
                   "pid": 1, "tid": self.runs[i],
                   "args": {"id": i, "parent": self.parents[i]}}
                  for i in range(first, last)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"runs": self.run_id,
                                     "spans_total": total,
                                     "spans_written": last - first}},
                      handle)
