"""Tests for the exact sliding-window primitive and the detectors on it.

The primitive tests pin the eviction boundary (an entry exactly
``span_s`` old is kept, one a float step older is gone), equal
timestamps, count bookkeeping and ``clear``.  The differential test
drives the windowed :class:`MaliciousActivityDetector` and a copy of the
list-comprehension detector it replaced (kept below as the oracle) with
the same seeded scan + flood stream and requires identical signal
sequences.  The bounded-state tests flood each windowed detector for a
minute and check its window never outgrows span x rate.
"""

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Deque, Tuple

import pytest

from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.device.device import get_device_spec
from repro.network.packet import Packet
from repro.security.network.activity import (
    DeviceBehaviorProfile,
    MaliciousActivityDetector,
)
from repro.security.service.analytics import SecurityAnalytics
from repro.security.service.appverify import ApplicationVerifier

CLOUD = "198.51.100.10"
VICTIM = "203.0.113.9"


class TestSlidingWindow:
    def test_entry_exactly_span_old_is_kept(self):
        window = SlidingWindow(10.0)
        window.push(0.0, "a")
        window.push(10.0, "b")
        assert list(window) == [(0.0, "a"), (10.0, "b")]

    def test_entry_just_older_than_span_is_evicted(self):
        window = SlidingWindow(10.0)
        window.push(0.0, "a")
        window.push(math.nextafter(10.0, math.inf), "b")
        assert [item for _t, item in window] == ["b"]

    def test_boundary_uses_now_minus_span(self):
        # 0.9 - 0.7 is 0.20000000000000007: an entry at 0.2 is older
        # than that horizon and goes, although 0.9 - 0.2 == 0.7 exactly.
        window = SlidingWindow(0.7)
        window.push(0.2, "a")
        window.push(0.9, "b")
        assert [item for _t, item in window] == ["b"]

    def test_equal_timestamps(self):
        window = SlidingWindow(5.0, counted=True)
        for item in ("x", "y", "x"):
            window.push(3.0, item)
        assert len(window) == 3
        assert window.counts == {"x": 2, "y": 1}
        window.push(8.0, "z")              # 3.0 == 8.0 - 5.0: all kept
        assert len(window) == 4
        window.push(8.5, "z")
        assert len(window) == 2
        assert window.counts == {"z": 2}

    def test_count_reaching_zero_disappears(self):
        window = SlidingWindow(1.0, counted=True)
        window.push(0.0, "a")
        window.push(0.5, "b")
        window.push(1.5, "b")
        assert window.counts == {"b": 2}
        assert "a" not in window.counts
        window.push(3.0, "c")
        assert window.counts == {"c": 1}

    def test_clear_empties_entries_and_counts(self):
        window = SlidingWindow(10.0, counted=True)
        window.push(1.0, "a")
        window.push(2.0, "b")
        window.clear()
        assert len(window) == 0
        assert list(window) == []
        assert window.counts == {}
        window.push(3.0, "a")
        assert window.counts == {"a": 1}

    def test_uncounted_window_takes_unhashable_items(self):
        window = SlidingWindow(10.0)
        window.push(1.0, {"readings": [1, 2]})
        assert window.counts is None
        assert len(window) == 1

    @pytest.mark.parametrize("span", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_span(self, span):
        with pytest.raises(ValueError):
            SlidingWindow(span)


# ---------------------------------------------------------------------------
# Differential oracle: the detector's windows before SlidingWindow, verbatim
# apart from the removed write-only ``deviations`` list.
# ---------------------------------------------------------------------------

@dataclass
class _DeviceWindow:
    timestamps: Deque[float] = field(default_factory=deque)
    destinations: Deque[Tuple[float, str, int]] = field(default_factory=deque)


class ComprehensionDetector(MaliciousActivityDetector):
    """The list/set-comprehension windows the detector used to rebuild
    on every packet."""

    def __init__(self, sim, report=None):
        super().__init__(sim, report)
        self._old_windows = defaultdict(_DeviceWindow)

    def observe(self, packet: Packet) -> None:
        device = packet.src_device
        if device not in self._profiles or packet.is_cover_traffic:
            return
        now = self.sim.now
        window = self._old_windows[device]
        window.timestamps.append(now)
        window.destinations.append((now, packet.dst, packet.dport))
        self._trim(window, now)
        self._check_destination(device, packet, now)
        self._check_scan(device, window, now)
        self._check_ddos(device, window, now)
        self._check_state_claim(device, packet, now)

    def _trim(self, window, now):
        horizon = now - max(self.SCAN_WINDOW_S, self.DDOS_WINDOW_S)
        while window.timestamps and window.timestamps[0] < horizon:
            window.timestamps.popleft()
        while window.destinations and window.destinations[0][0] < horizon:
            window.destinations.popleft()

    def _check_scan(self, device, window, now):
        recent = [(d, p) for t, d, p in window.destinations
                  if t >= now - self.SCAN_WINDOW_S]
        distinct = {d for d, _p in recent}
        if len(distinct) < self.SCAN_DISTINCT_TARGETS:
            return
        last = self._scan_flagged.get(device, -1e9)
        if now - last < self.SCAN_WINDOW_S:
            return
        self._scan_flagged[device] = now
        self._report(SecuritySignal.make(
            Layer.NETWORK, SignalType.SCAN_PATTERN, "activity-detector",
            device, now, severity=Severity.CRITICAL,
            distinct_targets=len(distinct),
        ))

    def _check_ddos(self, device, window, now):
        recent = [t for t in window.timestamps
                  if t >= now - self.DDOS_WINDOW_S]
        if len(recent) < self.DDOS_PACKETS:
            return
        targets = defaultdict(int)
        for t, d, _p in window.destinations:
            if t >= now - self.DDOS_WINDOW_S:
                targets[d] += 1
        top_target, top_count = max(targets.items(), key=lambda kv: kv[1])
        if top_count < 0.8 * len(recent):
            return
        last = self._ddos_flagged.get(device, -1e9)
        if now - last < self.DDOS_WINDOW_S:
            return
        self._ddos_flagged[device] = now
        self._report(SecuritySignal.make(
            Layer.NETWORK, SignalType.DDOS_PATTERN, "activity-detector",
            device, now, severity=Severity.CRITICAL,
            target=top_target, packets=top_count,
        ))


DEVICES = ("camera-1", "smart_plug-1", "smart_bulb-1")


def attach(detector_cls, sim):
    signals = []
    detector = detector_cls(sim, report=signals.append)
    for device in DEVICES:
        spec = get_device_spec(device.rsplit("-", 1)[0])
        detector.register_device(
            device, DeviceBehaviorProfile.from_device_spec(spec, {CLOUD}))
    return detector, signals


def mixed_stream(seed, duration_s=70.0, pps=200):
    """(t, device, dst, dport) events in time order: cloud chatter from
    every device, a LAN scan, a ``pps`` flood whose victim share falls to
    around the 80% dominance threshold, and a ``pps`` two-target flood
    whose top targets tie.  Every time is a whole number of 1/pps ticks,
    so many entries sit exactly on a window boundary, and some ticks
    carry two packets from one device."""
    rng = random.Random(seed)
    ticks = []                          # (tick, device, dst, dport)
    for device in DEVICES:
        tick = rng.randint(0, 2 * pps)
        while tick < duration_s * pps:
            ticks.append((tick, device, CLOUD, 8883))
            tick += rng.choice((pps // 2, pps, 5 * pps))
    # LAN scan over distinct 10.0.0.x targets, long enough to re-fire.
    tick = rng.randint(2 * pps, 10 * pps)
    for _ in range(rng.randint(60, 120)):
        ticks.append((tick, "camera-1", f"10.0.0.{rng.randint(2, 60)}", 23))
        tick += rng.choice((pps // 4, pps // 2))
    # Dominance flood: 12 s, the victim's share well above the 80%
    # threshold for 6 s, then straddling it.
    start = rng.randint(5 * pps, 15 * pps)
    shares = (rng.uniform(0.85, 0.95), rng.uniform(0.74, 0.84))
    for k in range(12 * pps):
        for _ in range(2 if rng.random() < 0.05 else 1):
            dst = VICTIM if rng.random() < shares[k // (6 * pps)] else \
                f"192.0.2.{rng.randint(1, 4)}"
            ticks.append((start + k, "smart_plug-1", dst, 80))
    # Tied flood: two targets, alternating, 8 s (no signal).
    start = rng.randint(30 * pps, 45 * pps)
    for k in range(8 * pps):
        ticks.append((start + k, "smart_bulb-1",
                      VICTIM if k % 2 else "192.0.2.77", 80))
    ticks.sort(key=lambda event: event[0])
    return [(tick / pps, device, dst, dport)
            for tick, device, dst, dport in ticks]


def run_stream(detector_cls, events):
    sim = SimpleNamespace(now=0.0)
    detector, signals = attach(detector_cls, sim)
    for t, device, dst, dport in events:
        sim.now = t
        detector.observe(Packet(src="10.0.0.2", dst=dst, dport=dport,
                                src_device=device))
    return detector, [(s.signal_type, s.device, s.timestamp, s.details)
                      for s in signals]


class TestDifferentialAgainstComprehensions:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_signal_sequences(self, seed):
        events = mixed_stream(seed)
        _old, expected = run_stream(ComprehensionDetector, events)
        _new, actual = run_stream(MaliciousActivityDetector, events)
        kinds = {kind for kind, *_rest in expected}
        assert SignalType.SCAN_PATTERN in kinds
        assert SignalType.DDOS_PATTERN in kinds
        assert actual == expected


FLOOD_PPS = 200
FLOOD_S = 60.0


def flood_times():
    return [k / FLOOD_PPS for k in range(int(FLOOD_S * FLOOD_PPS))]


def bound(span_s):
    # Both ends of [now - span, now] are inclusive, hence the +1.
    return span_s * FLOOD_PPS + 1


class TestBoundedStateUnderFlood:
    def test_activity_windows(self):
        sim = SimpleNamespace(now=0.0)
        detector, _signals = attach(MaliciousActivityDetector, sim)
        scan, ddos = detector._windows["smart_plug-1"]
        for k, t in enumerate(flood_times()):
            sim.now = t
            detector.observe(Packet(src="10.0.0.2", dst=f"10.0.0.{k % 50}",
                                    dport=80, src_device="smart_plug-1"))
            assert len(scan) <= bound(detector.SCAN_WINDOW_S)
            assert len(ddos) <= bound(detector.DDOS_WINDOW_S)
        assert len(scan) == bound(detector.SCAN_WINDOW_S)
        assert len(scan.counts) == 50

    def test_app_verifier_event_window(self):
        sim = SimpleNamespace(now=0.0)
        verifier = ApplicationVerifier(sim)
        span = 10 * verifier.EXPLANATION_WINDOW_S
        for t in flood_times():
            sim.now = t
            verifier.note_event("dev-1", "state", "on")
            assert len(verifier._recent_events) <= bound(span)

    def test_analytics_rate_window(self):
        sim = SimpleNamespace(now=0.0)
        analytics = SecurityAnalytics(sim, use_forecaster=False)
        for t in flood_times():
            sim.now = t
            analytics.ingest_telemetry("dev-1", {})
            times = analytics._message_times["dev-1"]
            assert len(times) <= bound(analytics.RATE_WINDOW_S)
