"""Security data analytics (paper §IV-C.3).

Multi-dimensional analytics over device telemetry:

* **sensor z-scores** — readings far outside a device's learned
  distribution (the tampered-thermometer precondition);
* **traffic baselines** — "detect whether there has been ... irregular
  amounts of keep-alive packets on the device" via per-device message
  rate baselines;
* **context policies** — correlate state transitions with third-party
  context ("associate the transitions with ... weather report"),
  flagging policy actions fired under implausible context.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.plugin import SecurityFunction, register
from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.security.service.timeseries import TelemetryForecaster
from repro.sim import Simulator


@dataclass
class _RunningStats:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))

    def zscore(self, value: float) -> float:
        std = self.std
        if std == 0:
            return 0.0
        return (value - self.mean) / std


class SecurityAnalytics:
    """Streaming anomaly detection over telemetry and context."""

    Z_THRESHOLD = 4.0
    MIN_BASELINE_SAMPLES = 10
    RATE_WINDOW_S = 60.0
    RATE_FACTOR = 3.0           # flag when rate exceeds baseline x factor

    def __init__(self, sim: Simulator,
                 report: Optional[Callable[[SecuritySignal], None]] = None,
                 use_forecaster: bool = True):
        self.sim = sim
        self._report = report or (lambda signal: None)
        self.forecaster = TelemetryForecaster() if use_forecaster else None
        self._sensor_stats: Dict[Tuple[str, str], _RunningStats] = \
            defaultdict(_RunningStats)
        self._message_times: Dict[str, SlidingWindow] = \
            defaultdict(partial(SlidingWindow, self.RATE_WINDOW_S))
        self._baseline_rates: Dict[str, float] = {}
        # Silence detection: per-device last-seen and inter-arrival EMA.
        self._last_seen: Dict[str, float] = {}
        self._gap_ema: Dict[str, float] = {}
        self._message_counts: Dict[str, int] = defaultdict(int)
        self._silence_flagged: set = set()
        self._context_providers: Dict[str, Callable[[], float]] = {}
        # attribute -> (context_name, max_divergence) auto-checked on ingest
        self._context_watches: Dict[str, Tuple[str, float]] = {}
        self.anomalies: List[Tuple[float, str, str]] = []

    # -- telemetry ingestion ----------------------------------------------------
    def ingest_telemetry(self, device_id: str, readings: Dict[str, float]
                         ) -> List[str]:
        """Feed one telemetry sample; returns anomaly kinds raised."""
        raised = []
        now = self.sim.now
        for attribute, value in readings.items():
            stats = self._sensor_stats[(device_id, attribute)]
            if stats.count >= self.MIN_BASELINE_SAMPLES:
                z = abs(stats.zscore(value))
                if z > self.Z_THRESHOLD:
                    raised.append(f"sensor-outlier:{attribute}")
                    self.anomalies.append((now, device_id,
                                           f"sensor-outlier:{attribute}"))
                    self._report(SecuritySignal.make(
                        Layer.SERVICE, SignalType.TELEMETRY_ANOMALY,
                        "security-analytics", device_id, now,
                        severity=Severity.WARNING,
                        attribute=attribute, zscore=round(z, 2), value=value,
                    ))
            stats.update(value)
            if self.forecaster is not None:
                if self.forecaster.observe(device_id, attribute, value):
                    raised.append(f"forecast-deviation:{attribute}")
                    self.anomalies.append(
                        (now, device_id, f"forecast-deviation:{attribute}"))
                    self._report(SecuritySignal.make(
                        Layer.SERVICE, SignalType.TELEMETRY_ANOMALY,
                        "security-analytics", device_id, now,
                        severity=Severity.WARNING,
                        attribute=attribute, kind="forecast-deviation",
                        value=value,
                    ))
            watch = self._context_watches.get(attribute)
            if watch is not None:
                context_name, max_divergence = watch
                if not self.check_context(device_id, attribute, value,
                                          context_name, max_divergence):
                    raised.append(f"context-divergence:{attribute}")
        self._note_message(device_id, raised)
        return raised

    def _note_message(self, device_id: str, raised: List[str]) -> None:
        now = self.sim.now
        previous = self._last_seen.get(device_id)
        if previous is not None and now > previous:
            gap = now - previous
            ema = self._gap_ema.get(device_id)
            self._gap_ema[device_id] = (
                gap if ema is None else 0.8 * ema + 0.2 * gap
            )
        self._last_seen[device_id] = now
        self._message_counts[device_id] += 1
        self._silence_flagged.discard(device_id)  # it spoke again
        times = self._message_times[device_id]
        times.push(now)
        rate = len(times) / self.RATE_WINDOW_S
        baseline = self._baseline_rates.get(device_id)
        if baseline is None:
            # Learn the baseline from the first full window.
            if now >= self.RATE_WINDOW_S and len(times) >= 3:
                self._baseline_rates[device_id] = rate
            return
        if rate > baseline * self.RATE_FACTOR and len(times) >= 6:
            raised.append("keepalive-spike")
            self.anomalies.append((now, device_id, "keepalive-spike"))
            self._report(SecuritySignal.make(
                Layer.SERVICE, SignalType.TELEMETRY_ANOMALY,
                "security-analytics", device_id, now,
                severity=Severity.WARNING,
                kind="keepalive-spike", rate=round(rate, 3),
                baseline=round(baseline, 3),
            ))
            times.clear()

    # -- silence detection ---------------------------------------------------------
    SILENCE_FACTOR = 4.0

    def audit_silence(self) -> List[str]:
        """Devices gone dark: no message for SILENCE_FACTOR x their
        observed cadence.  Catches redirected (MitM) and dead devices —
        the flip side of keep-alive monitoring."""
        now = self.sim.now
        silent = []
        for device_id, last_seen in self._last_seen.items():
            expected_gap = self._gap_ema.get(device_id)
            if expected_gap is None or expected_gap <= 0:
                continue
            if self._message_counts[device_id] < 4:
                continue  # cadence not established yet
            gap = now - last_seen
            if gap > self.SILENCE_FACTOR * expected_gap:
                silent.append(device_id)
                if device_id in self._silence_flagged:
                    continue  # already reported; wait for it to speak
                self._silence_flagged.add(device_id)
                key = (now, device_id, "device-silent")
                self.anomalies.append(key)
                self._report(SecuritySignal.make(
                    Layer.SERVICE, SignalType.TELEMETRY_ANOMALY,
                    "security-analytics", device_id, now,
                    severity=Severity.WARNING,
                    kind="device-silent", silent_for_s=round(gap, 1),
                ))
        return silent

    # -- contextual policy checks ---------------------------------------------------
    def add_context_provider(self, name: str,
                             provider: Callable[[], float]) -> None:
        """E.g. a weather feed: add_context_provider("outdoor_temp", fn)."""
        self._context_providers[name] = provider

    def watch_context(self, attribute: str, context_name: str,
                      max_divergence: float) -> None:
        """Auto-check ``attribute`` readings against a context provider
        on every ingest (e.g. indoor temperature vs. the weather feed)."""
        self._context_watches[attribute] = (context_name, max_divergence)

    def check_context(self, device_id: str, attribute: str, value: float,
                      context_name: str, max_divergence: float) -> bool:
        """Flag when a sensor diverges wildly from third-party context.

        Returns True when the reading is plausible.
        """
        provider = self._context_providers.get(context_name)
        if provider is None:
            return True
        context_value = provider()
        if abs(value - context_value) <= max_divergence:
            return True
        now = self.sim.now
        self.anomalies.append((now, device_id, f"context-divergence:{attribute}"))
        self._report(SecuritySignal.make(
            Layer.SERVICE, SignalType.POLICY_CONTEXT, "security-analytics",
            device_id, now, severity=Severity.WARNING,
            attribute=attribute, value=value,
            context=context_name, context_value=context_value,
        ))
        return False


@register
class SecurityAnalyticsFunction(SecurityFunction):
    """Plugin: streaming telemetry analytics fed from gateway-visible
    traffic (§IV-C.3); runs the silence audit in the periodic loop."""

    layer = Layer.SERVICE
    name = "security-analytics"
    order = 20
    accessor = "analytics"

    def attach(self, host) -> None:
        self._host = host
        self.instance = SecurityAnalytics(host.sim, host.report_for(self.name))

    def link_observer(self):
        return self._observe

    def _observe(self, packet) -> None:
        payload = packet.payload
        if not isinstance(payload, dict) or payload.get("kind") != "telemetry":
            return
        device_id = payload.get("device_id", "")
        # Signals must share one device key across layers or the
        # correlator cannot join them: use the device *name*.
        owner = self._host.device_by_id(device_id)
        device_key = owner.name if owner is not None else device_id
        # Sensor-less devices still produce a message cadence the
        # silence audit needs, so ingest even with empty readings.
        self.instance.ingest_telemetry(device_key, payload.get("readings", {}))

    def periodic_audit(self, now: float) -> None:
        self.instance.audit_silence()
