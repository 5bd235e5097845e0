"""Application verification (paper §IV-C.2).

"Since the state transitions of the devices are dictated by the
commands received from the applications, monitoring and profiling the
state transition patterns could be applied" — the verifier builds the
expected command provenance from the installed apps' rules and flags:

* commands no installed rule explains (hidden commands);
* overprivileged grants (granted minus needed);
* exfiltration flows (app traffic to undeclared endpoints).

The paper insists this runs "on the user end" (gateway), robust to a
compromised cloud — so the verifier consumes the *observable* record
(events seen at the gateway + commands arriving at devices), not the
cloud's own logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.plugin import SecurityFunction, register
from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.service.cloud import CloudPlatform
from repro.service.smartapps import SmartApp, TriggerActionRule
from repro.sim import Simulator
from repro import telemetry as _telemetry


@dataclass
class ObservedCommand:
    timestamp: float
    device_id: str
    command: str


class ApplicationVerifier:
    """Gateway-side integrity checking of automation behaviour."""

    # A command is explained if a matching trigger event happened within
    # this window before it.
    EXPLANATION_WINDOW_S = 30.0

    def __init__(self, sim: Simulator,
                 report: Optional[Callable[[SecuritySignal], None]] = None,
                 display_name: Optional[Callable[[str], str]] = None):
        self.sim = sim
        self._report = report or (lambda signal: None)
        # Maps platform device ids to the device names other layers use,
        # so the correlator can join this layer's signals with theirs.
        self._display_name = display_name or (lambda device_id: device_id)
        self._rules: List[TriggerActionRule] = []
        # (t, (device_id, attribute, value)) for the last ten windows.
        self._recent_events = SlidingWindow(10 * self.EXPLANATION_WINDOW_S)
        self.unexplained: List[ObservedCommand] = []
        self._reported_overprivileged: set = set()
        self._reported_exfil_count = 0

    # -- policy installation -----------------------------------------------------
    def learn_rules(self, apps: List[SmartApp]) -> None:
        for app in apps:
            self._rules.extend(app.rules)

    def note_event(self, device_id: str, attribute: str, value) -> None:
        """Feed events as the gateway observes them going upstream."""
        self._recent_events.push(self.sim.now, (device_id, attribute, value))

    def note_command(self, device_id: str, command: str) -> None:
        """Feed commands as they arrive at devices; verify provenance."""
        observed = ObservedCommand(self.sim.now, device_id, command)
        if not self._explained(observed):
            self.unexplained.append(observed)
            self._report(SecuritySignal.make(
                Layer.SERVICE, SignalType.APP_VIOLATION, "app-verifier",
                self._display_name(device_id), self.sim.now,
                severity=Severity.CRITICAL,
                command=command, reason="no-rule-explains-command",
            ))

    def _explained(self, observed: ObservedCommand) -> bool:
        candidates = [
            rule for rule in self._rules
            if rule.target_device == observed.device_id
            and rule.command == observed.command
        ]
        if not candidates:
            return False
        window_start = observed.timestamp - self.EXPLANATION_WINDOW_S
        for rule in candidates:
            for t, (device_id, attribute, value) in self._recent_events:
                if t < window_start or t > observed.timestamp:
                    continue
                if device_id != rule.trigger_device:
                    continue
                if attribute != rule.trigger_attribute:
                    continue
                try:
                    if rule.predicate(value):
                        return True
                except (TypeError, ValueError, KeyError, AttributeError,
                        ArithmeticError):
                    # App-supplied predicates choke on unexpected event
                    # values all the time; that just fails to explain.
                    continue
                except Exception:
                    if _telemetry.ENABLED:
                        _telemetry.registry().counter(
                            "core.plugin_errors",
                            site="app-verifier.predicate").inc()
                    raise
        return False

    # -- static audits ----------------------------------------------------------
    # Delta tracking so periodic re-audits only signal *new* findings.

    def audit_overprivilege(self, cloud: CloudPlatform) -> Dict[str, List[str]]:
        report = cloud.overprivilege_report()
        for app_name, excess in report.items():
            if app_name in self._reported_overprivileged:
                continue
            self._reported_overprivileged.add(app_name)
            self._report(SecuritySignal.make(
                Layer.SERVICE, SignalType.OVERPRIVILEGE, "app-verifier",
                "", self.sim.now, severity=Severity.WARNING,
                app=app_name, excess=tuple(excess),
            ))
        return report

    def audit_exfiltration(self, cloud: CloudPlatform) -> int:
        count = len(cloud.exfiltration_packets)
        if count > self._reported_exfil_count:
            destinations = sorted({p.dst for p in cloud.exfiltration_packets})
            self._report(SecuritySignal.make(
                Layer.SERVICE, SignalType.EXFILTRATION, "app-verifier",
                "", self.sim.now, severity=Severity.CRITICAL,
                flows=count, destinations=tuple(destinations),
            ))
            self._reported_exfil_count = count
        return count


@register
class AppVerifierFunction(SecurityFunction):
    """Plugin: gateway-side application verification (§IV-C.2).

    The observer feeds the verifier from the *observable* record —
    events and commands the gateway sees on the LAN — and carries the
    event-spoofing provenance check (the claimed device must be the
    actual sender), since provenance is this function's domain.
    """

    layer = Layer.SERVICE
    name = "app-verifier"
    order = 30
    accessor = "app_verifier"

    def attach(self, host) -> None:
        self._host = host

        def display_name(device_id: str) -> str:
            owner = host.device_by_id(device_id)
            return owner.name if owner is not None else device_id

        verifier = ApplicationVerifier(host.sim, host.report_for(self.name),
                                       display_name=display_name)
        verifier.learn_rules(host.cloud.installed_apps())
        self.instance = verifier
        self._report = host.report_for(self.name)

    def link_observer(self):
        return self._observe

    def _observe(self, packet) -> None:
        payload = packet.payload
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        host = self._host
        verifier = self.instance
        if kind == "telemetry":
            device_id = payload.get("device_id", "")
            verifier.note_event(device_id, "state", payload.get("state"))
            for attribute, value in payload.get("readings", {}).items():
                verifier.note_event(device_id, attribute, value)
        elif kind == "event":
            device_id = payload.get("device_id", "")
            verifier.note_event(device_id, payload.get("attribute", ""),
                                payload.get("value"))
            # Spoofing check: the claimed device must be the actual sender.
            owner = host.device_by_id(device_id)
            if owner is not None and packet.src_device != owner.name:
                self._report(SecuritySignal.make(
                    Layer.SERVICE, SignalType.EVENT_SPOOFING,
                    "xlf-gateway", owner.name, host.sim.now,
                    severity=Severity.CRITICAL,
                    claimed_device=device_id,
                    actual_sender=packet.src_device,
                ))
        elif kind == "command":
            device = host.device_at(packet.dst)
            if device is not None and device.device_id:
                verifier.note_command(device.device_id,
                                      payload.get("command", ""))

    def periodic_audit(self, now: float) -> None:
        self.instance.audit_overprivilege(self._host.cloud)
        self.instance.audit_exfiltration(self._host.cloud)
