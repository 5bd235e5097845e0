"""Malicious-activity identification (paper §IV-B.3).

Three detectors over the gateway's view of traffic:

* **DFA behavior profiles** — per device type, the expected state
  machine and expected destinations; traffic inconsistent with the
  profile (new destinations, impossible transitions) is a deviation.
* **Scan detection** — an infected device probing many distinct
  addresses/ports in a short window (Mirai's propagation phase).
* **DDoS detection** — sustained high packet rate from one device to
  one target.

All three raise :class:`SecuritySignal`s; none of them alone proves
infection — that synthesis is the Core's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.plugin import SecurityFunction, register
from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.network.packet import Packet
from repro.sim import Simulator


@dataclass
class DeviceBehaviorProfile:
    """The DFA of a device type's normal behaviour."""

    device_type: str
    states: Tuple[str, ...]
    transitions: Set[Tuple[str, str]]          # allowed (from, to)
    allowed_destinations: Set[str] = field(default_factory=set)
    allowed_ports: Set[int] = field(default_factory=set)
    max_packets_per_minute: float = 600.0

    def transition_allowed(self, from_state: str, to_state: str) -> bool:
        return (from_state, to_state) in self.transitions or from_state == to_state

    @staticmethod
    def from_device_spec(spec, cloud_addresses: Set[str]) -> "DeviceBehaviorProfile":
        """Build the DFA from a DeviceSpec: commands define the edges."""
        transitions = set()
        for command, target in spec.commands.items():
            for state in spec.states:
                transitions.add((state, target))
        return DeviceBehaviorProfile(
            device_type=spec.type_name,
            states=spec.states,
            transitions=transitions,
            allowed_destinations=set(cloud_addresses),
            allowed_ports={8883, 9000, 53, 443, 853},
        )


class MaliciousActivityDetector:
    """Observer over gateway-visible links.

    Each registered device has two exact sliding windows of destination
    addresses (:class:`~repro.core.window.SlidingWindow`): a
    ``SCAN_WINDOW_S`` one whose distinct live destinations are the scan
    measure, and a ``DDOS_WINDOW_S`` one whose length is the packet rate
    and whose largest count is the dominant target.  A DDoS signal needs
    the top target to hold at least 80% of the window, so it is unique
    whenever a signal fires: which of several tied targets ``max`` picks
    never reaches a signal.
    """

    SCAN_WINDOW_S = 30.0
    SCAN_DISTINCT_TARGETS = 8
    DDOS_WINDOW_S = 10.0
    DDOS_PACKETS = 150

    def __init__(self, sim: Simulator,
                 report: Optional[Callable[[SecuritySignal], None]] = None):
        self.sim = sim
        self._report = report or (lambda signal: None)
        self._profiles: Dict[str, DeviceBehaviorProfile] = {}   # device name ->
        # device name -> (scan window, DDoS window), both keyed by dst.
        self._windows: Dict[str, Tuple[SlidingWindow, SlidingWindow]] = {}
        self._last_state: Dict[str, str] = {}
        self._scan_flagged: Dict[str, float] = {}
        self._ddos_flagged: Dict[str, float] = {}
        self._destination_flagged: Dict[Tuple[str, str], float] = {}
        self.DESTINATION_COOLDOWN_S = 60.0

    def register_device(self, device_name: str,
                        profile: DeviceBehaviorProfile) -> None:
        self._profiles[device_name] = profile
        self._last_state[device_name] = profile.states[0] if profile.states else ""
        self._windows.setdefault(device_name, (
            SlidingWindow(self.SCAN_WINDOW_S, counted=True),
            SlidingWindow(self.DDOS_WINDOW_S, counted=True)))

    # -- observer ---------------------------------------------------------------
    def observe(self, packet: Packet) -> None:
        device = packet.src_device
        if device not in self._profiles or packet.is_cover_traffic:
            return
        now = self.sim.now
        scan, ddos = self._windows[device]
        scan.push(now, packet.dst)
        ddos.push(now, packet.dst)
        self._check_destination(device, packet, now)
        self._check_scan(device, scan, now)
        self._check_ddos(device, ddos, now)
        self._check_state_claim(device, packet, now)

    def _check_destination(self, device: str, packet: Packet,
                           now: float) -> None:
        profile = self._profiles[device]
        if not profile.allowed_destinations:
            return
        if packet.dst in profile.allowed_destinations:
            return
        if packet.dst.startswith("10.0.0."):
            return  # LAN chatter judged by scan logic instead
        key = (device, packet.dst)
        last = self._destination_flagged.get(key, -1e18)
        if now - last < self.DESTINATION_COOLDOWN_S:
            return
        self._destination_flagged[key] = now
        self._report(SecuritySignal.make(
            Layer.NETWORK, SignalType.UNKNOWN_DESTINATION,
            "activity-detector", device, now,
            severity=Severity.WARNING, destination=packet.dst,
        ))

    def _check_scan(self, device: str, scan: SlidingWindow,
                    now: float) -> None:
        distinct = len(scan.counts)
        if distinct < self.SCAN_DISTINCT_TARGETS:
            return
        last = self._scan_flagged.get(device, -1e9)
        if now - last < self.SCAN_WINDOW_S:
            return  # one signal per window
        self._scan_flagged[device] = now
        self._report(SecuritySignal.make(
            Layer.NETWORK, SignalType.SCAN_PATTERN, "activity-detector",
            device, now, severity=Severity.CRITICAL,
            distinct_targets=distinct,
        ))

    def _check_ddos(self, device: str, ddos: SlidingWindow,
                    now: float) -> None:
        packets = len(ddos)
        if packets < self.DDOS_PACKETS:
            return
        # The cooldown is tested before the O(targets) dominance scan;
        # neither test has side effects, so their order is free.
        last = self._ddos_flagged.get(device, -1e9)
        if now - last < self.DDOS_WINDOW_S:
            return
        # Dominated by one target?
        top_target, top_count = max(ddos.counts.items(), key=itemgetter(1))
        if top_count < 0.8 * packets:
            return
        self._ddos_flagged[device] = now
        self._report(SecuritySignal.make(
            Layer.NETWORK, SignalType.DDOS_PATTERN, "activity-detector",
            device, now, severity=Severity.CRITICAL,
            target=top_target, packets=top_count,
        ))

    def _check_state_claim(self, device: str, packet: Packet,
                           now: float) -> None:
        """Validate state transitions the device reports against its DFA."""
        payload = packet.payload
        if not isinstance(payload, dict):
            return
        claimed = None
        if payload.get("kind") == "telemetry":
            claimed = payload.get("state")
        elif payload.get("kind") == "event" and payload.get("attribute") == "state":
            claimed = payload.get("value")
        if claimed is None:
            return
        profile = self._profiles[device]
        previous = self._last_state.get(device, "")
        if previous and claimed not in profile.states:
            self._report(SecuritySignal.make(
                Layer.NETWORK, SignalType.BEHAVIOR_DEVIATION,
                "activity-detector", device, now,
                severity=Severity.CRITICAL, state=claimed,
            ))
        elif previous and not profile.transition_allowed(previous, claimed):
            self._report(SecuritySignal.make(
                Layer.NETWORK, SignalType.BEHAVIOR_DEVIATION,
                "activity-detector", device, now,
                severity=Severity.WARNING,
                from_state=previous, to_state=claimed,
            ))
        self._last_state[device] = claimed


@register
class ActivityDetectorFunction(SecurityFunction):
    """Plugin: DFA/scan/DDoS malicious-activity identification (§IV-B.3)."""

    layer = Layer.NETWORK
    name = "activity-detector"
    order = 20
    accessor = "activity_detector"

    def attach(self, host) -> None:
        detector = MaliciousActivityDetector(host.sim,
                                             host.report_for(self.name))
        for device in host.devices:
            profile = DeviceBehaviorProfile.from_device_spec(
                device.spec,
                {device.cloud_address} if device.cloud_address else set(),
            )
            detector.register_device(device.name, profile)
        self.instance = detector

    def link_observer(self):
        return self.instance.observe
