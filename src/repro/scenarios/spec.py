"""Declarative scenario specifications: every experiment as data.

XLF is a *framework* paper, so the reproduction's value scales with how
many adversarial scenarios it can express.  This module is the offense
side of the plugin-host design in :mod:`repro.core.plugin`:

* :class:`AttackRegistry` — decorator registration for every
  :class:`~repro.attacks.base.Attack` subclass, keyed by the attack's
  stable ``name`` and carrying its Fig. 3 ``surface_layers`` and
  Table II row, so scenarios name attacks instead of importing them.
* :class:`ScenarioSpec` — a declarative description of a whole
  experiment: homes (device mix, vulnerability switches, resident
  activity), an attack schedule (registry name + constructor params +
  launch time per home), an optional :class:`~repro.core.XlfConfig`
  defense posture, seed, and duration.  ``to_dict``/``from_dict`` give
  JSON round-trips, so a scenario is a file you can diff, share, and
  re-run (``python -m repro --spec path.json``).
* :func:`run_spec` — the one generic runner: materialises each home,
  installs XLF when configured, schedules registered attacks at their
  launch times, and returns a :class:`ScenarioResult` (per-attack
  :class:`~repro.attacks.base.AttackOutcome`, alerts, features, merged
  telemetry).  Every home is an independent seeded simulator, so the
  runner shards homes across worker processes exactly like the fleet
  runner always did — serial and parallel runs are bit-identical by
  construction, and ``repro.scenarios.fleet``/``parallel`` are now thin
  spec builders over this path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

import numpy as np

if TYPE_CHECKING:  # the attacks package imports this module to register
    from repro.attacks.base import Attack, AttackOutcome

from repro.core.framework import XLF, HomeAloneEvent, XlfConfig
from repro.core.streaming import StreamingConfig
from repro.core.signals import Alert, Layer
from repro.device.device import Vulnerabilities
from repro.faults import FAULTS, FaultError, FaultEvent, FaultInjector, FaultSpec
from repro.network.dns import DnsMode
from repro.network.internet import CrossHomeMessage, WanExchangePort
from repro.scenarios.prototype import PROTOTYPES
from repro.scenarios.smarthome import SmartHomeConfig
from repro.scenarios.workloads import ResidentActivity
from repro.security.network.shaping import ShapingConfig
from repro import telemetry as _telemetry
from repro.telemetry import MetricsRegistry


class SpecError(ValueError):
    """Raised for malformed specs and attack-registry misuse."""


# ---------------------------------------------------------------------------
# Attack registry
# ---------------------------------------------------------------------------

class AttackRegistry:
    """Name-keyed registry of :class:`Attack` classes.

    Mirrors :class:`repro.core.plugin.FunctionRegistry` for the offense
    side: registration is a class decorator that validates the Table II
    metadata, and lookups are by the attack's stable kebab-case name.
    Iteration order is alphabetical by name — deterministic, never an
    import accident.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, Type["Attack"]] = {}

    # -- registration ------------------------------------------------------
    def register(self, cls: Type["Attack"]) -> Type["Attack"]:
        """Class decorator: ``@register_attack`` on each Attack subclass."""
        name = getattr(cls, "name", "")
        if not name or name == "abstract-attack":
            raise SpecError(f"{cls.__name__} declares no attack name")
        if not getattr(cls, "surface_layers", ()):
            raise SpecError(f"{cls.__name__} declares no surface_layers")
        row = getattr(cls, "table_ii_row", ("", "", ""))
        if len(row) != 3 or not all(row):
            raise SpecError(
                f"{cls.__name__} has an incomplete table_ii_row: {row!r}")
        existing = self._classes.get(name)
        if existing is not None and existing is not cls:
            raise SpecError(f"attack name {name!r} already registered by "
                            f"{existing.__name__}")
        self._classes[name] = cls
        return cls

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> Type[Attack]:
        load_builtin_attacks()
        try:
            return self._classes[name]
        except KeyError:
            raise SpecError(
                f"unknown attack {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}") from None

    def create(self, name: str, home, **params) -> Attack:
        """Instantiate a registered attack with its spec params."""
        cls = self.get(name)
        try:
            return cls(home, **params)
        except TypeError as exc:
            raise SpecError(f"bad params for attack {name!r}: {exc}") from exc

    def ordered(self) -> List[Type[Attack]]:
        load_builtin_attacks()
        return [self._classes[name] for name in sorted(self._classes)]

    def names(self) -> List[str]:
        return [cls.name for cls in self.ordered()]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)


ATTACKS = AttackRegistry()
register_attack = ATTACKS.register

_builtins_loaded = False


def load_builtin_attacks() -> AttackRegistry:
    """Import :mod:`repro.attacks` so every ``@register_attack`` runs.

    Idempotent; the package ``__init__`` is the closed list of shipped
    attack modules, so one import registers the whole adversary suite.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.attacks  # noqa: F401  (registration side effects)
    return ATTACKS


# ---------------------------------------------------------------------------
# Spec dataclasses
# ---------------------------------------------------------------------------

_VULN_FLAGS = tuple(Vulnerabilities.__dataclass_fields__)


@dataclass
class DeviceEntry:
    """One device in a home: its type plus switched-on vulnerabilities."""

    type: str
    vulnerabilities: Tuple[str, ...] = ()

    def build(self) -> Tuple[str, Vulnerabilities]:
        unknown = set(self.vulnerabilities) - set(_VULN_FLAGS)
        if unknown:
            raise SpecError(f"unknown vulnerability flags {sorted(unknown)}; "
                            f"valid: {list(_VULN_FLAGS)}")
        return self.type, Vulnerabilities(
            **{flag: True for flag in self.vulnerabilities})


@dataclass
class HomeSpec:
    """One home's world: device mix, cloud posture, resident activity."""

    # None = the standard eight-device default home.
    devices: Optional[List[DeviceEntry]] = None
    dns_mode: str = DnsMode.PLAIN.value
    cloud_coarse_grants: bool = False
    cloud_verify_event_integrity: bool = True
    cloud_protect_sensitive: bool = True
    # Benign resident workload (what gives detectors true negatives).
    activity: bool = False
    activity_interval_s: float = 60.0
    activity_rng: Optional[str] = None   # None = ResidentActivity default

    def spec_hash(self) -> str:
        """Canonical content hash of this home spec.

        Computed over the sorted-key JSON of :func:`_home_to_dict`, so
        it is stable across dict key order, attribute assignment order,
        and process restarts — two ``HomeSpec``s hash equal iff they
        describe the same home.
        """
        return _canonical_hash(_home_to_dict(self))

    def topology_hash(self) -> str:
        """Hash of only the fields :meth:`build_config` consumes — the
        static world :class:`~repro.scenarios.smarthome.SmartHome`
        constructs.  Resident-activity settings are excluded: they act
        at run time, after the prototype clone point, so homes that
        differ only in activity share a topology and therefore share a
        prototype (:mod:`repro.scenarios.prototype` keys its cache by
        this, not by :meth:`spec_hash`)."""
        data = _home_to_dict(self)
        for runtime_key in ("activity", "activity_interval_s",
                            "activity_rng"):
            data.pop(runtime_key, None)
        return _canonical_hash(data)

    def build_config(self, seed: int) -> SmartHomeConfig:
        devices = None
        if self.devices is not None:
            devices = [entry.build() for entry in self.devices]
        try:
            mode = DnsMode(self.dns_mode)
        except ValueError:
            raise SpecError(
                f"unknown dns_mode {self.dns_mode!r}; valid: "
                f"{[m.value for m in DnsMode]}") from None
        return SmartHomeConfig(
            devices=devices,
            seed=seed,
            dns_mode=mode,
            cloud_coarse_grants=self.cloud_coarse_grants,
            cloud_verify_event_integrity=self.cloud_verify_event_integrity,
            cloud_protect_sensitive=self.cloud_protect_sensitive,
        )


@dataclass
class AttackSpec:
    """One scheduled attack: registry name, target home, launch time."""

    attack: str
    home: int = 0
    at: float = 0.0                       # seconds after warmup
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ScenarioSpec:
    """A whole experiment, as data."""

    name: str = "scenario"
    homes: List[HomeSpec] = field(default_factory=lambda: [HomeSpec()])
    attacks: List[AttackSpec] = field(default_factory=list)
    # Deterministic fault schedule (see repro.faults); [] = healthy world.
    faults: List[FaultSpec] = field(default_factory=list)
    # None = undefended world; otherwise the defense posture installed
    # on every home (layer toggles, shaping, disabled functions, ...).
    xlf: Optional[XlfConfig] = None
    seed: int = 0                          # home i simulates with seed + i
    warmup_s: float = 5.0                  # DNS resolution + cloud pairing
    duration_s: float = 300.0              # simulated seconds after warmup
    # Lockstep-epoch length for cross-home exchange (simulated seconds).
    # Only consulted when the spec schedules a cross-home attack across
    # multiple homes; single-home specs stay on the no-epoch fast path.
    epoch_s: float = 30.0
    collect_features: bool = False         # fleet-style behaviour vectors

    def spec_hash(self) -> str:
        """Canonical content hash of the whole experiment (homes,
        attacks, faults, defense posture, seed, durations).  Stable
        across dict key order; equal iff the scenarios are equal."""
        return _canonical_hash(self.to_dict())

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "homes": [_home_to_dict(home) for home in self.homes],
            "attacks": [_attack_to_dict(attack) for attack in self.attacks],
            "faults": [fault.to_dict() for fault in self.faults],
            "xlf": _xlf_to_dict(self.xlf) if self.xlf is not None else None,
            "seed": self.seed,
            "warmup_s": self.warmup_s,
            "duration_s": self.duration_s,
            "epoch_s": self.epoch_s,
            "collect_features": self.collect_features,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
        data = _take("scenario", data, {
            "name", "homes", "attacks", "faults", "xlf", "seed", "warmup_s",
            "duration_s", "epoch_s", "collect_features"})
        spec = ScenarioSpec(
            name=data.get("name", "scenario"),
            homes=[_home_from_dict(h) for h in data.get("homes", [{}])],
            attacks=[_attack_from_dict(a) for a in data.get("attacks", [])],
            faults=[_fault_from_dict(f) for f in data.get("faults", [])],
            xlf=(_xlf_from_dict(data["xlf"])
                 if data.get("xlf") is not None else None),
            seed=int(data.get("seed", 0)),
            warmup_s=float(data.get("warmup_s", 5.0)),
            duration_s=float(data.get("duration_s", 300.0)),
            epoch_s=float(data.get("epoch_s", 30.0)),
            collect_features=bool(data.get("collect_features", False)),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        if not self.homes:
            raise SpecError("a scenario needs at least one home")
        if self.duration_s <= 0:
            raise SpecError("duration_s must be > 0")
        if self.epoch_s <= 0:
            raise SpecError("epoch_s must be > 0")
        for attack in self.attacks:
            if not 0 <= attack.home < len(self.homes):
                raise SpecError(
                    f"attack {attack.attack!r} targets home {attack.home}, "
                    f"but the scenario has {len(self.homes)} home(s)")
            if attack.at < 0:
                raise SpecError(
                    f"attack {attack.attack!r} has a negative launch time")
            ATTACKS.get(attack.attack)   # raises SpecError on unknown names
        for fault in self.faults:
            if not 0 <= fault.home < len(self.homes):
                raise SpecError(
                    f"fault {fault.fault!r} targets home {fault.home}, "
                    f"but the scenario has {len(self.homes)} home(s)")
            if fault.at < 0:
                raise SpecError(
                    f"fault {fault.fault!r} has a negative injection time")
            if fault.duration_s <= 0:
                raise SpecError(
                    f"fault {fault.fault!r} needs a positive duration_s")
            try:
                FAULTS.get(fault.fault).validate_params(fault.params)
            except FaultError as exc:
                raise SpecError(str(exc)) from None


def _canonical_hash(data: Dict[str, Any]) -> str:
    """sha256 of the canonical (sorted-key, tight-separator) JSON form."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _take(kind: str, data: Dict[str, Any], allowed: Set[str]) -> Dict[str, Any]:
    unknown = set(data) - allowed
    if unknown:
        raise SpecError(f"unknown {kind} keys {sorted(unknown)}; "
                        f"valid: {sorted(allowed)}")
    return data


def _home_to_dict(home: HomeSpec) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    if home.devices is not None:
        out["devices"] = [
            {"type": entry.type,
             "vulnerabilities": list(entry.vulnerabilities)}
            for entry in home.devices
        ]
    out.update(
        dns_mode=home.dns_mode,
        cloud_coarse_grants=home.cloud_coarse_grants,
        cloud_verify_event_integrity=home.cloud_verify_event_integrity,
        cloud_protect_sensitive=home.cloud_protect_sensitive,
        activity=home.activity,
        activity_interval_s=home.activity_interval_s,
    )
    if home.activity_rng is not None:
        out["activity_rng"] = home.activity_rng
    return out


def _home_from_dict(data: Dict[str, Any]) -> HomeSpec:
    data = _take("home", data, {
        "devices", "dns_mode", "cloud_coarse_grants",
        "cloud_verify_event_integrity", "cloud_protect_sensitive",
        "activity", "activity_interval_s", "activity_rng"})
    devices = None
    if data.get("devices") is not None:
        devices = []
        for entry in data["devices"]:
            entry = _take("device", dict(entry), {"type", "vulnerabilities"})
            if "type" not in entry:
                raise SpecError("device entry missing 'type'")
            devices.append(DeviceEntry(
                type=entry["type"],
                vulnerabilities=tuple(entry.get("vulnerabilities", ()))))
    return HomeSpec(
        devices=devices,
        dns_mode=data.get("dns_mode", DnsMode.PLAIN.value),
        cloud_coarse_grants=bool(data.get("cloud_coarse_grants", False)),
        cloud_verify_event_integrity=bool(
            data.get("cloud_verify_event_integrity", True)),
        cloud_protect_sensitive=bool(
            data.get("cloud_protect_sensitive", True)),
        activity=bool(data.get("activity", False)),
        activity_interval_s=float(data.get("activity_interval_s", 60.0)),
        activity_rng=data.get("activity_rng"),
    )


def _attack_to_dict(attack: AttackSpec) -> Dict[str, Any]:
    out: Dict[str, Any] = {"attack": attack.attack, "home": attack.home,
                           "at": attack.at}
    if attack.params:
        out["params"] = dict(attack.params)
    return out


def _attack_from_dict(data: Dict[str, Any]) -> AttackSpec:
    data = _take("attack", data, {"attack", "home", "at", "params"})
    if "attack" not in data:
        raise SpecError("attack entry missing 'attack' (the registry name)")
    return AttackSpec(
        attack=data["attack"],
        home=int(data.get("home", 0)),
        at=float(data.get("at", 0.0)),
        params=dict(data.get("params", {})),
    )


def _fault_from_dict(data: Dict[str, Any]) -> FaultSpec:
    try:
        return FaultSpec.from_dict(data)
    except FaultError as exc:
        # Keep SpecError the one user-facing spec-parsing exception.
        raise SpecError(str(exc)) from None


def _xlf_to_dict(config: XlfConfig) -> Dict[str, Any]:
    out = {
        "enable_device_layer": config.enable_device_layer,
        "enable_network_layer": config.enable_network_layer,
        "enable_service_layer": config.enable_service_layer,
        "cross_layer": config.cross_layer,
        "single_layer": (config.single_layer.value
                         if config.single_layer is not None else None),
        "shaping": {
            "max_delay_s": config.shaping.max_delay_s,
            "cover_traffic_rate": config.shaping.cover_traffic_rate,
            "pad_to_bytes": config.shaping.pad_to_bytes,
        },
        "monitor_token_key_hex": (config.monitor_token_key.hex()
                                  if config.monitor_token_key is not None
                                  else None),
        "block_matched_traffic": config.block_matched_traffic,
        "audit_interval_s": config.audit_interval_s,
        "disabled_functions": list(config.disabled_functions),
        "enable_response": config.enable_response,
        "home_alone": config.home_alone,
    }
    # Omitted when None (like HomeSpec.activity_rng): pre-streaming spec
    # files remain in canonical form unchanged.
    if config.streaming is not None:
        out["streaming"] = config.streaming.to_dict()
    return out


def _xlf_from_dict(data: Dict[str, Any]) -> XlfConfig:
    data = _take("xlf", data, {
        "enable_device_layer", "enable_network_layer", "enable_service_layer",
        "cross_layer", "single_layer", "shaping", "monitor_token_key_hex",
        "block_matched_traffic", "audit_interval_s", "disabled_functions",
        "enable_response", "home_alone", "streaming"})
    defaults = XlfConfig()
    streaming = None
    if data.get("streaming") is not None:
        try:
            streaming = StreamingConfig.from_dict(dict(data["streaming"]))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    single = data.get("single_layer")
    shaping_data = _take("shaping", dict(data.get("shaping", {})),
                         {"max_delay_s", "cover_traffic_rate", "pad_to_bytes"})
    key_hex = data.get("monitor_token_key_hex",
                       defaults.monitor_token_key.hex()
                       if defaults.monitor_token_key is not None else None)
    return XlfConfig(
        enable_device_layer=bool(data.get("enable_device_layer", True)),
        enable_network_layer=bool(data.get("enable_network_layer", True)),
        enable_service_layer=bool(data.get("enable_service_layer", True)),
        cross_layer=bool(data.get("cross_layer", True)),
        single_layer=Layer(single) if single is not None else None,
        shaping=ShapingConfig(
            max_delay_s=float(shaping_data.get("max_delay_s", 0.0)),
            cover_traffic_rate=float(
                shaping_data.get("cover_traffic_rate", 0.0)),
            pad_to_bytes=int(shaping_data.get("pad_to_bytes", 0)),
        ),
        monitor_token_key=(bytes.fromhex(key_hex)
                           if key_hex is not None else None),
        block_matched_traffic=bool(data.get("block_matched_traffic", True)),
        audit_interval_s=float(data.get("audit_interval_s",
                                        defaults.audit_interval_s)),
        disabled_functions=tuple(data.get("disabled_functions", ())),
        enable_response=bool(data.get("enable_response", False)),
        home_alone=bool(data.get("home_alone", True)),
        streaming=streaming,
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class HomeRunResult:
    """One home's full run: the pickleable unit of work that both the
    serial and parallel paths execute (what makes them bit-identical)."""

    home_index: int
    features: Dict[str, List[float]]       # "home03/camera-1" -> vector
    device_types: Dict[str, str]
    infected: Set[str]
    # (index into spec.attacks, outcome) for every attack that launched.
    outcomes: List[Tuple[int, AttackOutcome]]
    alerts: List[Alert]
    # Registry snapshot when telemetry was enabled (plain data, so a
    # forked worker ships it back with the observations).
    telemetry: Optional[dict] = None
    # Injection/recovery records from this home's fault schedule.
    fault_events: List[FaultEvent] = field(default_factory=list)
    # Gateway-local autonomy windows (cloud-outage home-alone posture).
    home_alone_events: List[HomeAloneEvent] = field(default_factory=list)
    # Set by run_spec when this home's worker died and the home was
    # re-run serially: the observations are complete, the flag records
    # the degraded execution path.
    degraded: bool = False
    # Wall-clock seconds per stage: "build_s" (world materialisation,
    # XLF install, attack/fault scheduling), "run_s" (event loop, warmup
    # included), "featurize_s" (feature-vector assembly).
    timings: Dict[str, float] = field(default_factory=dict)
    # Whether the world came from the prototype cache's clone path
    # (False = fresh per-home build).
    cloned: bool = False


@dataclass
class ScenarioResult:
    """What :func:`run_spec` observed, merged across homes in home order."""

    spec: ScenarioSpec
    features: Dict[str, List[float]]
    device_types: Dict[str, str]
    infected: Set[str]
    # Aligned with ``spec.attacks``; None = never launched (sim ended
    # before the attack's scheduled time).
    outcomes: List[Optional[AttackOutcome]]
    alerts: List[Alert]
    homes: List[HomeRunResult] = field(default_factory=list)
    # Merged telemetry (None unless repro.telemetry was enabled).
    telemetry: Optional[MetricsRegistry] = None
    # Fault injections/recoveries, merged in home order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    # Homes whose parallel worker died and were retried serially.
    degraded_homes: List[int] = field(default_factory=list)
    # Home-alone windows, merged in home order.
    home_alone_events: List[HomeAloneEvent] = field(default_factory=list)

    FEATURE_NAMES = (
        "packets_per_min",
        "mean_packet_size",
        "distinct_remotes",
        "events_per_min",
        "telemetry_per_min",
    )

    def compromised_devices(self) -> Set[str]:
        """Union of every launched attack's ground truth.

        On multi-home specs every name is home-qualified, as in
        :attr:`infected` (``home03/camera-1``): a single-home attack's
        names get its :attr:`AttackSpec.home` prefix, and names that
        already carry one (cross-home attacks) are kept as they are.
        """
        multi_home = len(self.spec.homes) > 1
        truth: Set[str] = set()
        for attack, outcome in zip(self.spec.attacks, self.outcomes):
            if outcome is None:
                continue
            if not multi_home:
                truth |= outcome.compromised_devices
                continue
            truth |= {name if "/" in name else f"home{attack.home:02d}/{name}"
                      for name in outcome.compromised_devices}
        return truth

    def detected_devices(self) -> Set[str]:
        """Devices some alert names; home-qualified by the alerting
        home on multi-home specs, comparable with
        :meth:`compromised_devices`."""
        if len(self.spec.homes) <= 1:
            return {alert.device for alert in self.alerts if alert.device}
        return {f"home{home.home_index:02d}/{alert.device}"
                for home in self.homes for alert in home.alerts
                if alert.device}

    def detection_latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Detection latency (first contributing signal -> alert) per
        home plus a fleetwide row, as {count, median_s, p95_s}.

        Nearest-rank percentiles over the raw latencies: deterministic,
        interpolation-free, so the summary is part of the observations
        identity contract.  Homes (and fleets) without latency-bearing
        alerts are omitted.
        """
        summary: Dict[str, Dict[str, float]] = {}
        fleet: List[float] = []
        for home in self.homes:
            values = sorted(
                latency for latency in
                (alert.detection_latency_s for alert in home.alerts)
                if latency is not None)
            if not values:
                continue
            fleet.extend(values)
            summary[f"home{home.home_index:02d}"] = _latency_stats(values)
        if fleet:
            summary["fleet"] = _latency_stats(sorted(fleet))
        return summary


def _latency_stats(values: List[float]) -> Dict[str, float]:
    """Nearest-rank stats over an ascending latency list.  Integer
    percents keep the ceiling exact (0.95 * 20 is 19.000...004 in
    floats, which would misrank)."""

    def rank(percent: int) -> float:
        return values[max(-(-percent * len(values) // 100) - 1, 0)]

    return {"count": len(values), "median_s": rank(50), "p95_s": rank(95)}


# ---------------------------------------------------------------------------
# The generic runner
# ---------------------------------------------------------------------------

class _HomeExecution:
    """One home's live run, phase-split so the one-shot fast path and
    the lockstep-epoch engine (:mod:`repro.scenarios.exchange`) drive
    the *same* build/schedule/run/featurize code.

    The fast path calls ``__init__`` → :meth:`arm` → one big
    :meth:`advance` → :meth:`finish`; the epoch engine interleaves many
    bounded ``advance`` calls with exchange deliveries.  The operation
    order inside each phase is exactly the pre-split ``_simulate_home``
    body, which is what keeps single-home results byte-identical across
    the refactor.

    ``registry`` (optional) is a home-local telemetry registry swapped
    in around every phase — the epoch engine passes one per home so
    interleaved homes cannot cross-contaminate; the fast path leaves it
    ``None`` because :func:`run_home` swaps the registry around the
    whole execution instead.
    """

    def __init__(self, spec: ScenarioSpec, index: int,
                 port: Optional[WanExchangePort] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.spec = spec
        self.index = index
        self.port = port
        self._registry = registry
        self._launched: List[Tuple[int, "Attack"]] = []
        self._xlf: Optional[XLF] = None
        self._injector: Optional[FaultInjector] = None
        self._build_s = 0.0
        self._run_s = 0.0
        with self._recording():
            self._build()

    def _recording(self):
        """Swap in the home-local registry for the duration of a phase."""
        return _telemetry.scoped_registry(self._registry) \
            if self._registry is not None else _noop_context()

    # -- phase 1: materialise the world ------------------------------------
    def _build(self) -> None:
        spec, index = self.spec, self.index
        home_spec = spec.homes[index]
        stage_start = time.perf_counter()
        clones_before = PROTOTYPES.clones
        self.home = PROTOTYPES.materialise(home_spec, spec.seed + index)
        self.cloned = PROTOTYPES.clones > clones_before
        # The exchange port rides on the home so attacks (and any other
        # fleet-aware actor) can reach it without engine plumbing.  A
        # single-home cross-home attack gets a solo port so its tick
        # pacing still follows the spec's epoch_s.
        if self.port is None and any(
                ATTACKS.get(a.attack).cross_home and a.home == index
                for a in spec.attacks):
            self.port = WanExchangePort(index, len(spec.homes), spec.epoch_s)
        self.home.fleet = self.port

        # Accumulate running (count, size sum, remotes) per device
        # instead of capturing every packet: the features only need the
        # aggregates, and long runs stay O(devices) in memory rather
        # than O(packets).
        self._packet_counts: Dict[str, int] = {}
        self._size_sums: Dict[str, int] = {}
        self._remotes: Dict[str, Set[str]] = {}
        if spec.collect_features:
            packet_counts = self._packet_counts
            size_sums = self._size_sums
            remotes = self._remotes

            def observe(packet) -> None:
                device = packet.src_device
                if not device:
                    return
                packet_counts[device] = packet_counts.get(device, 0) + 1
                size_sums[device] = (size_sums.get(device, 0)
                                     + packet.size_bytes)
                remotes.setdefault(device, set()).add(packet.dst)

            for link in self.home.all_lan_links:
                link.add_observer(observe)
        self._build_s = time.perf_counter() - stage_start

    # -- phase 2: warmup + defense + schedule ------------------------------
    def arm(self) -> None:
        """Run the warmup, install XLF, start activity, schedule the
        home's attacks and faults.  Must be called exactly once."""
        with self._recording():
            self._arm()

    def _arm(self) -> None:
        spec, index, home = self.spec, self.index, self.home
        home_spec = spec.homes[index]
        stage_start = time.perf_counter()
        home.run(spec.warmup_s)
        self._run_s += time.perf_counter() - stage_start
        stage_start = time.perf_counter()

        if spec.xlf is not None:
            # A shallow copy: the host mutates its config (runtime
            # function toggles), and a spec must be reusable across runs.
            self._xlf = XLF(home.sim, home.gateway, home.cloud,
                            home.devices, home.all_lan_links,
                            replace(spec.xlf))
            self._xlf.refresh_allowlists()

        if home_spec.activity:
            activity = ResidentActivity(
                home, **({"rng_name": home_spec.activity_rng}
                         if home_spec.activity_rng is not None else {}))
            activity.start(
                mean_action_interval_s=home_spec.activity_interval_s)

        # Schedule this home's attacks.  At each launch time the whole
        # group is constructed first (in spec order), then launched (in
        # spec order) — construction allocates addresses and nodes, so
        # the two passes keep the event sequence identical to the
        # bespoke "build all, then launch all" experiment scripts this
        # replaced.  Cross-home attacks are due in *every* home of a
        # multi-home fleet: the AttackSpec's home becomes the origin.
        launched = self._launched

        def launch_group(group: List[Tuple[int, AttackSpec]]) -> None:
            built = [(i, a, ATTACKS.create(a.attack, home, **a.params))
                     for i, a in group]
            for i, attack_spec, attack in built:
                attack.origin_home = attack_spec.home
                attack.launch()
                launched.append((i, attack))

        fleet_wide = self.port is not None and self.port.n_homes > 1
        due = [(i, a) for i, a in enumerate(spec.attacks)
               if a.home == index
               or (fleet_wide and ATTACKS.get(a.attack).cross_home)]
        groups: Dict[float, List[Tuple[int, AttackSpec]]] = {}
        for i, attack_spec in due:
            groups.setdefault(attack_spec.at, []).append((i, attack_spec))
        for at in sorted(groups):
            if at <= 0.0:
                launch_group(groups[at])
            elif at < spec.duration_s:
                home.sim.call_in(at, lambda g=groups[at]: launch_group(g))

        # Schedule this home's faults (after attacks, so the attack
        # event sequence of fault-free specs is untouched).  Target
        # draws happen here, in spec order, from the home's seeded
        # "faults" stream.
        due_faults = [(i, f) for i, f in enumerate(spec.faults)
                      if f.home == index]
        if due_faults:
            self._injector = FaultInjector(home, self._xlf,
                                           home_index=index)
            for i, fault_spec in due_faults:
                self._injector.schedule(i, fault_spec, spec.duration_s)
        self._build_s += time.perf_counter() - stage_start

    # -- phase 3: advance the event loop -----------------------------------
    def advance(self, until: float) -> None:
        """Run the home's simulator up to ``until`` (absolute sim time)."""
        with self._recording():
            stage_start = time.perf_counter()
            self.home.run(until)
            self._run_s += time.perf_counter() - stage_start

    # -- exchange hooks (epoch engine only) --------------------------------
    def deliver(self, message: CrossHomeMessage) -> None:
        """Inject one routed cross-home message at an epoch boundary."""
        with self._recording():
            self.port.deliver(message)

    def drain(self, epoch: int) -> List[CrossHomeMessage]:
        return self.port.drain(epoch) if self.port is not None else []

    def infected_count(self) -> int:
        return sum(1 for device in self.home.devices if device.infected)

    # -- phase 4: featurize + outcomes -------------------------------------
    def finish(self) -> Tuple[HomeRunResult, float]:
        """Assemble the :class:`HomeRunResult`; returns it with the
        home's final simulated time (for the ``fleet.home`` span)."""
        with self._recording():
            return self._finish()

    def _finish(self) -> Tuple[HomeRunResult, float]:
        spec, index, home = self.spec, self.index, self.home
        stage_start = time.perf_counter()
        result = HomeRunResult(home_index=index, features={},
                               device_types={}, infected=set(),
                               outcomes=[], alerts=[], cloned=self.cloned)
        minutes = spec.duration_s / 60.0
        if spec.collect_features:
            # One vectorized pass over the per-device aggregates.
            # float64 division of integers below 2**53 is exactly
            # Python's int/int true division, so these vectors are
            # byte-identical to the per-device loop they replace.
            names = [device.name for device in home.devices]
            counts = np.array([self._packet_counts.get(n, 0)
                               for n in names], dtype=np.float64)
            sizes = np.array([self._size_sums.get(n, 0) for n in names],
                             dtype=np.float64)
            mean_size = np.divide(sizes, counts, out=np.zeros_like(sizes),
                                  where=counts > 0)
            matrix = np.stack([
                counts / minutes,
                mean_size,
                np.array([len(self._remotes.get(n, ())) for n in names],
                         dtype=np.float64),
                np.array([device.events_emitted
                          for device in home.devices],
                         dtype=np.float64) / minutes,
                np.array([device.telemetry_sent
                          for device in home.devices],
                         dtype=np.float64) / minutes,
            ], axis=1)
            for name, row in zip(names, matrix):
                result.features[f"home{index:02d}/{name}"] = row.tolist()
        for device in home.devices:
            name = f"home{index:02d}/{device.name}"
            result.device_types[name] = device.spec.type_name
            if device.infected:
                result.infected.add(name)
        result.outcomes = [(i, attack.outcome())
                           for i, attack in self._launched]
        result.timings = {
            "build_s": self._build_s, "run_s": self._run_s,
            "featurize_s": time.perf_counter() - stage_start}
        if self._xlf is not None:
            result.alerts = list(self._xlf.alerts)
            result.home_alone_events = [
                replace(window, home=index)
                for window in self._xlf.home_alone_events]
        if self._injector is not None:
            result.fault_events = list(self._injector.events)
        return result, home.sim.now


class _noop_context:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _simulate_home(spec: ScenarioSpec, index: int):
    """Build and run one home of the spec; returns (result, end sim time).

    Deterministic given its arguments — the home's simulator is seeded
    from ``spec.seed + index`` and nothing else — so it produces the
    same result whether it runs in-process or in a forked worker.
    """
    execution = _HomeExecution(spec, index)
    execution.arm()
    execution.advance(spec.warmup_s + spec.duration_s)
    return execution.finish()


def _finalise_home_telemetry(result: HomeRunResult,
                             local: MetricsRegistry,
                             end_time: float) -> None:
    """Attach a home-local registry snapshot to its result (shared by
    the fast path and the epoch engine, so both record the same
    per-home fleet counters)."""
    local.record_span("fleet.home", 0.0, end_time)
    local.counter("fleet.homes").inc()
    local.counter("fleet.devices_featurised").inc(len(result.features))
    result.telemetry = local.snapshot()


def run_home(spec: ScenarioSpec, index: int) -> HomeRunResult:
    """Run one home, recording into a home-local telemetry registry.

    With telemetry on, each home records into its own fresh registry
    (swapped in for the duration of the run) and ships the snapshot
    back with the result.  Worker-local registries merged in home order
    are what make serial and parallel telemetry identical: both paths
    see the same per-home snapshots and fold them in the same order.
    """
    local = None
    if _telemetry.ENABLED:
        local = MetricsRegistry()
        previous = _telemetry.set_registry(local)
    try:
        result, end_time = _simulate_home(spec, index)
    finally:
        if local is not None:
            _telemetry.set_registry(previous)
    if local is not None:
        _finalise_home_telemetry(result, local, end_time)
    return result


# Test seam: called in the worker process before simulating a home.
# Resilience tests monkeypatch this (the patch rides into workers via
# fork) to kill a worker mid-fleet; the serial retry path bypasses it.
def _worker_crash_hook(index: int) -> None:
    return None


def _home_task(args: Tuple[ScenarioSpec, int]) -> HomeRunResult:
    spec, index = args
    _worker_crash_hook(index)
    return run_home(spec, index)


def fork_available() -> bool:
    """Whether this platform can start workers by forking (Linux/macOS
    CPython; not Windows, not some sandboxes)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _cross_home_indices(spec: ScenarioSpec) -> Set[int]:
    """Indices into ``spec.attacks`` whose attack class is cross-home."""
    return {i for i, a in enumerate(spec.attacks)
            if ATTACKS.get(a.attack).cross_home}


def _merge_cross_outcome(acc: "AttackOutcome",
                         new: "AttackOutcome") -> "AttackOutcome":
    """Union two homes' outcomes of the same cross-home attack.

    Cross-home attacks prefix compromised-device names and key their
    details per home (``home03`` → {...}), so unions are lossless; a
    fresh object is returned so per-home outcomes inside
    :attr:`ScenarioResult.homes` stay untouched."""
    from repro.attacks.base import AttackOutcome
    return AttackOutcome(
        succeeded=acc.succeeded or new.succeeded,
        compromised_devices=(set(acc.compromised_devices)
                             | new.compromised_devices),
        details={**acc.details, **new.details},
    )


def _merge_home(result: ScenarioResult, home: HomeRunResult,
                outcomes: Dict[int, AttackOutcome],
                cross_indices: Set[int] = frozenset()) -> None:
    """Fold one home's run into ``result`` (call in home order so dict
    iteration order matches the serial path exactly)."""
    result.homes.append(home)
    result.features.update(home.features)
    result.device_types.update(home.device_types)
    result.infected.update(home.infected)
    result.alerts.extend(home.alerts)
    result.fault_events.extend(home.fault_events)
    result.home_alone_events.extend(home.home_alone_events)
    if home.degraded:
        result.degraded_homes.append(home.home_index)
    for index, outcome in home.outcomes:
        if index in cross_indices and index in outcomes:
            outcomes[index] = _merge_cross_outcome(outcomes[index], outcome)
        else:
            outcomes[index] = outcome
    if home.telemetry is not None:
        if result.telemetry is None:
            result.telemetry = MetricsRegistry()
        # Tag every merged span with its home so traces keep per-home
        # lanes; counters stay unlabeled so they sum to fleet totals.
        result.telemetry.merge_snapshot(
            home.telemetry,
            extra_span_labels=(("home", f"{home.home_index:02d}"),))


def _retry_home_serially(spec: ScenarioSpec, index: int,
                         max_retries: int, backoff_s: float) -> HomeRunResult:
    """Re-run a home whose worker died, in-process, with bounded
    exponential wall-time backoff between attempts.

    Retry accounting goes to the *parent* process registry, never the
    home-local one, so a crash-free parallel run stays byte-identical
    to serial.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(max_retries):
        if attempt:
            time.sleep(backoff_s * (2 ** (attempt - 1)))
        if _telemetry.ENABLED:
            _telemetry.registry().counter(
                "fleet.home_retries", home=f"{index:02d}").inc()
        try:
            return run_home(spec, index)
        except Exception as exc:
            last_error = exc
    raise SpecError(
        f"home {index} failed after {max_retries} serial retries"
    ) from last_error


def run_spec(spec: ScenarioSpec,
             workers: Optional[int] = 1,
             max_home_retries: int = 3,
             retry_backoff_s: float = 0.05,
             on_home: Optional[Callable[[HomeRunResult], None]] = None,
             on_epoch: Optional[Callable[[Optional[int], int], None]] = None,
             journal=None,
             ) -> ScenarioResult:
    """Materialise and run a :class:`ScenarioSpec`.

    ``workers=1`` (the default) runs homes serially in-process;
    ``workers=None`` uses the machine's CPU count; any value above one
    shards homes across forked worker processes.  The merged result is
    bit-identical across all three: per-home work is seeded and
    self-contained, and observations merge in home-index order
    regardless of which worker finishes first.

    Execution is supervised (:mod:`repro.runtime`): every path — this
    serial/parallel fast path and the lockstep exchange engine — runs
    its homes as actors under a :class:`~repro.runtime.actors.Supervisor`
    whose event bus feeds the optional **journal**.  Pass ``journal=``
    a path (or an open :class:`~repro.runtime.journal.Journal`) to
    record an append-only JSONL event log — actor lifecycle, epoch
    boundaries, WAN batches, alerts, faults, home-alone windows — that
    ``python -m repro replay <journal>`` can re-execute and verify
    byte-identically.  Journaling never changes the observations
    (epoch-chunked advancement processes exactly the same events as one
    straight run).

    The parallel path survives worker-process death: any home whose
    worker crashed (or whose pool broke underneath it) is resumed as a
    supervised in-parent actor — up to ``max_home_retries`` attempts
    with exponential ``retry_backoff_s`` backoff — and flagged in
    :attr:`ScenarioResult.degraded_homes`.  No observations are lost,
    and a journaled run records the ``actor-crash``/``actor-restart``.

    ``on_home`` is a progress hook: called once per home, in home-index
    order, right after that home's observations merge into the result.
    It never affects the observations themselves, so results stay
    byte-identical with or without a hook.  The resident server
    (:mod:`repro.server`) uses it to stream per-home progress and to
    interrupt a job cooperatively: an exception raised by the hook
    aborts the run and propagates to the caller.  ``on_epoch(home,
    epoch)`` is the finer-grained sibling, fired at every epoch
    boundary (``home`` is None on fleetwide exchange boundaries); an
    exception raised from it truncation-marks the journal and
    propagates, which is how job cancellation interrupts a journaled
    run cleanly.
    """
    load_builtin_attacks()
    spec.validate()
    cross_indices = _cross_home_indices(spec)
    if cross_indices and len(spec.homes) > 1:
        # Homes exchange WAN messages, so they can no longer run
        # start-to-finish in isolation: hand off to the lockstep-epoch
        # engine.  Single-home specs (and fleets with only home-scoped
        # attacks) never reach this — the fast path below is untouched.
        from repro.scenarios.exchange import run_exchange_spec
        return run_exchange_spec(
            spec, workers=workers, max_home_retries=max_home_retries,
            retry_backoff_s=retry_backoff_s, on_home=on_home,
            on_epoch=on_epoch, journal=journal,
            cross_indices=cross_indices)
    from repro.runtime.drivers import run_fast_path
    return run_fast_path(
        spec, workers=workers, max_home_retries=max_home_retries,
        retry_backoff_s=retry_backoff_s, on_home=on_home,
        on_epoch=on_epoch, journal=journal, cross_indices=cross_indices)
