"""The declarative scenario engine: registry, round-trips, identity."""

import importlib
import inspect
import json
import pkgutil

import pytest

import repro.attacks
from repro.attacks.base import Attack
from repro.core import XlfConfig
from repro.core.signals import Layer
from repro.scenarios import (
    ATTACKS,
    AttackSpec,
    DeviceEntry,
    HomeSpec,
    ScenarioSpec,
    SpecError,
    load_builtin_attacks,
    run_spec,
)
from repro.scenarios.fleet import fleet_spec, run_fleet
from repro.scenarios.spec import fork_available

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork start method")


class TestAttackRegistry:
    def all_attack_classes(self):
        """Every concrete Attack subclass shipped in repro.attacks."""
        classes = set()
        for info in pkgutil.iter_modules(repro.attacks.__path__):
            module = importlib.import_module(f"repro.attacks.{info.name}")
            for _, obj in inspect.getmembers(module, inspect.isclass):
                if (issubclass(obj, Attack) and obj is not Attack
                        and obj.__module__ == module.__name__):
                    classes.add(obj)
        return classes

    def test_every_shipped_attack_is_registered(self):
        load_builtin_attacks()
        shipped = self.all_attack_classes()
        assert shipped, "no attack classes discovered"
        registered = set(ATTACKS.ordered())
        assert shipped == registered

    def test_registered_metadata_is_complete(self):
        for cls in ATTACKS.ordered():
            assert cls.name and cls.name != "abstract-attack"
            assert cls.surface_layers, cls.name
            assert len(cls.table_ii_row) == 3, cls.name
            assert all(cls.table_ii_row), cls.name

    def test_names_are_sorted_and_unique(self):
        names = ATTACKS.names()
        assert names == sorted(names)
        assert len(names) == len(set(names)) == len(ATTACKS)

    def test_unknown_attack_rejected_with_known_names(self):
        with pytest.raises(SpecError, match="mirai-botnet"):
            ATTACKS.get("time-travel")

    def test_bad_params_rejected(self):
        with pytest.raises(SpecError, match="bad params"):
            run_spec(ScenarioSpec(
                attacks=[AttackSpec(attack="mirai-botnet",
                                    params={"warp_factor": 9})],
                duration_s=10.0))

    def test_duplicate_registration_rejected(self):
        class Imposter(Attack):
            name = "mirai-botnet"
            surface_layers = ("device",)
            table_ii_row = ("a", "b", "c")

        with pytest.raises(SpecError, match="already registered"):
            ATTACKS.register(Imposter)

    def test_metadata_validation_on_register(self):
        class NoLayers(Attack):
            name = "no-layers"
            table_ii_row = ("a", "b", "c")

        with pytest.raises(SpecError, match="surface_layers"):
            ATTACKS.register(NoLayers)


class TestSpecSerialization:
    def full_spec(self):
        from repro.core.streaming import StreamingConfig

        config = XlfConfig.only(Layer.NETWORK)
        config.disabled_functions = ("traffic-shaper",)
        config.streaming = StreamingConfig(refresh_s=20.0, min_refreshes=1)
        return ScenarioSpec(
            name="round-trip",
            homes=[
                HomeSpec(),
                HomeSpec(devices=[
                    DeviceEntry("camera",
                                ("default_credentials", "open_telnet")),
                    DeviceEntry("smart_lock"),
                ], dns_mode="doh", cloud_coarse_grants=True,
                    activity=True, activity_interval_s=45.0,
                    activity_rng="resident-x"),
            ],
            attacks=[
                AttackSpec(attack="mirai-botnet", home=1, at=30.0,
                           params={"run_ddos": False,
                                   "scan_interval_s": 0.25}),
                AttackSpec(attack="event-spoofing"),
            ],
            xlf=config,
            seed=7,
            warmup_s=4.0,
            duration_s=120.0,
            collect_features=True,
        )

    def test_json_round_trip_equality(self):
        spec = self.full_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_round_trip_without_xlf(self):
        spec = ScenarioSpec(xlf=None, attacks=[], duration_s=15.0)
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_fleet_spec_round_trips(self):
        spec = fleet_spec(n_homes=3, infected_homes=(1,), duration_s=30.0)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"durationn_s": 10})
        with pytest.raises(SpecError, match="unknown home keys"):
            ScenarioSpec.from_dict({"homes": [{"device": []}]})
        with pytest.raises(SpecError, match="unknown attack keys"):
            ScenarioSpec.from_dict({"attacks": [{"attack": "mirai-botnet",
                                                 "when": 3}]})

    def test_unknown_vulnerability_flag_rejected(self):
        spec = ScenarioSpec(homes=[HomeSpec(devices=[
            DeviceEntry("camera", ("open_sesame",))])], duration_s=10.0)
        with pytest.raises(SpecError, match="open_sesame"):
            run_spec(spec)

    def test_validate_rejects_out_of_range_home(self):
        with pytest.raises(SpecError, match="targets home 3"):
            ScenarioSpec(attacks=[AttackSpec(attack="mirai-botnet",
                                             home=3)]).validate()

    def test_validate_rejects_unknown_attack_name(self):
        with pytest.raises(SpecError, match="unknown attack"):
            ScenarioSpec(attacks=[AttackSpec(attack="nope")]).validate()


class TestRunSpec:
    @pytest.fixture(scope="class")
    def botnet_spec(self):
        return ScenarioSpec(
            name="t",
            homes=[HomeSpec()],
            attacks=[AttackSpec(attack="mirai-botnet",
                                params={"run_ddos": False})],
            xlf=XlfConfig.full(),
            seed=3,
            duration_s=90.0,
        )

    @pytest.fixture(scope="class")
    def botnet_result(self, botnet_spec):
        return run_spec(botnet_spec)

    def test_outcomes_align_with_spec_attacks(self, botnet_spec,
                                              botnet_result):
        assert len(botnet_result.outcomes) == len(botnet_spec.attacks)
        outcome = botnet_result.outcomes[0]
        assert outcome is not None and outcome.succeeded
        assert "camera-1" in outcome.compromised_devices

    def test_alerts_and_infected_recorded(self, botnet_result):
        assert botnet_result.detected_devices() == \
            botnet_result.compromised_devices()
        assert "home00/camera-1" in botnet_result.infected

    def test_spec_reuse_is_deterministic(self, botnet_spec, botnet_result):
        again = run_spec(botnet_spec)
        assert [a.timestamp for a in again.alerts] == \
            [a.timestamp for a in botnet_result.alerts]
        assert again.infected == botnet_result.infected

    def test_multi_home_detection_names_are_home_qualified(self):
        """Two homes each lose a ``camera-1``: the accessors must keep
        them apart the way ``infected`` does."""
        spec = ScenarioSpec(
            name="t",
            homes=[HomeSpec(), HomeSpec()],
            attacks=[AttackSpec(attack="mirai-botnet", home=i,
                                params={"run_ddos": False})
                     for i in range(2)],
            xlf=XlfConfig.full(),
            seed=3,
            duration_s=90.0,
        )
        result = run_spec(spec)
        assert all("/" not in name for outcome in result.outcomes
                   for name in outcome.compromised_devices)
        truth = result.compromised_devices()
        assert {"home00/camera-1", "home01/camera-1"} <= truth
        assert truth == result.infected
        assert result.detected_devices() == truth

    def test_delayed_attack_launches_later(self):
        spec = ScenarioSpec(
            homes=[HomeSpec()],
            attacks=[AttackSpec(attack="mirai-botnet", at=30.0,
                                params={"run_ddos": False})],
            duration_s=90.0,
        )
        result = run_spec(spec)
        outcome = result.outcomes[0]
        assert outcome is not None and outcome.succeeded

    def test_attack_past_duration_never_launches(self):
        spec = ScenarioSpec(
            homes=[HomeSpec()],
            attacks=[AttackSpec(attack="mirai-botnet", at=500.0)],
            duration_s=20.0,
        )
        result = run_spec(spec)
        assert result.outcomes == [None]
        assert not result.infected

    def test_undefended_spec_has_no_alerts(self):
        result = run_spec(ScenarioSpec(
            homes=[HomeSpec()],
            attacks=[AttackSpec(attack="mirai-botnet",
                                params={"run_ddos": False})],
            xlf=None, duration_s=60.0))
        assert result.alerts == []
        assert result.infected  # nothing defended the home

    def test_disabled_functions_survive_spec_reuse(self):
        config = XlfConfig.full()
        config.disabled_functions = ("traffic-monitor",)
        spec = ScenarioSpec(homes=[HomeSpec()], attacks=[],
                            xlf=config, duration_s=10.0)
        run_spec(spec)
        # run_spec hands the host a copy, so the spec's config is
        # untouched and a second run sees the same posture.
        assert spec.xlf.disabled_functions == ("traffic-monitor",)


class TestSerialParallelIdentity:
    @pytest.fixture(scope="class")
    def spec(self):
        return fleet_spec(n_homes=2, infected_homes=(1,), duration_s=60.0,
                          base_seed=100)

    @pytest.fixture(scope="class")
    def serial(self, spec):
        return run_spec(spec)

    @needs_fork
    def test_run_spec_parallel_identity(self, spec, serial):
        par = run_spec(spec, workers=2)
        assert par.features == serial.features
        assert list(par.features) == list(serial.features)
        assert par.device_types == serial.device_types
        assert par.infected == serial.infected
        assert [(h.home_index, sorted(h.infected)) for h in par.homes] == \
            [(h.home_index, sorted(h.infected)) for h in serial.homes]

    def test_run_fleet_matches_run_spec(self, spec, serial):
        classic = run_fleet(n_homes=2, infected_homes=(1,), duration_s=60.0,
                            base_seed=100)
        assert classic.features == serial.features
        assert classic.infected == serial.infected


class TestRunSpecResilience:
    """The hardened parallel path: worker death, fork fallback, workers=None."""

    def fleet(self, n_homes=3):
        return fleet_spec(n_homes=n_homes, infected_homes=(1,),
                          duration_s=60.0, base_seed=100)

    @needs_fork
    def test_worker_crash_is_retried_and_flagged(self, monkeypatch):
        """Killing a worker mid-fleet must not lose any home."""
        import os

        import repro.scenarios.spec as spec_module

        def crash_home_one(index):
            if index == 1:
                os._exit(1)

        serial = run_spec(self.fleet())
        # The patch rides into the forked workers; the serial retry
        # calls run_home directly and bypasses the hook.
        monkeypatch.setattr(spec_module, "_worker_crash_hook",
                            crash_home_one)
        par = run_spec(self.fleet(), workers=2)
        assert 1 in par.degraded_homes
        assert sorted(h.home_index for h in par.homes) == [0, 1, 2]
        assert par.features == serial.features
        assert par.infected == serial.infected
        assert par.outcomes == serial.outcomes

    @needs_fork
    def test_unrecoverable_home_raises_spec_error(self, monkeypatch):
        import repro.scenarios.spec as spec_module

        monkeypatch.setattr(
            spec_module, "run_home",
            lambda spec, index: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(SpecError, match="after 2 serial retries"):
            spec_module._retry_home_serially(self.fleet(), 0,
                                             max_retries=2, backoff_s=0.0)

    def test_fork_unavailable_falls_back_to_serial(self, monkeypatch):
        import repro.scenarios.spec as spec_module

        monkeypatch.setattr(spec_module, "fork_available", lambda: False)
        serial = run_spec(self.fleet(n_homes=2))
        fallback = run_spec(self.fleet(n_homes=2), workers=4)
        assert fallback.features == serial.features
        assert fallback.infected == serial.infected
        assert fallback.degraded_homes == []

    def test_workers_none_resolves_to_cpu_count(self, monkeypatch):
        import repro.scenarios.spec as spec_module

        # Pin cpu_count to 1 so workers=None takes the serial path
        # deterministically on any machine.
        monkeypatch.setattr(spec_module.os, "cpu_count", lambda: 1)
        serial = run_spec(self.fleet(n_homes=2))
        resolved = run_spec(self.fleet(n_homes=2), workers=None)
        assert resolved.features == serial.features
        assert resolved.infected == serial.infected


class TestSerialParallelIdentityWithFaults:
    """Same spec + seed must give byte-identical results — telemetry
    included — across serial and parallel, with faults active."""

    def faulty_fleet(self):
        from repro.scenarios import FaultSpec

        spec = fleet_spec(n_homes=2, infected_homes=(1,), duration_s=60.0,
                          base_seed=100)
        spec.faults = [
            FaultSpec(fault="packet-loss", home=0, at=5.0, duration_s=20.0,
                      params={"loss_rate": 0.4}),
            FaultSpec(fault="device-crash", home=1, at=10.0,
                      duration_s=15.0),
            FaultSpec(fault="cloud-outage", home=1, at=30.0,
                      duration_s=10.0),
        ]
        return spec

    @needs_fork
    def test_identity_including_telemetry(self):
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
        try:
            serial = run_spec(self.faulty_fleet())
            telemetry.reset()
            par = run_spec(self.faulty_fleet(), workers=2)
        finally:
            telemetry.disable()
            telemetry.reset()
        assert serial.telemetry.snapshot() == par.telemetry.snapshot()
        assert serial.features == par.features
        assert serial.infected == par.infected
        assert serial.outcomes == par.outcomes
        assert [(e.index, e.fault, e.home, e.target, e.injected_at,
                 e.recovered_at) for e in serial.fault_events] == \
            [(e.index, e.fault, e.home, e.target, e.injected_at,
              e.recovered_at) for e in par.fault_events]
        assert [a.timestamp for a in serial.alerts] == \
            [a.timestamp for a in par.alerts]
