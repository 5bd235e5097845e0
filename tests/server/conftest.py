"""Server tests touch process-global telemetry; restore it afterwards."""

import time

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def restore_telemetry():
    was_enabled = telemetry.enabled()
    previous = telemetry.registry()
    yield
    telemetry.set_registry(previous)
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


def wait_until_running(client, job_id, timeout_s=60.0):
    """Poll until ``job_id`` leaves the queue.  Pair it with a
    BackgroundServer ``hold``: a held job then stays running until the
    test releases it."""
    deadline = time.monotonic() + timeout_s
    while client.job(job_id)["state"] == "queued":
        assert time.monotonic() < deadline
        time.sleep(0.02)


def tiny_spec(name="tiny", seed=7, homes=1, duration_s=25.0,
              attack=True, xlf=False, activity=True):
    """A small, fast ScenarioSpec dict for job submission."""
    from repro.core import XlfConfig
    from repro.scenarios import AttackSpec, HomeSpec, ScenarioSpec

    spec = ScenarioSpec(
        name=name,
        homes=[HomeSpec(activity=activity,
                        activity_rng=f"resident-{i}" if homes > 1 else None)
               for i in range(homes)],
        attacks=([AttackSpec(attack="mirai-botnet", home=i,
                             params={"run_ddos": False})
                  for i in range(homes)] if attack else []),
        xlf=XlfConfig.full() if xlf else None,
        seed=seed,
        warmup_s=5.0,
        duration_s=duration_s,
        collect_features=True,
    )
    return spec.to_dict()
