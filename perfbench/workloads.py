"""The benchmark's three workloads, built as :class:`ScenarioSpec` data.

Every workload is a pure function of ``(name, seed)``.  The seed picks
one of :data:`VARIANTS` resident-activity variants: it renames each
home's resident-activity RNG stream, so residents act differently while
the world, the attack and every other seeded stream stay fixed.  That
keeps the amount of work per run close across seeds (a different
``ScenarioSpec.seed`` moves worm spread, and with it run time, by 30%),
and it lets ``reference.json`` record one observation digest per
variant.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict

from repro.core.framework import XlfConfig
from repro.core.streaming import StreamingConfig
from repro.faults import FaultSpec
from repro.scenarios import ScenarioSpec, fleet_spec

# A copy of examples/specs/worm_fleet.json, so edits to the examples
# never change the benchmark's inputs.  One edit: the fleet-ddos flood
# lasts 10 simulated seconds instead of the shipped 45, so one run fits
# the benchmark's time budget several times over.
WORM_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "worm_fleet.json")

VARIANTS = 16

FLEET_HOMES = 12
FLEET_DURATION_S = 1800.0
FLEET_SEED = 100
OUTAGE_HOMES = (1, 6, 11)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _vary_residents(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    for index, home in enumerate(spec.homes):
        home.activity_rng = f"resident-v{variant(seed)}-{index}"
    return spec


def worm_flood(seed: int) -> ScenarioSpec:
    """``worm_fleet.json``: 8 homes on the lockstep exchange engine, the
    wan-worm plus a 10 s fleet-ddos flood at 80 pps."""
    with open(WORM_SPEC, encoding="utf-8") as handle:
        return _vary_residents(ScenarioSpec.from_dict(json.load(handle)),
                               seed)


def fleet_defended(seed: int) -> ScenarioSpec:
    """A defended fleet on the no-exchange fast path: full XLF, a
    DDoS-less Mirai in every 4th home, no cross-home attack."""
    spec = fleet_spec(FLEET_HOMES, range(0, FLEET_HOMES, 4),
                      FLEET_DURATION_S, FLEET_SEED)
    spec.name = "fleet-defended"
    spec.xlf = XlfConfig.full()
    return _vary_residents(spec, seed)


def fleet_observed(seed: int) -> ScenarioSpec:
    """``fleet-defended`` plus streaming detection and cloud outages
    (telemetry and the journal are switched on by the runner)."""
    spec = fleet_defended(seed)
    spec.name = "fleet-observed"
    spec.xlf.streaming = StreamingConfig()
    spec.faults = [FaultSpec(fault="cloud-outage", home=home,
                             at=300.0 + 120.0 * n, duration_s=240.0)
                   for n, home in enumerate(OUTAGE_HOMES)]
    return spec


WORKLOADS: Dict[str, Callable[[int], ScenarioSpec]] = {
    "worm-flood": worm_flood,
    "fleet-defended": fleet_defended,
    "fleet-observed": fleet_observed,
}

# Workloads that run with repro.telemetry on and a journal file.
OBSERVED = {"fleet-observed"}
