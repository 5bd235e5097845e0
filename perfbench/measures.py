"""Pure helpers: observation digests, home-qualified detection quality,
host-speed normalisation.  Kept free of timing and I/O so the
self-tests can check them on hand-built inputs."""

from __future__ import annotations

import bisect
import hashlib
from typing import Sequence, Tuple

from repro.server.store import canonical_json, result_to_dict


def observation_digest(result) -> str:
    """sha256 of a run's canonical observations (no wall-clock data)."""
    observations = result_to_dict(result)["observations"]
    return hashlib.sha256(canonical_json(observations).encode()).hexdigest()


def recall_precision(result) -> Tuple[float, float]:
    """Device-level detection quality with home-qualified names.

    ``result.infected`` holds ``home03/camera-1`` names while alerts
    carry the bare ``camera-1``, so each alert is qualified with the
    home it was raised in before the two sets meet.  An infected device
    counts as detected only if its own home alerted on it."""
    infected = set(result.infected)
    alerted = {f"home{home.home_index:02d}/{alert.device}"
               for home in result.homes for alert in home.alerts
               if alert.device}
    hits = len(infected & alerted)
    recall = hits / len(infected) if infected else 0.0
    precision = hits / len(alerted) if alerted else 0.0
    return recall, precision


def probe_during(points: Sequence[Tuple[float, float]], began: float,
                 ended: float, rounds: int) -> float:
    """CPU seconds the probe took per ``rounds`` rounds while the host
    ran the interval ``[began, ended]``.

    ``points`` are the probe's ``(perf_counter, process_time)`` after
    each round (see ``probe.py``).  Rounds that lie wholly inside the
    interval count; if none does, the rounds that overlap it."""
    times = [t for t, _cpu in points]
    first = bisect.bisect_left(times, began)
    last = bisect.bisect_right(times, ended) - 1
    if last <= first:   # no whole round inside: take the overlapping ones
        first = max(first - 1, 0)
        last = min(last + 1, len(points) - 1)
    if last <= first:
        raise ValueError("no probe round overlaps the interval")
    cpu = points[last][1] - points[first][1]
    return cpu / (last - first) * rounds


def normalise(raw_s: float, probe_s: float, probe_ref_s: float) -> float:
    """Raw host seconds in reference seconds: scaled by how much faster
    (or slower) than the reference the host ran the probe meanwhile."""
    return raw_s * probe_ref_s / probe_s


class Ledger:
    """Run accounting: a run fails if it raised or if its observation
    digest differs from the workload's recorded one, and no timing is
    ever taken from a failed run."""

    def __init__(self, expected_digest: str):
        self.expected = expected_digest
        self.attempted = 0
        self.failed = 0

    def record(self, digest) -> bool:
        """Count one run (``digest`` None = it raised); True if it passed."""
        self.attempted += 1
        ok = digest is not None and digest == self.expected
        if not ok:
            self.failed += 1
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
