"""Self-tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from measures import (Ledger, normalise, probe_during,  # noqa: E402
                      recall_precision)
from tracer import Tracer, self_times  # noqa: E402


def _self(spans):
    """spans: list of (start, end, parent index)."""
    return self_times([0] * len(spans), [s for s, _e, _p in spans],
                      [e for _s, e, _p in spans], [p for _s, _e, p in spans])


class TestSelfTimes:
    def test_nested_spans_sum_to_root(self):
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1),
                 (5.0, 7.0, 0)]
        assert list(_self(spans)) == pytest.approx([5.0, 2.0, 1.0, 2.0])
        assert sum(_self(spans)) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        # Children listed out of start order; [3, 8] overlaps [1, 5].
        spans = [(0.0, 10.0, -1), (3.0, 8.0, 0), (1.0, 5.0, 0)]
        assert _self(spans)[0] == pytest.approx(3.0)

    def test_child_clipped_to_parent(self):
        spans = [(0.0, 10.0, -1), (8.0, 12.0, 0)]
        assert _self(spans)[0] == pytest.approx(8.0)

    def test_tracer_records_nesting(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        tracer.run(outer)
        totals = tracer.layer_totals()
        assert totals["inner"][0] == 2 and totals["outer"][0] == 1
        wall = tracer.ends[0] - tracer.starts[0]
        assert sum(s for _n, s in totals.values()) == pytest.approx(wall)

    def test_drop_forgets_a_failed_run(self):
        tracer = Tracer()
        step = tracer.wrap("step", lambda: None)
        tracer.run(step)
        mark = tracer.mark()

        def failing():
            step()
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError):
            tracer.run(failing)
        tracer.drop(mark)
        assert tracer.layer_totals()["step"][0] == 1
        assert list(tracer.runs) == [1, 1]


def _alert(device):
    return SimpleNamespace(device=device)


class TestRecallPrecision:
    def test_colliding_device_names_stay_per_home(self):
        # Both homes have a camera-1; only home00's is infected, and
        # home01 raises a false alert on its own (clean) camera-1.
        result = SimpleNamespace(
            infected={"home00/camera-1", "home01/plug-1"},
            homes=[SimpleNamespace(home_index=0,
                                   alerts=[_alert("camera-1")]),
                   SimpleNamespace(home_index=1,
                                   alerts=[_alert("camera-1"),
                                           _alert("")])])
        assert recall_precision(result) == (0.5, 0.5)

    def test_no_alerts(self):
        result = SimpleNamespace(infected={"home00/camera-1"},
                                 homes=[SimpleNamespace(home_index=0,
                                                        alerts=[])])
        assert recall_precision(result) == (0.0, 0.0)


class TestNormalise:
    def test_scales_by_probe(self):
        assert normalise(2.0, 0.2, 0.1) == pytest.approx(1.0)

    def test_host_slowdown_cancels(self):
        fast = normalise(3.0, 0.02, 0.025)
        slow = normalise(3.0 * 1.3, 0.02 * 1.3, 0.025)
        assert slow == pytest.approx(fast)


class TestProbeDuring:
    # Rounds of 0.1 CPU s until t=2, then the host slows: 0.2 CPU s.
    POINTS = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.2), (3.0, 0.4), (4.0, 0.6)]

    def test_only_rounds_inside_the_interval(self):
        assert probe_during(self.POINTS, 0.5, 2.5, 4) == pytest.approx(0.4)
        assert probe_during(self.POINTS, 2.0, 4.0, 4) == pytest.approx(0.8)

    def test_short_interval_takes_overlapping_rounds(self):
        assert probe_during(self.POINTS, 2.2, 2.8, 1) == pytest.approx(0.2)
        assert probe_during(self.POINTS, 1.5, 2.5, 1) == pytest.approx(0.15)

    def test_no_round_at_all(self):
        with pytest.raises(ValueError):
            probe_during([(0.0, 0.0)], 0.0, 1.0, 1)


class TestLedger:
    def test_digest_mismatch_and_raise_fail(self):
        ledger = Ledger("abc")
        assert ledger.record("abc")
        assert not ledger.record("abd")
        assert not ledger.record(None)
        assert (ledger.attempted, ledger.failed) == (3, 2)
        assert ledger.failed_ratio == pytest.approx(2 / 3)

    def test_unrecorded_workload_fails_every_run(self):
        ledger = Ledger(None)
        assert not ledger.record("abc")
        assert ledger.failed_ratio == 1.0


def test_traced_run_observes_the_same_and_unpatches():
    from measures import observation_digest
    from repro.core.bus import CoreBus
    from repro.core.framework import XlfConfig
    from repro.network.node import Link
    from repro.scenarios import AttackSpec, HomeSpec, ScenarioSpec, run_spec

    def spec():
        return ScenarioSpec(homes=[HomeSpec(activity=True)],
                            attacks=[AttackSpec(attack="mirai-botnet",
                                                params={"run_ddos": False})],
                            xlf=XlfConfig.full(), duration_s=120.0)

    untraced = observation_digest(run_spec(spec()))
    before = {cls: dict(cls.__dict__) for cls in (CoreBus, Link)}
    tracer = Tracer()
    tracer.install()
    try:
        traced = observation_digest(tracer.run(run_spec, spec()))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert {cls: dict(cls.__dict__) for cls in (CoreBus, Link)} == before
    totals = tracer.layer_totals()
    assert totals["net.transmit"][0] > 0 and totals["core.bus"][0] > 0
    assert totals["xlf.traffic-monitor"][0] > 0
