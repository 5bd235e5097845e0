#!/usr/bin/env bash
# Repo health check: tier-1 tests, tests/server ten times in a row (a
# canary for tests that assume a job is still running), a scenario fuzz
# smoke (25 seeds of random-valid specs property-checked), a
# telemetry-enabled fleet smoke run, a fault-injection scenario smoke, a
# resident-server smoke (submit over HTTP, verify byte-identity vs
# direct run_spec, clean SIGTERM), and validation of the benchmark
# artifacts (telemetry overhead, fault resilience, streaming detection,
# server throughput).
#
# Usage:  scripts/check.sh [--fresh-bench]
#   --fresh-bench   re-run the benchmarks even if BENCH_telemetry.json /
#                   BENCH_faults.json already exist
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 pytest =="
python -m pytest -x -q

echo
echo "== server tests, 10 consecutive runs (timing-race canary) =="
for run in $(seq 1 10); do
    python -m pytest -q -p no:cacheprovider tests/server > /dev/null \
        || { echo "tests/server failed on run $run of 10"; exit 1; }
done
echo "tests/server: 10/10 runs passed"

echo
echo "== plugin registry smoke check =="
python - <<'PY'
from repro.core import REGISTRY, Layer, load_builtin_functions

load_builtin_functions()
expected = {
    "encryption-policy": Layer.DEVICE,
    "delegation-proxy": Layer.DEVICE,
    "update-inspector": Layer.DEVICE,
    "constrained-access": Layer.DEVICE,
    "traffic-monitor": Layer.NETWORK,
    "activity-detector": Layer.NETWORK,
    "traffic-shaper": Layer.NETWORK,
    "api-guard": Layer.SERVICE,
    "security-analytics": Layer.SERVICE,
    "app-verifier": Layer.SERVICE,
    "response-engine": Layer.CORE,
}
for name, layer in expected.items():
    cls = REGISTRY.get(name)
    assert cls.layer is layer, f"{name}: {cls.layer} != {layer}"
ordered = [cls.name for cls in REGISTRY.ordered()]
assert len(ordered) == len(set(ordered)) >= len(expected), ordered
print(f"registry ok: {len(expected)} functions resolvable, "
      "layers correct, wiring order deterministic")
PY

echo
echo "== scenario spec engine smoke check =="
python -m repro --list-attacks
python - <<'PY'
from repro.scenarios import ATTACKS, load_builtin_attacks

load_builtin_attacks()
assert len(ATTACKS) >= 12, f"only {len(ATTACKS)} attacks registered"
print(f"attack registry ok: {len(ATTACKS)} attacks registered")
PY
python -m repro --spec examples/specs/botnet.json

echo
echo "== cross-home worm fleet smoke check =="
python - <<'PY'
import json

from repro.scenarios import ScenarioSpec, run_spec

with open("examples/specs/worm_fleet.json") as handle:
    spec = ScenarioSpec.from_dict(json.load(handle))
spec.duration_s = 150.0            # smoke-sized slice of the example
serial = run_spec(spec)
par = run_spec(spec, workers=2)
origin = spec.attacks[0].home
infected_homes = {h.home_index for h in serial.homes if h.infected}
beyond = infected_homes - {origin}
assert len(beyond) >= 2, (
    f"worm only reached {sorted(beyond)} beyond patient zero {origin}")
assert serial.features == par.features \
    and list(serial.features) == list(par.features), \
    "serial and sharded worm runs diverged"
assert serial.infected == par.infected
assert [a.timestamp for a in serial.alerts] == \
    [a.timestamp for a in par.alerts]
print(f"worm fleet ok: patient zero home {origin} spread to "
      f"{len(beyond)} other homes, serial == sharded")
PY
python -m repro --spec examples/specs/worm_fleet.json

echo
echo "== fault-injection scenario smoke check =="
python -m repro --list-faults
python - <<'PY'
import json

from repro import telemetry
from repro.scenarios import ScenarioSpec, run_spec

with open("examples/specs/faulty_home.json") as handle:
    spec = ScenarioSpec.from_dict(json.load(handle))
assert spec.faults, "faulty_home.json carries no faults"
telemetry.enable()
result = run_spec(spec)
injected = result.telemetry.counter_total("faults.injected")
recovered = result.telemetry.counter_total("faults.recovered")
assert injected > 0, "no faults injected"
assert recovered > 0, "no faults recovered"
assert result.fault_events, "no fault events recorded"
assert all(outcome is not None for outcome in result.outcomes), \
    "an attack never launched"
print(f"fault scenario ok: {injected:.0f} injected, "
      f"{recovered:.0f} recovered, {len(result.alerts)} alerts, "
      f"all attacks completed")
PY
python -m repro --spec examples/specs/faulty_home.json

echo
echo "== scenario fuzz smoke =="
python -m repro fuzz --seeds 25

echo
echo "== telemetry-enabled fleet smoke run =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
python -m repro telemetry --telemetry "$smoke_dir/smoke"
for suffix in prom jsonl trace.json; do
    if [ ! -s "$smoke_dir/smoke.$suffix" ]; then
        echo "ERROR: telemetry export smoke.$suffix missing or empty" >&2
        exit 1
    fi
done
echo "telemetry exports written and non-empty (prom, jsonl, trace.json)"

echo
echo "== journal replay & crash recovery smoke =="
SMOKE_DIR="$smoke_dir" python - <<'PY'
import json
import os

import repro.scenarios.exchange as exchange_module
from repro.runtime import read_journal
from repro.scenarios import ScenarioSpec, run_spec
from repro.server.store import canonical_json, result_to_dict

smoke_dir = os.environ["SMOKE_DIR"]
with open("examples/specs/worm_fleet.json") as handle:
    spec = ScenarioSpec.from_dict(json.load(handle))
spec.duration_s = 200.0            # long enough for the fleet alerts
spec.collect_features = False

clean_path = os.path.join(smoke_dir, "journal_clean.jsonl")
crash_path = os.path.join(smoke_dir, "journal_crash.jsonl")
clean = run_spec(spec, workers=2, journal=clean_path)


def kill_first_shard(epoch, indices):   # dies mid-run, once
    if epoch == 2 and 0 in indices:
        os._exit(1)


original_hook = exchange_module._shard_crash_hook
exchange_module._shard_crash_hook = kill_first_shard
try:
    crashed = run_spec(spec, workers=2, journal=crash_path)
finally:
    exchange_module._shard_crash_hook = original_hook

assert canonical_json(result_to_dict(clean)["observations"]) == \
    canonical_json(result_to_dict(crashed)["observations"]), \
    "journal-resumed run diverged from the unfailed run"
records = read_journal(crash_path)
kinds = {r["t"] for r in records}
assert {"run-start", "epoch", "actor-crash", "actor-restart",
        "run-end"} <= kinds, f"journal kinds incomplete: {sorted(kinds)}"


def alert_stream(path):
    return [(r["n"], r["home"], canonical_json(r["alert"]))
            for r in read_journal(path) if r["t"] == "alert"]


assert alert_stream(clean_path) == alert_stream(crash_path), \
    "clean and crash-resumed journals carry different alert streams"
alerts = sum(1 for r in records if r["t"] == "alert")
assert alerts > 0, "journal smoke produced no alerts to compare"
print(f"journal recovery ok: shard killed at epoch 2, resumed run "
      f"byte-identical, {alerts} alerts journaled in both runs")
PY
python -m repro replay "$smoke_dir/journal_clean.jsonl"

echo
echo "== telemetry overhead benchmark artifact =="
if [ "${1:-}" = "--fresh-bench" ] || [ ! -f BENCH_telemetry.json ]; then
    python benchmarks/bench_telemetry_overhead.py --quick \
        --out BENCH_telemetry.json
fi
python - <<'PY'
import json

with open("BENCH_telemetry.json") as handle:
    report = json.load(handle)
assert report["bench"] == "telemetry_overhead", report.get("bench")
fleet = report["fleet"]
assert fleet["overhead_pct"] < fleet["threshold_pct"], (
    f"enabled overhead {fleet['overhead_pct']}% exceeds "
    f"{fleet['threshold_pct']}% threshold")
assert report["merge"]["identical_totals"], \
    "serial and parallel merged telemetry totals differ"
print(f"BENCH_telemetry.json ok: enabled overhead "
      f"{fleet['overhead_pct']:.2f}% (< {fleet['threshold_pct']}%), "
      f"serial==parallel totals")
PY

echo
echo "== fault resilience benchmark artifact =="
if [ "${1:-}" = "--fresh-bench" ] || [ ! -f BENCH_faults.json ]; then
    python benchmarks/bench_fault_resilience.py --quick \
        --out BENCH_faults.json
fi
python - <<'PY'
import json

with open("BENCH_faults.json") as handle:
    report = json.load(handle)
assert report["bench"] == "fault_resilience", report.get("bench")
rows = report["intensities"]
assert len(rows) >= 3, f"only {len(rows)} fault intensities measured"
for row in rows:
    assert row["full_recall"] >= row["best_single_recall"], (
        f"intensity {row['intensity']}: full recall {row['full_recall']} "
        f"below best single layer {row['best_single_recall']}")
assert report["passed"]
print(f"BENCH_faults.json ok: {len(rows)} intensities, full-XLF recall "
      f">= best single layer at every one")
PY

echo
echo "== streaming detection benchmark artifact =="
if [ "${1:-}" = "--fresh-bench" ] || [ ! -f BENCH_streaming.json ]; then
    python benchmarks/bench_streaming_detection.py --quick \
        --out BENCH_streaming.json
fi
python - <<'PY'
import json

with open("BENCH_streaming.json") as handle:
    report = json.load(handle)
assert report["bench"] == "streaming_detection", report.get("bench")
for arm in ("batch", "streaming"):
    entry = report[arm]
    for field in ("recall", "latency", "detected", "false_positives"):
        assert field in entry, f"{arm} missing field: {field}"
    assert entry["latency"]["count"] > 0, f"{arm} arm detected nothing"
gates = report["gates"]
assert gates["streaming_median_below_batch"], (
    f"streaming median {report['streaming']['latency']['median_s']}s not "
    f"below batch median {report['batch']['latency']['median_s']}s")
assert gates["recall_not_worse"], (
    f"streaming recall {report['streaming']['recall']} below batch "
    f"{report['batch']['recall']}")
assert gates["no_streaming_false_positives"], (
    f"streaming false positives: {report['streaming']['false_positives']}")
print(f"BENCH_streaming.json ok: streaming median "
      f"{report['streaming']['latency']['median_s']}s vs batch "
      f"{report['batch']['latency']['median_s']}s "
      f"({report['speedup_median']}x), recall "
      f"{report['streaming']['recall']} >= {report['batch']['recall']}, "
      f"no false positives")
PY

echo
echo "== fleet performance smoke (prototype clone path) =="
python benchmarks/bench_perf_fleet.py --quick --out BENCH_fleet_smoke.json
python - <<'PY'
import json
import os

with open("BENCH_fleet_smoke.json") as handle:
    report = json.load(handle)
os.remove("BENCH_fleet_smoke.json")
assert report["bench"] == "perf_fleet", report.get("bench")
fleet = report["fleet"]
# The two identity guarantees the clone path lives or dies by.
assert fleet["identical_results"], \
    "serial and parallel fleet results differ"
assert fleet["clone_identical"], \
    "prototype-clone results differ from fresh builds"
# The new reporting fields must be present and sane.
for field in ("homes_per_sec", "cloned_homes", "clone_fallbacks",
              "fresh_build_s", "clone_speedup", "stages", "fresh_stages"):
    assert field in fleet, f"BENCH field missing: {field}"
for stage in ("build_s", "run_s", "featurize_s"):
    assert stage in fleet["stages"], f"stage timing missing: {stage}"
assert fleet["cloned_homes"] == fleet["homes"], (
    f"only {fleet['cloned_homes']}/{fleet['homes']} homes took the "
    "clone path")
assert fleet["clone_fallbacks"] == 0, (
    f"{fleet['clone_fallbacks']} clone fallbacks on the default "
    "topology — the snapshot path has regressed")
# Epoch-exchange gate: the entry must exist, the forced epoch engine
# must reproduce the fast path exactly, and stay within its budget.
assert "worm_epoch_overhead" in report, \
    "BENCH missing worm_epoch_overhead entry"
epoch = report["worm_epoch_overhead"]
assert epoch["identical"], \
    "epoch-engine results differ from the single-home fast path"
assert epoch["overhead_pct"] <= epoch["threshold_pct"], (
    f"epoch-barrier overhead {epoch['overhead_pct']}% exceeds "
    f"{epoch['threshold_pct']}% budget")
# Journal gate: attaching the run journal must stay a pure observer —
# identical observations, and within its wall-clock budget.
assert "journal_overhead" in report, \
    "BENCH missing journal_overhead entry"
journal = report["journal_overhead"]
assert journal["identical"], \
    "journaled observations differ from the plain run"
assert journal["overhead_pct"] <= journal["threshold_pct"], (
    f"journal overhead {journal['overhead_pct']}% exceeds "
    f"{journal['threshold_pct']}% budget")
print(f"fleet perf smoke ok: {fleet['homes_per_sec']} homes/s cloned "
      f"(fresh {fleet['fresh_homes_per_sec']} homes/s, clone speedup "
      f"{fleet['clone_speedup']}x), identity checks green, epoch "
      f"overhead {epoch['overhead_pct']}% (<= {epoch['threshold_pct']}%), "
      f"journal overhead {journal['overhead_pct']}% "
      f"(<= {journal['threshold_pct']}%)")
PY

echo
echo "== committed BENCH_fleet.json gate =="
python - <<'PY'
import json

with open("BENCH_fleet.json") as handle:
    report = json.load(handle)
assert "worm_epoch_overhead" in report, (
    "committed BENCH_fleet.json lacks the worm_epoch_overhead entry — "
    "regenerate with benchmarks/bench_perf_fleet.py")
assert report["worm_epoch_overhead"]["identical"], \
    "committed BENCH records epoch/fast-path divergence"
assert report["fleet"]["identical_results"], \
    "committed BENCH records a serial/parallel identity regression"
assert report["fleet"]["clone_identical"], \
    "committed BENCH records a clone/fresh identity regression"
assert "journal_overhead" in report, (
    "committed BENCH_fleet.json lacks the journal_overhead entry — "
    "regenerate with benchmarks/bench_perf_fleet.py")
assert report["journal_overhead"]["identical"], \
    "committed BENCH records a journal identity regression"
assert report["journal_overhead"]["overhead_pct"] <= \
    report["journal_overhead"]["threshold_pct"], \
    "committed BENCH records journal overhead beyond its budget"
print("committed BENCH_fleet.json ok: epoch-overhead and journal "
      "entries present, identity flags green")
PY

echo
echo "== resident fleet server smoke =="
python - <<'PY'
import json
import os
import signal
import socket
import subprocess
import sys
import time

from repro import telemetry
from repro.scenarios import ScenarioSpec, run_spec
from repro.server.client import ServerClient
from repro.server.store import canonical_json, result_to_dict

with socket.socket() as probe:       # grab a free port for the server
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]

proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", str(port),
     "--workers", "1"],
    env={**os.environ, "PYTHONPATH": "src"})
client = ServerClient(port=port)
try:
    deadline = time.monotonic() + 30
    while True:
        try:
            assert client.health()["status"] == "ok"
            break
        except OSError:
            if time.monotonic() > deadline:
                raise SystemExit("server never became healthy")
            time.sleep(0.1)

    with open("examples/specs/botnet.json") as handle:
        spec_data = json.load(handle)
    job = client.submit(spec_data)
    final = client.wait(job["id"], timeout=120)
    assert final["state"] == "done", final
    served = client.result(job["id"])

    telemetry.enable()
    try:
        direct = result_to_dict(run_spec(ScenarioSpec.from_dict(spec_data)))
    finally:
        telemetry.disable()
    assert canonical_json(served["observations"]) == \
        canonical_json(direct["observations"]), \
        "served result differs from direct run_spec"

    metrics = client.metrics()
    assert "server_jobs_submitted_total" in metrics
    assert "# TYPE" in metrics
finally:
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
assert code == 0, f"server exited {code} on SIGTERM"
print(f"server smoke ok: job {job['id']} done, observations identical "
      f"to direct run, /metrics valid, clean shutdown")
PY

echo
echo "== server throughput benchmark artifact =="
if [ "${1:-}" = "--fresh-bench" ] || [ ! -f BENCH_server.json ]; then
    python benchmarks/bench_server_throughput.py --quick \
        --out BENCH_server.json
fi
python - <<'PY'
import json

with open("BENCH_server.json") as handle:
    report = json.load(handle)
assert report["bench"] == "server_throughput", report.get("bench")
assert report["identical_observations"], \
    "served observations differ from direct run_spec"
assert report["served"]["states"] == ["done"], report["served"]["states"]
assert report["within_budget"], (
    f"server overhead {report['overhead_pct']}% exceeds "
    f"{report['threshold_pct']}% budget")
print(f"BENCH_server.json ok: {report['served']['jobs_per_sec']} jobs/s "
      f"served ({report['served']['homes_per_sec']} homes/s), overhead "
      f"{report['overhead_pct']}% (< {report['threshold_pct']}%)")
PY

echo
echo "check.sh: all green"
