"""Re-record ``reference.json``: the probe reference time and one
observation digest per workload variant.

    python3 perfbench/record.py

Re-record only when a change is *meant* to alter observations; the
benchmark fails every run whose digest differs from the recorded one.
``probe_ref_s`` converts host seconds to reference seconds, so changing
it rescales every recorded time.  It is measured only when the file has
none, and kept as it is otherwise.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# Importing run puts the checkout's src/ on the path.
from run import OUT, Bench, Probe  # noqa: E402
from measures import probe_during  # noqa: E402
from probe import ROUNDS  # noqa: E402
from repro import telemetry  # noqa: E402
from workloads import OBSERVED, VARIANTS, WORKLOADS  # noqa: E402

PATH = os.path.join(HERE, "reference.json")
PROBE_REF_WINDOW_S = 5.0


def main() -> int:
    reference = {"probe_ref_s": None, "digests": {}}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as handle:
            reference.update(json.load(handle))
    if reference["probe_ref_s"] is None:
        # Pinned like run.py, so the reference matches what runs see.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        with Probe() as probe:
            time.sleep(PROBE_REF_WINDOW_S)
        points = probe.points
        reference["probe_ref_s"] = probe_during(points, points[0][0],
                                                points[-1][0], ROUNDS)
    os.makedirs(OUT, exist_ok=True)
    for name in WORKLOADS:
        if name in OBSERVED:
            telemetry.enable()
        digests = {}
        for variant in range(VARIANTS):
            bench = Bench(name, variant, {"probe_ref_s": 1.0,
                                          "digests": {}})
            bench.execute()
            if bench.last_digest is None:
                print(f"{name} variant {variant} raised", file=sys.stderr)
                return 1
            digests[str(variant)] = bench.last_digest
            print(name, variant, bench.last_digest, flush=True)
        reference["digests"][name] = digests
        telemetry.disable()
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
