"""Host-speed probe: a fixed pure-Python workload run beside the benchmark.

On a shared host (measured on a 2-vCPU Intel Xeon VM), speed changes by
up to 1.7x within seconds, and CPU time moves with wall time, so the
drift is the host's, not descheduling.  The probe measures that drift
with the same kind of work the simulator does (dict updates, attribute
reads, heapq traffic, small calls) in a process that never imports
``repro``, so nothing the program does to its own heap or GC settings
can move it.

``python3 perfbench/probe.py`` repeats one round of the workload until
its standard input is closed, then prints one JSON list of
``[perf_counter, process_time]`` points: one before the first round and
one after each round.  Pinned to the same CPU as the measured process,
the two share that CPU in slices of a few milliseconds, so the probe's
CPU seconds per round over any interval tell how fast the host ran the
measured work in that same interval (see ``measures.probe_during``).
At :data:`NICE` the probe takes about a quarter of the CPU.
"""

from __future__ import annotations

import heapq
import json
import os
import select
import sys
import time

# A round walks STEP keys (a few milliseconds of CPU, so even a short
# interval holds many rounds); a probe is ROUNDS rounds, 80000 keys.
# ``probe_ref_s`` in reference.json is a fixed CPU time per probe.
CELLS = 20000
STEP = 2500
ROUNDS = 32
NICE = 5


class _Cell:
    __slots__ = ("key", "count", "weight")

    def __init__(self, key: str, weight: int):
        self.key = key
        self.count = 0
        self.weight = weight


def _bump(cell: _Cell, amount: int) -> int:
    # Counts wrap, so they stay small ints and every round costs the
    # same however long the probe runs.
    cell.count = (cell.count + amount) & 127
    return cell.count + cell.weight


def _world():
    """A working set of a few MB, like one home's live objects, and the
    keys in rounds of STEP."""
    cells = {f"device-{i}": _Cell(f"device-{i}", i % 7 + 1)
             for i in range(CELLS)}
    # A fixed stride permutation: lookups jump around the table.
    order = [f"device-{(i * 7919) % CELLS}" for i in range(CELLS)]
    return cells, [order[k:k + STEP] for k in range(0, CELLS, STEP)]


def workload(cells, keys) -> int:
    """One round of fixed work; returns a checksum so nothing is elided."""
    heap: list = []
    total = 0
    for i, key in enumerate(keys):
        cell = cells.get(key)
        total += _bump(cell, i & 3)
        heapq.heappush(heap, ((i * 7919) % 10007, i, cell))
        if len(heap) > 1000:
            _when, _tie, popped = heapq.heappop(heap)
            total ^= popped.count
    return total


def serve() -> None:
    os.nice(NICE)
    cells, rounds = _world()
    for keys in rounds:   # warm-up, not recorded
        workload(cells, keys)
    points = [(time.perf_counter(), time.process_time())]
    while not select.select([sys.stdin], [], [], 0)[0]:
        workload(cells, rounds[len(points) % len(rounds)])
        points.append((time.perf_counter(), time.process_time()))
    json.dump(points, sys.stdout)


if __name__ == "__main__":
    serve()
