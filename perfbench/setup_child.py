"""Fresh-process set-up cost of one workload, in CPU seconds.

``python3 perfbench/setup_child.py WORKLOAD SEED`` times, from a cold
interpreter: importing ``repro``, building and validating the spec, and
warming the prototype cache once per distinct home topology — the work
every process pays before its first home runs.  It prints
``began ended cpu_s``: the ``perf_counter`` interval (one clock for all
processes on Linux), so the runner can read the host-speed probe over
it, and the CPU seconds spent.
"""

import os
import sys
import time

began = time.perf_counter()
cpu = time.process_time()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import repro  # noqa: E402,F401
from repro.scenarios import load_builtin_attacks  # noqa: E402
from repro.scenarios.prototype import PROTOTYPES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

load_builtin_attacks()
spec = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
spec.validate()
for home in spec.homes:   # the cache builds once per topology
    PROTOTYPES.warm(home)
cpu = time.process_time() - cpu
print(began, time.perf_counter(), cpu)
