"""Set-up probe, run in a fresh interpreter: import sltrack, load a config,
read the empty-scene frame and calibrate on it. Prints one JSON line of
timings in ms.

Usage: python3 perfbench/probe.py SRC_DIR CONFIG EMPTY_PGM
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sltrack  # noqa: E402
t1 = time.perf_counter()
cfg = sltrack.load_config(sys.argv[2])
t2 = time.perf_counter()
cal = sltrack.calibrate(sltrack.read_pgm(sys.argv[3]))
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "module": sltrack.__file__,
    "v_b": cal.v_b,
    "import_ms": (t1 - t0) * 1e3,
    "load_config_ms": (t2 - t1) * 1e3,
    "calibrate_ms": (t3 - t2) * 1e3,
    "setup_s": t3 - t0,
}))
