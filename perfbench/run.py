#!/usr/bin/env python3
"""sltrack benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Workloads are ``replay``, ``simulate`` and ``live`` (see README.md here).
The package is imported from ``./src``; nothing is installed. Inputs are
generated from ``--seed`` into a scratch directory under ``--workdir``,
which is removed afterwards. ``--trace 1`` adds a traced half-run and
writes its spans to ``<workdir>/spans-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics BENCHMARK.json lists,
or with ``--trace 1`` the per-layer ones, each as ``{"value", "unit"}``).
The line before it is a report with host facts, sample counts and check
notes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Fresh-process set-up samples taken before and after the timed run, so a
# slow spell of the host at either end does not set the median alone.
PROBES_BEFORE, PROBES_AFTER = 4, 5
PROBE_TIMEOUT_S = 60

# Per-layer metrics of the live workload's stream and schedule; the closed
# loops never call those layers, so theirs read 0.
LIVE_ONLY_LAYERS = ("stream.delivery.p50_ms", "stream.sent", "stream.dropped",
                    "stream.send_failures", "live.generator_lag_p99_ms")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("replay", "simulate", "live"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", default=".perfbench-work",
                   help="scratch directory for inputs and spans")
    p.add_argument("--frames", type=int,
                   help="clip length for replay and simulate (default: the "
                        "config's 600 frames); for quick smoke runs")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.frames is not None and args.frames < 2:
        p.error("--frames must be >= 2")
    return args


def import_package(src: Path):
    """Import sltrack from this checkout's ``src``, never from elsewhere."""
    if not (src / "sltrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no sltrack package under {src}; run from "
                         f"the repository root")
    sys.path.insert(0, str(src))
    import sltrack
    if Path(sltrack.__file__).resolve().parent != (src / "sltrack").resolve():
        raise SystemExit(f"error: imported sltrack from {sltrack.__file__}")
    return sltrack


def probe_setup(src: Path, config: Path, empty: Path, count: int) -> list[dict]:
    """Fresh-process set-up samples, each its own interpreter."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(src), str(config),
             str(empty)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["module"]).resolve().parent != (src / "sltrack").resolve():
            raise SystemExit(f"error: probe imported {sample['module']}")
        samples.append(sample)
    return samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sltrack = import_package(root / "src")
    import numpy as np
    import resource

    import workloads

    host = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sltrack": sltrack.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    workdir = root / args.workdir
    work = workdir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        load = workloads.make(args.workload, work, args.seed, args.seconds,
                              args.frames)
        probes = probe_setup(root / "src", load.config, load.empty, PROBES_BEFORE)
        out = workloads.Outcome()
        load.run(out, args.seconds, bool(args.trace))
        probes += probe_setup(root / "src", load.config, load.empty, PROBES_AFTER)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()

    def med(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    out.e2e["setup_s"] = med("setup_s")
    out.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.layer["cli.import.ms"] = med("import_ms")
    out.layer["io.load_config.ms"] = med("load_config_ms")
    out.layer["detect.calibrate.ms"] = med("calibrate_ms")
    for name in LIVE_ONLY_LAYERS:
        out.layer.setdefault(name, 0)
    if out.tracer is not None:
        spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out.tracer.write(spans_path)
        out.samples["spans"] = len(out.tracer.spans)

    values = out.layer if args.trace else out.e2e
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted
               if not math.isfinite(values.get(m["name"], math.nan))]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "samples": out.samples,
        "failed_fraction": out.failed / max(out.attempted, 1),
        "end_to_end": out.e2e, "per_layer": out.layer,
        "missing": missing, "notes": out.notes,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": out.failed == 0 and out.accuracy_ok and not missing,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": 0.0 if m["name"] in missing
                                else values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
