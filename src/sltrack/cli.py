"""Command-line toolkit: simulate, calibrate, track, evaluate, bench.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error
(a missing file, or a directory given for a file, included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import io as slio
from .detect import Calibration, CalibrationError, calibrate
from .geometry import RigConfig
from .pipeline import evaluate, track_stream
from .stream import PositionStreamer, resolve_endpoint
from .synth import SceneState, frame_timestamp_ms, render, render_trajectory

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def write_calibration(cal: Calibration, path: str) -> None:
    slio.write_text(f"v_b={cal.v_b}\n", path)


def read_calibration(path: str, rig: RigConfig) -> Calibration:
    try:
        text = slio.read_text(path).strip()
        if not text.startswith("v_b="):
            raise ValueError("expected 'v_b=<int>'")
        return Calibration(v_b=slio.whole_number(text[len("v_b="):], "v_b"),
                           width=rig.width, height=rig.height)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise slio.ConfigError(f"calibration file {path}: {exc}") from None


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = slio.load_config(args.config)
    out_dir = Path(args.out_dir)
    states = cfg.trajectory.materialize(cfg.rig)
    names = [f"{i:06d}.pgm" for i in range(len(states))]
    # a clip mixed with another's frames would track and then fail to
    # evaluate, so refuse before anything is written
    if out_dir.exists():
        if not out_dir.is_dir():
            raise slio.ConfigError(f"output directory {out_dir}: not a directory")
        foreign = sorted(set(slio.pgm_names(out_dir)) - set(names))
        if foreign:
            raise slio.ConfigError(
                f"output directory {out_dir} holds {foreign[0]}, which is not "
                f"one of this clip's {len(names)} frames")
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_frame(i: int) -> None:
        frame = render(cfg.rig, states[i], cfg.noise, cfg.intensity, index=i)
        slio.write_pgm(frame, str(out_dir / names[i]))

    # frames are independent, and the noise fill, the ufuncs and the file
    # write release the GIL; the first error cancels the frames not started
    with ThreadPoolExecutor(_usable_cpus()) as pool:
        for _ in pool.map(write_frame, range(len(states))):
            pass
    slio.write_truth_csv(states, str(out_dir / "truth.csv"))
    print(f"wrote {len(states)} frames + truth.csv to {out_dir}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = slio.load_config(args.config)
    frame = slio.read_pgm(args.empty_frame)
    if (frame.width, frame.height) != (cfg.rig.width, cfg.rig.height):
        raise slio.ConfigError(
            f"{args.empty_frame}: frame is {frame.width}x{frame.height}, rig expects "
            f"{cfg.rig.width}x{cfg.rig.height}"
        )
    cal = calibrate(frame)
    if args.out:
        write_calibration(cal, args.out)
    print(f"v_b={cal.v_b}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = slio.load_config(args.config)
    cal = read_calibration(args.calibration, cfg.rig)
    # the detector reads rows v_b.. only, so no other row is read
    frames = slio.iter_pgm_dir(args.frames_dir, cfg.trajectory.rate_hz, top=cal.v_b)
    endpoint = resolve_endpoint(args.stream) if args.stream else None
    # the header alone, before any frame is tracked or sent: a CSV that cannot
    # be written fails the run here, and a run that fails later leaves no
    # rows of an earlier run behind
    slio.write_estimates_csv([], args.out_csv)
    streamer = PositionStreamer(endpoint) if endpoint else None
    try:
        estimates = track_stream(
            frames, cfg.rig, cal, cfg.detect, cfg.smoother,
            on_estimate=streamer.submit if streamer else None,
        )
    finally:
        if streamer:
            streamer.close()
            print(f"streamed {streamer.sent} packets to {args.stream} "
                  f"({streamer.dropped} dropped, {streamer.send_failures} failed)")
    slio.write_estimates_csv(estimates, args.out_csv)
    detected = sum(1 for e in estimates if e.pos is not None)
    print(f"tracked {len(estimates)} frames, {detected} with a position "
          f"-> {args.out_csv}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    rows = slio.read_estimates_csv(args.estimates_csv)
    truth = slio.read_truth_csv(args.truth_csv)
    metrics = evaluate(rows, truth)
    # (JSON key, label, value); a NaN metric had nothing to score: n/a, null
    report = [
        ("frames", "frames", len(rows)),
        ("detection_rate", "detection rate", metrics.detection_rate),
        ("rms_error_cm", "rms error (cm)", metrics.rms_error),
        ("max_error_cm", "max error (cm)", metrics.max_error),
        ("p95_error_cm", "p95 error (cm)", metrics.p95_error),
        ("within_10cm_fraction", "within 10 cm", metrics.within_10cm_fraction),
    ]
    for _, label, value in report:
        if isinstance(value, float):
            value = "n/a" if math.isnan(value) else f"{value:.3f}"
        print(f"{label + ':':19}{value}")
    if args.json:
        clean = {key: None if math.isnan(value) else value for key, _, value in report}
        slio.write_text(json.dumps(clean, indent=2) + "\n", args.json)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    n = slio.whole_number(args.frames, "frames")
    if n < 1:
        raise slio.ConfigError("bench: need at least one frame")
    cfg = slio.load_config(args.config)
    states = cfg.trajectory.materialize(cfg.rig)
    rate = cfg.trajectory.rate_hz
    # pre-render outside the timed region; the benchmark covers only the
    # detection + triangulation path. Frames past the end of the trajectory
    # replay it with timestamps that keep counting up.
    wrapped = [replace(states[i % len(states)], timestamp_ms=frame_timestamp_ms(i, rate))
               for i in range(n)]
    frames = render_trajectory(cfg.rig, wrapped, cfg.noise, cfg.intensity)
    empty = render(cfg.rig, SceneState(user=None), cfg.noise, cfg.intensity, index=n)
    cal = calibrate(empty)
    start = time.perf_counter()
    estimates = track_stream(frames, cfg.rig, cal, cfg.detect)
    elapsed = time.perf_counter() - start
    fps = n / elapsed if elapsed > 0 else float("inf")
    detected = sum(1 for e in estimates if e.pos is not None)
    print(f"{n} frames in {elapsed:.4f} s -> {fps:.1f} fps ({detected} detections)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sltrack`` parser, built on the first call and shared after it:
    parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="sltrack",
        description="Structured-light laser-line floor tracker toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a trajectory to PGM frames + truth CSV")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("calibrate", help="find the wall line row in an empty frame")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("empty_frame", help="PGM of the empty scene")
    p.add_argument("-o", "--out", help="write calibration file (v_b=<int>)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("track", help="track a directory of PGM frames")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--calibration", required=True, help="file from 'calibrate -o'")
    p.add_argument("frames_dir")
    p.add_argument("-o", "--out-csv", required=True)
    p.add_argument("--stream", metavar="HOST:PORT",
                   help="also publish SLT1 packets over UDP")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("evaluate", help="compare estimates CSV against truth CSV")
    p.add_argument("estimates_csv")
    p.add_argument("truth_csv")
    p.add_argument("--json", help="also write metrics as JSON")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("bench", help="measure detection+triangulation throughput")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-n", "--frames", required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
