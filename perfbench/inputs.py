"""Seeded input generation for the benchmark.

Everything the program under test receives is made here from the workload
seed: run configs (templates in ``configs/`` with ``noise.seed`` set to the
seed), a PGM clip plus truth CSV, the empty-scene calibration frame, and
the in-memory frames of the live workload. The trajectory stays fixed, so
only the noise differs between seeds and the amount of work does not.
"""

from __future__ import annotations

import json
from pathlib import Path

import sltrack
from sltrack.cli import write_calibration

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
# Frame index of the empty-scene frame; far beyond any clip index, so its
# noise never repeats a clip frame's.
EMPTY_INDEX = 10**6


def write_config(template: str, seed: int, path: Path,
                 frames: int | None = None) -> sltrack.RunConfig:
    """Copy a template with ``noise.seed`` set; ``frames`` shortens the
    trajectory to that many frames (for smoke runs)."""
    if seed < 0:
        raise ValueError("seed: must be >= 0")
    doc = json.loads((CONFIG_DIR / template).read_text(encoding="utf-8"))
    doc["noise"]["seed"] = seed
    if frames is not None:
        doc["trajectory"]["duration_s"] = frames / doc["trajectory"]["rate_hz"]
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return sltrack.load_config(str(path))


def empty_frame(cfg: sltrack.RunConfig) -> sltrack.Frame:
    return sltrack.render(cfg.rig, sltrack.SceneState(user=None), cfg.noise,
                          cfg.intensity, index=EMPTY_INDEX)


def write_empty_frame(cfg: sltrack.RunConfig, path: Path) -> None:
    sltrack.write_pgm(empty_frame(cfg), str(path))


def write_calibration_file(cfg: sltrack.RunConfig, path: Path) -> None:
    write_calibration(sltrack.calibrate(empty_frame(cfg)), str(path))


def write_clip(cfg: sltrack.RunConfig, out_dir: Path) -> int:
    """Render the config's trajectory to numbered PGMs + truth.csv, laid
    out as ``sltrack simulate`` writes them; returns the frame count."""
    out_dir.mkdir(parents=True)
    states = cfg.trajectory.materialize(cfg.rig)
    for i, state in enumerate(states):
        frame = sltrack.render(cfg.rig, state, cfg.noise, cfg.intensity, index=i)
        sltrack.write_pgm(frame, str(out_dir / f"{i:06d}.pgm"))
    sltrack.write_truth_csv(states, str(out_dir / "truth.csv"))
    return len(states)


def live_frames(cfg: sltrack.RunConfig, count: int
                ) -> tuple[list[sltrack.Frame], list[sltrack.SceneState]]:
    """``count`` frames cycling over one rendered loop of the trajectory.

    The loop is rendered once; later laps reuse its pixel buffers under
    new indices and timestamps, so frame memory stays one loop's worth.
    The template's duration is one whole period, so laps join smoothly.
    """
    states = cfg.trajectory.materialize(cfg.rig)
    loop = sltrack.render_trajectory(cfg.rig, states, cfg.noise, cfg.intensity)
    rate = cfg.trajectory.rate_hz
    frames = [
        sltrack.Frame(width=cfg.rig.width, height=cfg.rig.height,
                      pixels=loop[i % len(loop)].pixels,
                      timestamp_ms=round(i * 1000.0 / rate), index=i)
        for i in range(count)
    ]
    truth = [states[i % len(states)] for i in range(count)]
    return frames, truth
