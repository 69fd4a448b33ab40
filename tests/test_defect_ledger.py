"""Defect ledger: each open ROADMAP direction that bears on the paper's
±10 cm claim, as a strict xfail that asserts the direction's done-criterion.

A test here XPASSes exactly when its direction lands, and its strict mark
then fails the suite until the change that lands it removes the mark. Each
assertion message prints the measured value, so ``pytest -rxX`` lists the
open directions and how far off each one is. Scenes are test-local, at most
200 frames each, on the reference rig and config unless a test names
another noise.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import REFERENCE_CONFIG, file_of
from sltrack import (Calibration, CalibrationError, Frame, IntensityModel,
                     NoiseParams, SceneState, WorldPosition, calibrate, detect_feet,
                     evaluate, load_config, project, render, track_stream)
from sltrack.cli import main
from sltrack.synth import _run_columns, _stamp_line, intensity_at

CFG = load_config(REFERENCE_CONFIG)
RIG = CFG.rig
# the reference rig's wall row, where calibrate puts it on an empty frame
CAL = Calibration(v_b=160, width=RIG.width, height=RIG.height)
QUIET = NoiseParams(background_sigma=0.0, background_mean=0.0, seed=0)


def xfail(direction: int, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP direction {direction}: {what}")


@functools.cache
def stroll() -> tuple[list[SceneState], list[Frame], list[Frame]]:
    """The 200-frame reference stroll: its states, its frames, and the same
    frames drawn without noise (the lines alone)."""
    states = CFG.trajectory.materialize(RIG)
    noisy = [render(RIG, s, CFG.noise, CFG.intensity, index=i)
             for i, s in enumerate(states)]
    lines = [render(RIG, s, QUIET, CFG.intensity, index=i) for i, s in enumerate(states)]
    return states, noisy, lines


def thickened(frame: Frame, lines: Frame, row: int) -> Frame:
    """``frame`` with the line pixels of ``row`` drawn again on the row below:
    a line two rows tall."""
    px = frame.pixels.astype(np.int16)
    px[row + 1] += lines.pixels[row]
    return dataclasses.replace(frame, pixels=np.clip(px, 0, 255).astype(np.uint8))


def errors(frames: list[Frame], states: list[SceneState],
           cal: Calibration = CAL) -> list[float | None]:
    """Each frame's floor-plane error against its truth, None where the
    tracker gives no position."""
    return [None if e.pos is None else math.hypot(e.pos.x - s.user.x, e.pos.z - s.user.z)
            for e, s in zip(track_stream(frames, RIG, cal, CFG.detect), states)]


# --- 24: the wall line is measured in every frame -----------------------------

@xfail(24, "a wall moved by whole rows is tracked against the calibrated row")
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_a_rolled_wall_gives_no_position_off_by_more_than_10_cm(rows):
    # the rig pitched after calibration: the whole image shifts down `rows`
    states, noisy, _ = stroll()
    rolled = [dataclasses.replace(f, pixels=np.roll(f.pixels, rows, axis=0)) for f in noisy]
    off = sum(e is not None and e > 10.0 for e in errors(rolled, states))
    assert off <= len(states) / 2, (
        f"wall rolled +{rows}: {off} of {len(states)} frames off by > 10 cm")


@xfail(24, "the second row of a 2-row wall reads as a foot")
def test_a_2_row_wall_tracks_within_5_cm_rms():
    states, noisy, lines = stroll()
    thick = [thickened(f, q, CAL.v_b) for f, q in zip(noisy, lines)]
    m = evaluate(track_stream(thick, RIG, CAL, CFG.detect), states)
    assert m.rms_error <= 5.0, (
        f"2-row wall: RMS {m.rms_error:.1f} cm, detection {m.detection_rate:.3f}")


# --- 16: a foot line has thickness --------------------------------------------

@xfail(16, "a 2-row foot line takes its lower row, a one-row bias")
def test_a_2_row_foot_line_tracks_within_1_5x_the_1_row_rms():
    states, noisy, lines = stroll()
    thick = [thickened(f, q, round(project(RIG, s.user)[1]))
             for f, q, s in zip(noisy, lines, states)]
    thin_rms = evaluate(track_stream(noisy, RIG, CAL, CFG.detect), states).rms_error
    thick_rms = evaluate(track_stream(thick, RIG, CAL, CFG.detect), states).rms_error
    assert thick_rms <= 1.5 * thin_rms, (
        f"2-row foot line: RMS {thick_rms:.2f} cm against {thin_rms:.2f} cm at 1 row")


# --- 14: calibrate wherever the tracker tracks ----------------------------------

@xfail(14, "calibrate's noise gates refuse low-signal rigs that track at <= 2.6 cm")
@pytest.mark.parametrize("sigma,i_ref", [(10.0, 25.0), (20.0, 40.0), (30.0, 60.0)])
def test_calibrate_finds_the_wall_on_a_low_signal_rig(sigma, i_ref):
    noise = NoiseParams(background_sigma=sigma, background_mean=CFG.noise.background_mean,
                        seed=CFG.noise.seed)
    im = IntensityModel(i_ref=i_ref, z_ref=CFG.intensity.z_ref)
    empty = render(RIG, SceneState(user=None), noise, im, index=10**6)
    try:
        found = f"v_b={calibrate(empty).v_b}"
    except CalibrationError as exc:
        found = f"refused: {exc}"
    assert found == "v_b=160", f"sigma {sigma:g}, i_ref {i_ref:g}: {found}"


# --- 17: a user has two feet --------------------------------------------------

def two_feet_frame(feet: list[WorldPosition], width_cm: float, index: int) -> Frame:
    """A reference-noise frame of two feet: the nearer foot is lit first,
    and the fan it blocks lights neither the farther foot nor the wall."""
    h, w = RIG.height, RIG.width
    img = np.random.default_rng((CFG.noise.seed, index)).standard_normal((h, w))
    img = img * CFG.noise.background_sigma + CFG.noise.background_mean
    lit = np.ones(w, dtype=bool)  # columns the fan still reaches
    for foot in sorted(feet, key=lambda p: p.z):
        (u, v), run = project(RIG, foot), np.zeros(w, dtype=bool)
        run[_run_columns(u, width_cm * RIG.f / foot.z, w)] = True
        _stamp_line(img, v, run & lit, intensity_at(CFG.intensity, foot.z))
        lit &= ~run
    _stamp_line(img, RIG.back_wall_row, lit, intensity_at(CFG.intensity, RIG.z_b))
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return Frame(width=w, height=h, pixels=pixels, index=index)


@xfail(17, "the longest run is one foot, not the user between the feet")
def test_two_feet_20_cm_apart_at_a_30_cm_stride_track_within_10_cm():
    # 10 cm feet 20 cm apart in x, each +-15 cm in z over a 25-frame gait
    # cycle, about the reference stroll; the truth is their midpoint
    states, _, _ = stroll()
    frames = []
    for i, s in enumerate(states):
        step = 15.0 * math.sin(2.0 * math.pi * i / 25)
        feet = [WorldPosition(s.user.x - 10.0, s.user.z + step),
                WorldPosition(s.user.x + 10.0, s.user.z - step)]
        frames.append(two_feet_frame(feet, 10.0, i))
    within = sum(e is not None and e <= 10.0 for e in errors(frames, states))
    assert within >= 0.99 * len(states), (
        f"two feet: {within} of {len(states)} frames within 10 cm")


# --- 13: a foot cut by the frame edge is not a whole foot -----------------------

@xfail(13, "the sliver of a foot cut by the right edge triangulates as a whole foot")
def test_a_foot_cut_by_the_right_edge_is_placed_within_1_5_px_or_not_at_all():
    # a 25 cm (50 px) foot at z 200 steps right 5 px every 10 frames, from
    # u 270-320 to u 320-370: its imaged part shrinks from 50 columns to none
    centres = [295 + 5 * (i // 10) for i in range(110)]
    states = [SceneState(user=WorldPosition((u - RIG.u0) * 200.0 / RIG.f, 200.0),
                         foot_width=25.0) for u in centres]
    frames = [render(RIG, s, CFG.noise, CFG.intensity, index=i)
              for i, s in enumerate(states)]
    bound = 1.5 * 200.0 / RIG.f
    off = [(e, u) for e, u in zip(errors(frames, states), centres)
           if e is not None and e > bound]
    worst, at = max(off, default=(0.0, None))
    assert not off, (
        f"cut foot: {len(off)} of {len(states)} frames off by > {bound:.2f} cm, "
        f"worst {worst:.2f} cm with the foot centred at u {at}")


# --- 21: track needs only what a rig has ---------------------------------------

@xfail(21, "track needs the simulator's trajectory, noise and intensity sections")
def test_track_runs_from_a_config_of_the_rig_side_sections(tmp_path, capsys):
    clip, cal, out = tmp_path / "clip", tmp_path / "cal.txt", tmp_path / "estimates.csv"
    assert main(["simulate", "-c", REFERENCE_CONFIG, "-o", str(clip)]) == 0
    cal.write_text("v_b=160\n", encoding="utf-8")
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    rig_side = {name: doc[name] for name in ("rig", "detect", "smoother")}
    config = file_of(json.dumps(rig_side), tmp_path / "rig.json")
    capsys.readouterr()
    status = main(["track", "-c", config, "--calibration", str(cal), str(clip),
                   "-o", str(out)])
    err = capsys.readouterr().err.strip()
    assert status == 0, f"track from the rig-side sections exits {status}: {err}"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest.startswith("af3af516"), f"estimates CSV digest {digest[:8]}..."


# --- 12's residue: an empty room at low signal --------------------------------

@xfail(12, "noise runs at sigma 30 still pass the reference min_run; for 15, 22 or 23")
def test_an_empty_room_at_sigma_30_gives_at_most_1_phantom_in_200():
    noise = NoiseParams(background_sigma=30.0, background_mean=CFG.noise.background_mean,
                        seed=CFG.noise.seed)
    phantoms = sum(
        detect_feet(render(RIG, SceneState(user=None), noise, CFG.intensity,
                           index=10**6 + i), CAL, CFG.detect) is not None
        for i in range(1, 201))
    assert phantoms <= 1, f"sigma 30: {phantoms} of 200 empty frames give a position"
