"""Renderer and trajectory generator."""

from __future__ import annotations

import numpy as np
import pytest

from sltrack import (IntensityModel, NoiseParams, SceneState, TrajectorySpec,
                     WorldPosition, intensity_at, render)


def user_at(x, z, foot_width=25.0, t=0):
    return SceneState(user=WorldPosition(x, z), foot_width=foot_width,
                      timestamp_ms=t)


# --- intensity model ---------------------------------------------------------

def test_intensity_at_reference_depth(intensity):
    assert intensity_at(intensity, 400.0) == 60.0


def test_intensity_inverse_square_hand_cases(intensity):
    assert intensity_at(intensity, 200.0) == 240.0   # 60 * (400/200)^2
    assert intensity_at(intensity, 100.0) == 255.0   # 60 * 16 = 960, clamped


def test_intensity_monotone_non_increasing(intensity):
    depths = np.linspace(20.0, 800.0, 200)
    values = [intensity_at(intensity, z) for z in depths]
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- rendering ---------------------------------------------------------------

def test_empty_scene_zero_noise_has_only_wall_row(rig, quiet, intensity):
    frame = render(rig, SceneState(user=None), quiet, intensity)
    nonzero_rows = np.unique(np.nonzero(frame.pixels)[0])
    assert nonzero_rows.tolist() == [160]
    assert np.all(frame.pixels[160] == 60)  # intensity at z_b


def test_user_run_rows_and_occlusion(rig, quiet, intensity):
    # z = 200: foot row 120+80, wall row 120+40; run half-width 25 px
    frame = render(rig, user_at(0.0, 200.0), quiet, intensity)
    foot_cols = np.flatnonzero(frame.pixels[200])
    assert foot_cols.min() == 160 - 25 and foot_cols.max() == 160 + 25
    assert np.all(frame.pixels[200, foot_cols] == 240)
    # wall line interrupted exactly behind the feet
    wall_cols = np.flatnonzero(frame.pixels[160])
    assert set(foot_cols).isdisjoint(set(wall_cols))
    assert wall_cols.min() == 0 and wall_cols.max() == 319
    # nothing else lit
    other = np.delete(np.arange(240), [160, 200])
    assert not frame.pixels[other].any()


def test_render_determinism_bit_identical(rig, intensity):
    noise = NoiseParams(background_sigma=10.0, background_mean=20.0, seed=99)
    a = render(rig, user_at(10.0, 250.0), noise, intensity, index=3)
    b = render(rig, user_at(10.0, 250.0), noise, intensity, index=3)
    assert np.array_equal(a.pixels, b.pixels)
    c = render(rig, user_at(10.0, 250.0), noise, intensity, index=4)
    assert not np.array_equal(a.pixels, c.pixels)


def test_run_width_shrinks_with_depth(rig, quiet, intensity):
    widths = []
    for z in (150.0, 200.0, 250.0, 300.0, 350.0):
        frame = render(rig, user_at(0.0, z), quiet, intensity)
        row = round(120 + 16000 / z)
        widths.append(np.count_nonzero(frame.pixels[row]))
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_foot_row_outside_frame_renders_no_run(rig, quiet, intensity):
    # z = 100 -> row 280, beyond the 240-row sensor: only the wall remains
    frame = render(rig, user_at(0.0, 100.0), quiet, intensity)
    nonzero_rows = np.unique(np.nonzero(frame.pixels)[0])
    assert nonzero_rows.tolist() == [160]
    # the user still shadows the wall even though the reflection is unseen
    assert not frame.pixels[160, 110:210].any()


def test_background_noise_statistics(rig, intensity):
    noise = NoiseParams(background_sigma=10.0, background_mean=20.0, seed=5)
    frame = render(rig, SceneState(user=None), noise, intensity)
    background = np.delete(frame.pixels, 160, axis=0).astype(float)
    assert background.mean() == pytest.approx(20.0, abs=0.5)
    assert background.std() == pytest.approx(10.0, abs=0.5)


def test_user_behind_wall_rejected(rig, quiet, intensity):
    with pytest.raises(ValueError):
        render(rig, user_at(0.0, 450.0), quiet, intensity)


# --- trajectories ------------------------------------------------------------

def trajectory(kind, rate_hz, duration_s, **params) -> TrajectorySpec:
    return TrajectorySpec(kind, rate_hz, duration_s, 25.0, params)


def test_stationary_trajectory_counts_and_timestamps(rig):
    states = trajectory("stationary", 20.0, 1.0,
                        position=(0.0, 200.0)).materialize(rig)
    assert len(states) == 20
    assert [s.timestamp_ms for s in states] == [i * 50 for i in range(20)]
    assert all(s.user == WorldPosition(0.0, 200.0) for s in states)


def test_circle_radius_zero_is_stationary(rig):
    states = trajectory("circle", 10.0, 1.0, center=(0.0, 250.0), radius=0.0,
                        omega=1.0).materialize(rig)
    assert all(s.user == WorldPosition(0.0, 250.0) for s in states)


def test_stroll_midpoint_frame_is_endpoint_average(rig):
    # one leg takes 10 s at speed 20 (|AB| = 200); run for the leg duration
    a, b = (-50.0, 200.0), (50.0, 373.2050807568877)
    states = trajectory("stroll", 20.0, 10.0, a=a, b=b,
                        speed=20.0).materialize(rig)
    mid = states[len(states) // 2].user
    assert mid.x == pytest.approx((a[0] + b[0]) / 2, abs=1e-9)
    assert mid.z == pytest.approx((a[1] + b[1]) / 2, abs=1e-9)


def test_stroll_returns_to_start(rig):
    # out and back: 2 legs of 5 s each
    states = trajectory("stroll", 10.0, 10.0, a=(0.0, 150.0), b=(0.0, 250.0),
                        speed=20.0).materialize(rig)
    assert states[0].user.z == pytest.approx(150.0)
    assert states[50].user.z == pytest.approx(250.0)  # t = 5 s
    assert states[-1].user.z == pytest.approx(150.0 + 20.0 * 0.1)  # t = 9.9 s


def test_trajectory_exiting_workspace_rejected(rig):
    # nothing rig-free is wrong with either spec: it fails only on sampling
    beyond_wall = trajectory("stroll", 10.0, 10.0, a=(0.0, 200.0),
                             b=(0.0, 500.0), speed=100.0)
    with pytest.raises(ValueError, match="workspace"):
        beyond_wall.materialize(rig)
    behind_camera = trajectory("circle", 10.0, 10.0, center=(0.0, 20.0),
                               radius=40.0, omega=1.0)
    with pytest.raises(ValueError, match=r"exits workspace at frame 37: z=-1\.193"):
        behind_camera.materialize(rig)


def test_trajectory_input_validation():
    with pytest.raises(ValueError):
        trajectory("moonwalk", 10.0, 1.0)
    with pytest.raises(ValueError):
        trajectory("stationary", 0.0, 1.0, position=(0, 200))
