"""Renderer and trajectory generator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltrack import (Frame, IntensityModel, NoiseParams, RigConfig, SceneState,
                     TrajectorySpec, WorldPosition, depth_resolution, intensity_at,
                     project, render)
from sltrack.synth import frame_timestamp_ms


def user_at(x, z, foot_width=25.0, t=0):
    return SceneState(user=WorldPosition(x, z), foot_width=foot_width,
                      timestamp_ms=t)


# --- frames ------------------------------------------------------------------

@pytest.mark.parametrize("pixels", [np.array([[300]], dtype=np.int64),
                                    np.array([[0.9]]), 0.9, [[7]]],
                         ids=["int64", "float-array", "float", "nested-list"])
def test_frame_refuses_pixels_that_are_not_a_uint8_array(pixels):
    # converting would wrap 300 to 44 and floor 0.9 to 0 without a word
    with pytest.raises(ValueError, match="pixel buffer must be a uint8 ndarray"):
        Frame(width=1, height=1, pixels=pixels)


def test_frame_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match=r"shape \(3, 2\) does not match 2x3"):
        Frame(width=3, height=2, pixels=np.zeros((3, 2), np.uint8))


@pytest.mark.parametrize("width,height,shape", [
    (3.0, 2, (2, 3)), (True, 2, (2, 1)), (3, 2.0, (2, 3)), (3, np.int64(2), (2, 3)),
], ids=["float-width", "bool-width", "float-height", "numpy-height"])
def test_frame_refuses_dimensions_that_are_not_ints(width, height, shape):
    # each passes the shape check, and write_pgm would put "3.0" or "True"
    # in a header that read_pgm refuses
    with pytest.raises(ValueError, match=r"(width|height): must be an int, got "):
        Frame(width=width, height=height, pixels=np.zeros(shape, np.uint8))


@pytest.mark.parametrize("seed", [1.5, True, np.int64(3)], ids=["float", "bool", "numpy"])
def test_noise_seed_refuses_a_value_that_is_not_an_int(seed):
    # numpy's default_rng refuses 1.5 naming no field, and reads True as 1
    with pytest.raises(ValueError, match=r"^seed: must be an int, got "):
        NoiseParams(background_sigma=1.0, seed=seed)


def test_frame_holds_its_rows_from_top_down():
    rows = np.zeros((1, 3), np.uint8)
    assert Frame(width=3, height=4, pixels=rows, top=3).pixels is rows
    # a top at the height holds no row
    assert Frame(width=3, height=4, pixels=np.zeros((0, 3), np.uint8), top=4).top == 4
    with pytest.raises(ValueError, match=r"shape \(4, 3\) does not match 3x3"):
        Frame(width=3, height=4, pixels=np.zeros((4, 3), np.uint8), top=1)


@pytest.mark.parametrize("top,message", [
    (-1, r"top: must lie in \[0, 4\], got -1"), (5, r"top: must lie in \[0, 4\], got 5"),
    (1.0, "top: must be an int, got 1.0"), (True, "top: must be an int, got True"),
], ids=["negative", "past-the-height", "float", "bool"])
def test_frame_refuses_a_top_outside_its_rows(top, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Frame(width=3, height=4, pixels=np.zeros((3, 3), np.uint8), top=top)


def test_frame_keeps_a_non_contiguous_uint8_view_as_given():
    flipped = np.arange(12, dtype=np.uint8).reshape(3, 4)[:, ::-1]
    assert Frame(width=4, height=3, pixels=flipped).pixels is flipped


# --- intensity model ---------------------------------------------------------

def test_intensity_at_reference_depth(intensity):
    assert intensity_at(intensity, 400.0) == 60.0


def test_intensity_inverse_square_hand_cases(intensity):
    assert intensity_at(intensity, 200.0) == 240.0   # 60 * (400/200)^2
    assert intensity_at(intensity, 100.0) == 255.0   # 60 * 16 = 960, capped


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


# --- render against its reference formula ------------------------------------

def reference_render(rig, scene, noise, im, index=0) -> np.ndarray:
    """The renderer as first written: a constant background of the mean at
    sigma 0, else a Gaussian one from ``rng.normal``, the foot run stamped
    at its row, the wall row stamped over the columns the body does not
    shadow (``setdiff1d``), then ``clip(rint(...))``."""
    h, w = rig.height, rig.width
    if noise.background_sigma > 0:
        rng = np.random.default_rng((noise.seed, index))
        img = rng.normal(noise.background_mean, noise.background_sigma, (h, w))
    else:
        img = np.full((h, w), float(noise.background_mean))

    def stamp(row, cols, level):
        if 0 <= round(row) < h:
            img[round(row), cols] += level

    wall_cols = np.arange(w)
    if scene.user is not None:
        (u, v), z = project(rig, scene.user), scene.user.z
        half = scene.foot_width * rig.f / z / 2.0
        cols = np.arange(max(math.ceil(u - half), 0),
                         min(math.floor(u + half), w - 1) + 1)
        stamp(v, cols, intensity_at(im, z))
        wall_cols = np.setdiff1d(wall_cols, cols)
    stamp(rig.back_wall_row, wall_cols, intensity_at(im, rig.z_b))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


@st.composite
def _render_case(draw):
    height = draw(st.sampled_from([240, 480]))
    width = draw(st.integers(1, 320))
    f = draw(st.floats(50.0, 800.0))
    z_b = draw(st.floats(100.0, 800.0))
    v0 = draw(st.floats(0.0, height / 2))
    wall_row = draw(st.floats(v0 + 1.0, height - 1.0))
    rig = RigConfig(d=(wall_row - v0) * z_b / f, f=f, z_b=z_b, width=width,
                    height=height, u0=draw(st.floats(0.0, width - 0.5)), v0=v0)
    if draw(st.booleans()):
        z = draw(st.floats(1.0, z_b))
        foot_width = draw(st.floats(0.01, 80.0))
        half = foot_width * f / z / 2.0
        # some feet run wholly off the sensor: ending up to 50 px left of
        # column 0, or starting up to 50 px right of the last column
        side = draw(st.sampled_from(["on", "left", "right"]))
        if side == "on":
            x = draw(st.floats(-2.0, 2.0)) * z
        else:
            gap = draw(st.floats(0.0, 50.0))
            u = -gap - half if side == "left" else width - 1 + gap + half
            x = (u - rig.u0) * z / f
        scene = SceneState(user=WorldPosition(x, z), foot_width=foot_width)
    else:
        scene = SceneState(user=None)
    noise = NoiseParams(
        background_sigma=draw(st.one_of(st.just(0.0), st.floats(0.01, 60.0),
                                        st.floats(1000.0, 1e6))),
        background_mean=draw(st.one_of(st.sampled_from([0.0, 0.5, 254.5, 255.0]),
                                       st.floats(0.0, 255.0))),
        seed=draw(st.integers(0, 2**63)))
    im = IntensityModel(i_ref=draw(st.floats(0.5, 255.0)),
                        z_ref=draw(st.floats(10.0, 1000.0)))
    return rig, scene, noise, im, draw(st.integers(0, 2**31))


@settings(max_examples=300, deadline=None, database=None)
@given(_render_case())
def test_render_matches_reference_formula(case):
    rig, scene, noise, im, index = case
    assert np.array_equal(render(rig, scene, noise, im, index=index).pixels,
                          reference_render(rig, scene, noise, im, index=index))


@pytest.mark.parametrize("sigma, mean", [(0.0, 0.0), (0.0, 0.5), (0.0, 254.5),
                                         (0.0, 255.0), (5000.0, 0.0), (1000.0, 255.0)])
def test_render_matches_reference_at_noise_extremes(rig, intensity, sigma, mean):
    # at sigma 0 the reference is the constant-mean frame; the half means
    # round to even, so a sign or an ulp off the mean would show
    noise = NoiseParams(background_sigma=sigma, background_mean=mean, seed=7)
    for scene in (user_at(10.0, 250.0), SceneState(user=None)):
        assert np.array_equal(render(rig, scene, noise, intensity, index=2).pixels,
                              reference_render(rig, scene, noise, intensity, index=2))


@pytest.mark.parametrize("sigma", [0.0, 10.0])
def test_render_refuses_a_negative_index_at_every_sigma(rig, intensity, sigma):
    # the index keys the noise stream at sigma 0 too, so it is refused alike
    noise = NoiseParams(background_sigma=sigma, background_mean=20.0, seed=7)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        render(rig, SceneState(user=None), noise, intensity, index=-1)


def test_foot_run_of_column_0_alone_is_drawn(rig, quiet, intensity):
    # u = 160 + 400 * -80 / 200 = 0 and a 0.5 px run: columns [0] only
    scene = user_at(-80.0, 200.0, foot_width=0.25)
    frame = render(rig, scene, quiet, intensity)
    assert np.flatnonzero(frame.pixels[200]).tolist() == [0]
    assert frame.pixels[200, 0] == 240
    assert np.flatnonzero(frame.pixels[160] == 0).tolist() == [0]  # shadowed
    assert np.array_equal(frame.pixels, reference_render(rig, scene, quiet,
                                                         intensity))


@pytest.mark.parametrize("x", [-150.0, -92.75, 92.25, 150.0],
                         ids=["left", "ends-at-column-minus-1", "starts-at-width",
                              "right"])
def test_foot_run_off_the_sensor_stamps_nothing(rig, quiet, intensity, x):
    # at z = 200 the 50 px run is centred on u = 160 + 2x, wholly off the
    # 320 columns; the foot row is 200 and the wall row 160, lit at 60
    scene = user_at(x, 200.0)
    frame = render(rig, scene, quiet, intensity)
    assert not frame.pixels[200].any()
    assert (frame.pixels[160] == 60).all()  # nothing shadows the wall
    assert np.array_equal(frame.pixels, reference_render(rig, scene, quiet,
                                                         intensity))


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


@pytest.mark.parametrize("b, still", [((-31.7, 151.3), True), ((29.9, 338.1), False)],
                         ids=["equal-endpoints", "moving"])
def test_stroll_positions_are_plain_floats(rig, b, still):
    states = trajectory("stroll", 10.0, 2.0, a=(-31.7, 151.3), b=b,
                        speed=37.3).materialize(rig)
    assert {(type(s.user.x), type(s.user.z)) for s in states} == {(float, float)}
    # with a == b the stroll stands still
    assert all(s.user == states[0].user for s in states) == still


@pytest.mark.parametrize("i,rate_hz,message", [
    (10**15, 1.0, "frame 1000000000000000: timestamp 1e+18 ms is not below 10**18"),
    (1, 1e-16, "frame 1: timestamp 1e+19 ms is not below 10**18"),
    (1, 1e-308, "frame 1: timestamp inf ms is not below 10**18"),
], ids=["10**18", "10**19", "inf"])
def test_a_frame_timestamp_that_no_csv_reads_back_is_refused(i, rate_hz, message):
    # round() of inf raised OverflowError; 10**19 ms was written, then refused
    # by the CSV reader as 20 digits
    with pytest.raises(ValueError) as exc_info:
        frame_timestamp_ms(i, rate_hz)
    assert str(exc_info.value) == message
    assert frame_timestamp_ms(i - 1, rate_hz) < 10**18  # the frame before reads


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


@pytest.mark.parametrize("build,message", [
    (lambda rig: RigConfig(d=40.0, f=400.0, z_b=400.0, width=320, height=240,
                           v0=240.0), r"v0: must lie in \[0, height\)"),
    (lambda rig: depth_resolution(rig, 0.0), r"z: must lie in \(0, z_b\]"),
    (lambda rig: depth_resolution(rig, rig.z_b + 1.0), r"z: must lie in \(0, z_b\]"),
    (lambda rig: SceneState(user=None, foot_width=0.0), "foot_width: must be > 0"),
    (lambda rig: NoiseParams(background_sigma=-1.0), "background_sigma: must be >= 0"),
    (lambda rig: NoiseParams(background_sigma=math.nan), "background_sigma: must be >= 0"),
    (lambda rig: NoiseParams(background_mean=256.0),
     r"background_mean: must lie in \[0, 255\]"),
    (lambda rig: IntensityModel(i_ref=0.0), r"i_ref: must lie in \(0, 255\]"),
    (lambda rig: IntensityModel(i_ref=256.0), r"i_ref: must lie in \(0, 255\]"),
    (lambda rig: intensity_at(IntensityModel(), 0.0), "z: must be > 0"),
    # each field is finite; only the frame count is not
    (lambda rig: trajectory("stationary", 10.0, 1e308, position=(0.0, 200.0)),
     "duration_s: must give a finite frame count"),
], ids=["rig-v0-past-the-height", "depth-resolution-z-0", "depth-resolution-past-z_b",
        "foot-width-0", "negative-sigma", "nan-sigma", "mean-past-255", "i_ref-0",
        "i_ref-past-255", "intensity-at-z-0", "infinite-frame-count"])
def test_out_of_range_values_are_refused_by_field_name(rig, build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(rig)
