"""Tracking pipeline: per-frame estimates, smoothing, and metrics."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sltrack.pipeline
from sltrack import (Calibration, Detection, NoiseParams, PositionEstimate,
                     SceneState, SmootherConfig, TriangulationError,
                     WorldPosition, calibrate, depth_resolution, evaluate,
                     render, track_frame, track_stream, triangulate,
                     triangulate_detection)

CAL = Calibration(v_b=160, width=320, height=240)


def noiseless_frame(rig, quiet, intensity, x, z, index=0, t=0):
    scene = SceneState(user=WorldPosition(x, z), timestamp_ms=t)
    return render(rig, scene, quiet, intensity, index=index)


def estimate(i, t, x=None, z=None):
    pos = WorldPosition(x, z) if x is not None else None
    det = Detection(u_f=160.0, v_f=200, run_len=10, mass=100) if pos else None
    return PositionEstimate(frame_index=i, timestamp_ms=t, pos=pos, detection=det)


def truth(n, x=0.0, z=200.0):
    return [SceneState(user=WorldPosition(x, z), timestamp_ms=50 * i)
            for i in range(n)]


# --- track_frame -------------------------------------------------------------

def test_empty_scene_yields_absent_estimate(rig, quiet, intensity, detect_params):
    frame = render(rig, SceneState(user=None), quiet, intensity)
    est = track_frame(frame, rig, CAL, detect_params)
    assert est.pos is None and est.detection is None


def test_noiseless_user_recovered_within_quantization(rig, quiet, intensity,
                                                      detect_params):
    frame = noiseless_frame(rig, quiet, intensity, 0.0, 200.0)
    est = track_frame(frame, rig, CAL, detect_params)
    assert est.pos is not None
    assert abs(est.pos.z - 200.0) <= 1.5 * depth_resolution(rig, 200.0)
    assert abs(est.pos.x) <= 1.5 * 200.0 / rig.f


def test_run_just_below_wall_row_gives_depth_just_below_wall(rig, detect_params):
    from sltrack import Frame
    frame = Frame(width=320, height=240,
                  pixels=np.zeros((240, 320), dtype=np.uint8))
    frame.pixels[161, 100:120] = 200
    est = track_frame(frame, rig, CAL, detect_params)
    # one-pixel disparity: z = 16000*400/16400
    assert est.pos.z == pytest.approx(390.2439, abs=1e-3)
    assert est.pos.z < rig.z_b


def test_dimension_mismatch_is_configuration_error(rig, detect_params):
    from sltrack import Frame
    small = Frame(width=160, height=120,
                  pixels=np.zeros((120, 160), dtype=np.uint8))
    with pytest.raises(ValueError):
        track_frame(small, rig, CAL, detect_params)


def test_corrupt_detection_triangulation_absorbed(rig):
    # v_f above the wall row: depth denominator goes non-positive
    corrupt = Detection(u_f=160.0, v_f=100, run_len=5, mass=50)
    assert triangulate_detection(rig, CAL, corrupt) is None
    with pytest.raises(TriangulationError):
        triangulate(rig, 160.0, 100.0, 160.0)


# the rig fixtures are frozen values, so one per test serves every example
@pytest.mark.parametrize("rig_name", ["rig", "full_depth_rig"])
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sigma=st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1),
       user=st.none() | st.builds(WorldPosition, st.floats(-150.0, 150.0),
                                  st.floats(45.0, 400.0)))
def test_every_detection_of_a_noisy_frame_has_a_position(
        request, rig_name, intensity, detect_params, sigma, seed, user):
    # detect_feet returns rows below the wall row only, where the depth
    # denominator is positive: triangulation cannot reject its detections
    rig = request.getfixturevalue(rig_name)
    cal = Calibration(v_b=160, width=rig.width, height=rig.height)
    noise = NoiseParams(background_sigma=sigma, background_mean=10.0, seed=seed)
    frame = render(rig, SceneState(user=user), noise, intensity)
    est = track_frame(frame, rig, cal, detect_params)
    assert (est.pos is None) == (est.detection is None)


# --- track_stream --------------------------------------------------------------

def test_stream_estimate_count_and_identity_without_smoothing(rig, quiet,
                                                              intensity,
                                                              detect_params):
    frames = [noiseless_frame(rig, quiet, intensity, 0.0, 200.0 + 10 * i,
                              index=i, t=50 * i) for i in range(10)]
    raw = [track_frame(f, rig, CAL, detect_params) for f in frames]
    streamed = track_stream(frames, rig, CAL, detect_params,
                            SmootherConfig(alpha=0.5, enabled=False))
    assert streamed == raw
    assert len(streamed) == len(frames)


def test_stream_alpha_one_equals_raw(rig, quiet, intensity, detect_params):
    frames = [noiseless_frame(rig, quiet, intensity, 5.0, 180.0 + 15 * i,
                              index=i, t=50 * i) for i in range(8)]
    raw = track_stream(frames, rig, CAL, detect_params,
                       SmootherConfig(alpha=1.0, enabled=False))
    smoothed = track_stream(frames, rig, CAL, detect_params,
                            SmootherConfig(alpha=1.0, enabled=True))
    assert [e.pos for e in smoothed] == [e.pos for e in raw]


def test_stream_smoothing_reduces_variance(rig, detect_params, monkeypatch):
    # oracle: exponential smoothing of i.i.d. noise has variance ratio
    # alpha/(2-alpha) ~ 0.053 at alpha=0.1; assert strict reduction over
    # 500 synthetic estimates with quantization-level z jitter
    rng = np.random.default_rng(11)
    zs = 200.0 + rng.normal(0.0, 2.0, 500)
    ests = [estimate(i, 50 * i, 0.0, float(z)) for i, z in enumerate(zs)]
    monkeypatch.setattr(sltrack.pipeline, "track_frame",
                        lambda frame, *_: ests[frame.index])
    frames = [SimpleNamespace(index=e.frame_index, timestamp_ms=e.timestamp_ms)
              for e in ests]

    out = track_stream(frames, rig, CAL, detect_params,
                       SmootherConfig(alpha=0.1, enabled=True))
    smoothed = [e.pos.z for e in out]
    assert [e.detection for e in out] == [e.detection for e in ests]
    assert smoothed[:2] == [zs[0], 0.1 * zs[1] + (1 - 0.1) * zs[0]]
    assert np.var(smoothed) < np.var(zs)
    assert np.var(smoothed) / np.var(zs) == pytest.approx(0.1 / 1.9, rel=0.5)


def test_smoother_left_unset_is_on_iff_alpha_below_1(rig, detect_params,
                                                     monkeypatch):
    zs = [200.0, 210.0, 190.0, 205.0]
    ests = [estimate(i, 50 * i, 0.0, z) for i, z in enumerate(zs)]
    monkeypatch.setattr(sltrack.pipeline, "track_frame",
                        lambda frame, *_: ests[frame.index])
    frames = [SimpleNamespace(index=e.frame_index, timestamp_ms=e.timestamp_ms)
              for e in ests]

    def stream(smoother):
        return track_stream(frames, rig, CAL, detect_params, smoother)

    assert SmootherConfig().enabled is False
    assert stream(SmootherConfig()) == ests
    assert SmootherConfig(alpha=0.3) == SmootherConfig(alpha=0.3, enabled=True)
    smoothed = stream(SmootherConfig(alpha=0.3))
    assert smoothed == stream(SmootherConfig(alpha=0.3, enabled=True))
    assert [e.pos.z for e in smoothed][:2] == [200.0, 0.3 * 210.0 + 0.7 * 200.0]
    assert stream(SmootherConfig(alpha=0.3, enabled=False)) == ests


def test_stream_smoothing_preserves_absence_and_resets(rig, quiet, intensity,
                                                       detect_params):
    import copy
    present = noiseless_frame(rig, quiet, intensity, 0.0, 200.0)
    moved = noiseless_frame(rig, quiet, intensity, 30.0, 250.0)
    absent = render(rig, SceneState(user=None), quiet, intensity)
    frames = []
    for i, src in enumerate([present, present, absent, moved]):
        f = copy.deepcopy(src)
        f.index, f.timestamp_ms = i, 50 * i
        frames.append(f)
    out = track_stream(frames, rig, CAL, detect_params,
                       SmootherConfig(alpha=0.2, enabled=True))
    assert [e.pos is not None for e in out] == [True, True, False, True]
    # state reset: the post-gap estimate equals its raw value, not one
    # dragged toward the position before the gap
    raw = track_frame(frames[3], rig, CAL, detect_params)
    assert out[3].pos == raw.pos
    assert raw.pos != out[1].pos


def test_stream_all_empty_frames(rig, quiet, intensity, detect_params):
    frames = []
    import copy
    empty = render(rig, SceneState(user=None), quiet, intensity)
    for i in range(5):
        f = copy.deepcopy(empty)
        f.index, f.timestamp_ms = i, 50 * i
        frames.append(f)
    out = track_stream(frames, rig, CAL, detect_params,
                       SmootherConfig(alpha=0.2, enabled=True))
    assert all(e.pos is None and e.detection is None for e in out)


def test_stream_hands_each_estimate_to_on_estimate_before_the_next_frame(
        rig, quiet, intensity, detect_params):
    # smoothing on, frames from a generator, a gap in the middle: on_estimate
    # gets each returned estimate once, in order, before the next frame is
    # pulled
    events = []

    def frames():
        for i, x in enumerate([0.0, 5.0, None, 10.0, 15.0]):
            user = WorldPosition(x, 200.0 + 10 * i) if x is not None else None
            events.append(("pull", i))
            yield render(rig, SceneState(user=user, timestamp_ms=50 * i), quiet,
                         intensity, index=i)

    out = track_stream(frames(), rig, CAL, detect_params,
                       SmootherConfig(alpha=0.3),
                       on_estimate=lambda e: events.append(("estimate", e)))
    assert [e.pos is not None for e in out] == [True, True, False, True, True]
    assert events == [event for i, e in enumerate(out)
                      for event in (("pull", i), ("estimate", e))]
    assert all(e is event[1] for e, event in zip(out, events[1::2]))


def test_stream_rejects_out_of_order_timestamps(rig, quiet, intensity,
                                                detect_params):
    a = noiseless_frame(rig, quiet, intensity, 0.0, 200.0, index=0, t=100)
    b = noiseless_frame(rig, quiet, intensity, 0.0, 200.0, index=1, t=50)
    with pytest.raises(ValueError, match="timestamp"):
        track_stream([a, b], rig, CAL, detect_params)


# --- evaluate ------------------------------------------------------------------

def test_evaluate_perfect_estimates(rig):
    ests = [estimate(i, 50 * i, 0.0, 200.0) for i in range(20)]
    m = evaluate(ests, truth(20))
    assert m.rms_error == 0.0 and m.max_error == 0.0
    assert m.within_10cm_fraction == 1.0
    assert m.detection_rate == 1.0


def test_evaluate_three_four_five_triangle():
    ests = [estimate(0, 0, 6.0, 208.0)]  # error vector (6, 8): length 10
    m = evaluate(ests, truth(1))
    assert m.rms_error == pytest.approx(10.0)
    assert m.max_error == pytest.approx(10.0)
    assert m.within_10cm_fraction == 1.0  # within means <= 10


def test_evaluate_all_absent():
    ests = [estimate(i, 50 * i) for i in range(10)]
    m = evaluate(ests, truth(10))
    assert m.detection_rate == 0.0
    assert math.isnan(m.rms_error) and math.isnan(m.max_error)
    assert math.isnan(m.p95_error) and math.isnan(m.within_10cm_fraction)


def test_evaluate_without_a_user_in_any_frame_has_no_detection_rate():
    # 0.0 would read as a user missed on every frame
    refs = [SceneState(user=None, timestamp_ms=50 * i) for i in range(3)]
    m = evaluate([estimate(0, 0), estimate(1, 50, 0.0, 200.0), estimate(2, 100)], refs)
    assert math.isnan(m.detection_rate)
    assert math.isnan(m.rms_error) and math.isnan(m.within_10cm_fraction)


def test_evaluate_leaves_empty_truth_frames_out_of_the_detection_rate():
    # frames 4 and 5 hold no user: neither the miss on 4 nor the position
    # on 5 counts, so 3 of 4 frames with a user were detected, all exactly
    refs = truth(4) + [SceneState(user=None, timestamp_ms=50 * i) for i in (4, 5)]
    ests = [estimate(0, 0, 0.0, 200.0), estimate(1, 50), estimate(2, 100, 0.0, 200.0),
            estimate(3, 150, 0.0, 200.0), estimate(4, 200), estimate(5, 250, 9.0, 90.0)]
    m = evaluate(ests, refs)
    assert m.detection_rate == 0.75
    assert m.rms_error == 0.0 and m.max_error == 0.0


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate([estimate(0, 0)], truth(2))


def test_evaluate_permutation_invariant_except_fps():
    rng = np.random.default_rng(3)
    ests, refs = [], []
    for i in range(50):
        x, z = rng.uniform(-50, 50), rng.uniform(150, 350)
        ests.append(estimate(i, 50 * i, x + rng.normal(0, 2), z + rng.normal(0, 2)))
        refs.append(SceneState(user=WorldPosition(x, z), timestamp_ms=50 * i))
    m1 = evaluate(ests, refs)
    order = rng.permutation(50)
    m2 = evaluate([ests[i] for i in order], [refs[i] for i in order])
    assert m1 == m2


# --- end-to-end noiseless recovery over the trackable workspace -----------------

def test_noiseless_recovery_across_trackable_workspace(rig, quiet, intensity,
                                                       detect_params):
    """Render -> calibrate -> detect -> triangulate across the region the
    sensor can actually image (foot row on-frame, run fully visible).

    Depth must land within 1.5x the per-pixel depth resolution. The lateral
    tolerance needs the depth-coupling term on top of the one-pixel column
    budget: x_hat = u_hat * z_hat / f inherits the depth quantization error
    scaled by |x|/z, so the bound is 1.5*z/f + |x| * dz/z.
    """
    empty = render(rig, SceneState(user=None), quiet, intensity)
    cal = calibrate(empty)
    rng = np.random.default_rng(2024)
    # nearest depth whose reflection row is scannable (row <= 238)
    z_near = triangulate(rig, rig.u0, 238.0, 160.0).z
    n_detected = 0
    for _ in range(1000):
        z = float(rng.uniform(z_near + 1.0, 390.0))
        run_half_px = 25.0 * rig.f / z / 2.0
        x_vis = (rig.width / 2.0 - 2.0 - run_half_px) * z / rig.f
        x = float(rng.uniform(-x_vis, x_vis))
        frame = render(rig, SceneState(user=WorldPosition(x, z)), quiet, intensity)
        est = track_frame(frame, rig, cal, detect_params)
        assert est.pos is not None, f"no detection at x={x:.2f} z={z:.2f}"
        n_detected += 1
        dz_bound = 1.5 * depth_resolution(rig, z)
        assert abs(est.pos.z - z) <= dz_bound, f"z off at x={x:.2f} z={z:.2f}"
        dx_bound = 1.5 * z / rig.f + abs(x) * dz_bound / z
        assert abs(est.pos.x - x) <= dx_bound, f"x off at x={x:.2f} z={z:.2f}"
    assert n_detected == 1000
