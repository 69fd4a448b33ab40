"""Calibration, adaptive threshold, edge test, and run localization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltrack import (Calibration, CalibrationError, DetectParams, Frame,
                     IntensityModel, NoiseParams, SceneState, ath, calibrate,
                     detect_feet, edge_test, render)


def blank_frame(width=320, height=240, fill=0):
    return Frame(width=width, height=height,
                 pixels=np.full((height, width), fill, dtype=np.uint8))


def frame_with_run(row, start, length, level=200, width=320, height=240):
    frame = blank_frame(width, height)
    frame.pixels[row, start:start + length] = level
    return frame


CAL = Calibration(v_b=160, width=320, height=240)


# --- calibration -------------------------------------------------------------

def test_calibrate_noiseless_empty_frame(rig, quiet, intensity):
    frame = render(rig, SceneState(user=None), quiet, intensity)
    cal = calibrate(frame)
    assert cal.v_b == 160  # round(120 + 16000/400)
    assert (cal.width, cal.height) == (320, 240)


def test_calibrate_all_black_frame_fails():
    with pytest.raises(CalibrationError):
        calibrate(blank_frame())


def test_calibrate_uniform_frame_fails():
    with pytest.raises(CalibrationError):
        calibrate(blank_frame(fill=50))


def test_calibrate_under_noise_100_seeded_trials(rig, intensity):
    # oracle run before freezing the gate: 100/100 seeds recover row 160
    # with a 60-gray line over N(20, 10) background
    hits = 0
    for seed in range(100):
        noise = NoiseParams(background_sigma=10.0, background_mean=20.0, seed=seed)
        frame = render(rig, SceneState(user=None), noise, intensity)
        hits += calibrate(frame).v_b == 160
    assert hits >= 99


def test_calibrate_line_at_border_row_fails():
    frame = blank_frame()
    frame.pixels[239] = 200
    with pytest.raises(CalibrationError):
        calibrate(frame)


# --- adaptive threshold --------------------------------------------------------

def test_ath_at_zero_is_base(detect_params):
    assert ath(0.0, detect_params) == 10.0


def test_ath_hand_evaluated():
    p = DetectParams(ath_base=10.0, ath_slope=0.5, ath_min=1.0, ath_max=255.0)
    assert ath(40.0, p) == 30.0  # 10 + 0.5*40


def test_ath_zero_slope_is_constant():
    p = DetectParams(ath_base=25.0, ath_slope=0.0, ath_min=1.0, ath_max=255.0)
    assert {ath(dv, p) for dv in (0.0, 10.0, 50.0, 118.0)} == {25.0}


def test_ath_clamps_to_bounds():
    p = DetectParams(ath_base=10.0, ath_slope=2.0, ath_min=5.0, ath_max=60.0)
    assert ath(1000.0, p) == 60.0


def test_ath_rejects_negative_delta(detect_params):
    with pytest.raises(ValueError):
        ath(-1.0, detect_params)


def test_detect_params_validation():
    with pytest.raises(ValueError):
        DetectParams(ath_base=5.0, ath_min=10.0, ath_max=255.0)
    with pytest.raises(ValueError):
        DetectParams(min_run=0)


# --- edge test ---------------------------------------------------------------

def test_edge_test_hand_cases(detect_params):
    p = DetectParams(ath_base=50.0, ath_slope=0.0, ath_min=50.0, ath_max=50.0)
    frame = blank_frame()
    frame.pixels[199:202, 50] = (100, 200, 100)  # 200 - 100 - 50 = 50 > 0
    assert edge_test(frame, 50, 200, CAL, p) is True
    frame.pixels[199:202, 60] = (100, 150, 100)  # 150 - 100 - 50 = 0, not an edge
    assert edge_test(frame, 60, 200, CAL, p) is False


def test_edge_test_uniform_frame_false_everywhere(detect_params):
    frame = blank_frame(fill=80)
    for v in (161, 200, 238):
        for u in (0, 160, 319):
            assert edge_test(frame, u, v, CAL, detect_params) is False


def test_edge_test_domain_enforced(detect_params):
    frame = blank_frame()
    with pytest.raises(ValueError):
        edge_test(frame, 10, 160, CAL, detect_params)  # at v_b
    with pytest.raises(ValueError):
        edge_test(frame, 10, 239, CAL, detect_params)  # last row has no v+1
    with pytest.raises(ValueError):
        edge_test(frame, 320, 200, CAL, detect_params)


# --- run localization ----------------------------------------------------------

def test_detect_uniform_run_centroid_is_midpoint(detect_params):
    det = detect_feet(frame_with_run(200, 150, 20), CAL, detect_params)
    assert det is not None
    assert det.u_f == pytest.approx(159.5)  # (150 + 169) / 2
    assert det.v_f == 200
    assert det.run_len == 20
    assert det.mass == 20 * 200


def test_detect_empty_scene_returns_none(rig, quiet, intensity, detect_params):
    frame = render(rig, SceneState(user=None), quiet, intensity)
    assert detect_feet(frame, CAL, detect_params) is None


def test_detect_uniform_frame_returns_none(detect_params):
    assert detect_feet(blank_frame(fill=120), CAL, detect_params) is None


def test_detect_two_runs_picks_longest(detect_params):
    frame = frame_with_run(200, 50, 20)
    frame.pixels[200, 150:162] = 200  # second, shorter run on the same row
    det = detect_feet(frame, CAL, detect_params)
    assert det.run_len == 20
    assert det.u_f == pytest.approx((50 + 69) / 2)


def test_detect_tie_breaks_lower_row_then_left_start(detect_params):
    frame = frame_with_run(200, 50, 15)
    frame.pixels[210, 80:95] = 200  # same length, lower row wins
    det = detect_feet(frame, CAL, detect_params)
    assert (det.v_f, det.run_len) == (210, 15)

    frame2 = frame_with_run(200, 100, 15)
    frame2.pixels[200, 30:45] = 200  # same row, same length: leftmost wins
    det2 = detect_feet(frame2, CAL, detect_params)
    assert det2.u_f == pytest.approx((30 + 44) / 2)


def test_detect_discards_runs_shorter_than_min_run(detect_params):
    frame = frame_with_run(200, 50, 2)  # min_run is 3
    assert detect_feet(frame, CAL, detect_params) is None


def test_detect_weighted_centroid_follows_mass(detect_params):
    frame = blank_frame()
    frame.pixels[200, 100:104] = (100, 100, 100, 200)
    det = detect_feet(frame, CAL, detect_params)
    expected = (100 * 100 + 101 * 100 + 102 * 100 + 103 * 200) / 500
    assert det.u_f == pytest.approx(expected)


def test_detect_translation_covariance(detect_params):
    base = detect_feet(frame_with_run(200, 100, 21), CAL, detect_params)
    for k in (1, 7, 38):  # row 238 is the last scannable row
        shifted = detect_feet(frame_with_run(200, 100 + k, 21), CAL, detect_params)
        assert shifted.u_f == pytest.approx(base.u_f + k, abs=1e-9)
        down = detect_feet(frame_with_run(200 + k, 100, 21), CAL, detect_params)
        assert down.v_f == base.v_f + k


def test_detect_threshold_monotonicity(detect_params):
    # raising ath_base can only remove edge pixels, never add them
    rng = np.random.default_rng(31)
    frame = blank_frame()
    frame.pixels = rng.integers(0, 255, (240, 320), dtype=np.uint8).astype(np.uint8)
    frame.pixels = np.asarray(frame.pixels, dtype=np.uint8)

    def edge_set(base):
        p = DetectParams(ath_base=base, ath_slope=0.5, ath_min=1.0, ath_max=255.0)
        hits = set()
        for v in range(161, 239):
            for u in range(0, 320, 7):
                if edge_test(frame, u, v, CAL, p):
                    hits.add((u, v))
        return hits

    low, high = edge_set(10.0), edge_set(40.0)
    assert high <= low


def test_detect_run_touching_column_borders_is_still_localized(detect_params):
    det = detect_feet(frame_with_run(200, 0, 10), CAL, detect_params)
    assert det.u_f == pytest.approx(4.5)
    det = detect_feet(frame_with_run(200, 310, 10), CAL, detect_params)
    assert det.u_f == pytest.approx(314.5)


def test_detect_rejects_mismatched_calibration(detect_params):
    small = blank_frame(width=160, height=120)
    with pytest.raises(ValueError, match="calibration"):
        detect_feet(small, CAL, detect_params)


def test_detect_empty_scan_domain_returns_none(detect_params):
    cal = Calibration(v_b=238, width=320, height=240)
    assert detect_feet(blank_frame(fill=0), cal, detect_params) is None


@st.composite
def _frame_cal_params(draw):
    """A small frame of dim levels, a calibration and a threshold schedule
    whose floor may be 0, so runs can sit on nearly black pixels."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(3, 10))
    levels = st.integers(0, 255) | st.integers(0, 3)
    pixels = np.array(draw(st.lists(levels, min_size=w * h, max_size=w * h)),
                      dtype=np.uint8).reshape(h, w)
    cal = Calibration(v_b=draw(st.integers(1, h - 2)), width=w, height=h)
    low, up, top = (draw(st.floats(0.0, 20.0)) for _ in range(3))
    params = DetectParams(ath_base=low + up, ath_slope=draw(st.floats(0.0, 5.0)),
                          ath_min=low, ath_max=low + up + top,
                          min_run=draw(st.integers(1, 4)))
    return Frame(width=w, height=h, pixels=pixels), cal, params


@settings(max_examples=300, deadline=None, database=None)
@given(_frame_cal_params())
def test_detection_mass_is_at_least_its_run_length(case):
    frame, cal, params = case
    det = detect_feet(frame, cal, params)
    if det is not None:
        assert cal.v_b < det.v_f < frame.height - 1
        assert det.run_len >= params.min_run
        assert det.mass >= det.run_len
