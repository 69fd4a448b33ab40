"""Calibration, adaptive threshold, edge test, and run localization."""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_CONFIG, ath, edge_test, file_of
from sltrack import (Calibration, CalibrationError, DetectParams, Frame,
                     NoiseParams, SceneState, calibrate, detect_feet,
                     load_config, read_pgm, render, render_trajectory, write_pgm)
from sltrack.detect import _edge_mask, _workspace
from sltrack.io import iter_pgm_dir


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


def test_calibrate_on_each_reference_stroll_frame_finds_the_wall_or_raises():
    # a foot near the camera outshines the wall line over a fifth of the
    # width; the wall line is lit across most of it
    cfg = load_config(REFERENCE_CONFIG)
    refused = []
    for i, state in enumerate(cfg.trajectory.materialize(cfg.rig)):
        frame = render(cfg.rig, state, cfg.noise, cfg.intensity, index=i)
        try:
            assert calibrate(frame).v_b == 160
        except CalibrationError as exc:
            assert re.fullmatch(r"no wall line: brightest row 22[4-7] is lit across "
                                r"0\.2\d\d of its width, want at least 0\.5 "
                                r"\(is the scene empty\?\)", str(exc))
            refused.append(i)
    assert refused == [0, 1, 2, 197, 198, 199]
    for seed in (1234, 1, 7, 99):
        empty = render(cfg.rig, SceneState(user=None), replace(cfg.noise, seed=seed),
                       cfg.intensity, index=10**6)
        assert calibrate(empty).v_b == 160


def test_calibrate_line_at_border_row_fails():
    # Calibration states the rule; calibrate names the row it found
    for row in (0, 239):
        frame = blank_frame()
        frame.pixels[row] = 200
        with pytest.raises(CalibrationError, match=fr"^v_b: wall row {row} must lie "
                           r"in \[1, 238\], with a row above and below$"):
            calibrate(frame)


def test_calibrate_refuses_a_frame_read_from_below_its_first_row():
    whole = frame_with_run(160, 0, 320)
    part = Frame(width=320, height=240, pixels=whole.pixels[1:], top=1)
    with pytest.raises(ValueError, match=r"^calibrate needs a whole frame, got rows "
                       r"1\.\. only$"):
        calibrate(part)


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


@pytest.mark.parametrize("fields,message", [
    # as row 1, a foot imaged at row 200 (z = 200 cm) on the reference rig
    # would triangulate to z ~ 67 cm
    ({"v_b": True}, "v_b: must be an int, got True"),
    ({"v_b": 160.0}, "v_b: must be an int, got 160.0"),
    ({"width": 320.0}, "width: must be an int, got 320.0"),
    ({"height": 240.0}, "height: must be an int, got 240.0"),
], ids=["bool-v_b", "float-v_b", "float-width", "float-height"])
def test_calibration_refuses_fields_that_are_not_ints(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Calibration(**{"v_b": 160, "width": 320, "height": 240, **fields})


@pytest.mark.parametrize("min_run", [3.0, True], ids=["float", "bool"])
def test_detect_params_refuse_a_min_run_that_is_not_an_int(min_run):
    # 3.0 failed as a slice index in detect_feet, True ran as 1
    with pytest.raises(ValueError, match=f"^min_run: must be an int, got {min_run}$"):
        DetectParams(min_run=min_run)


@pytest.mark.parametrize("name,message", [
    ("ath_min", r"ath_min: must lie in \[0, ath_base\]"),
    ("ath_slope", "ath_slope: must be >= 0"),
], ids=["ath_min", "ath_slope"])
def test_detect_params_refuse_a_negative_floor_or_slope(name, message):
    with pytest.raises(ValueError, match=message):
        DetectParams(**{name: -0.5})


def test_ath_base_is_checked_without_a_floor():
    # a negative base would give negative row limits, and the zero pads of
    # the band would read as edges
    with pytest.raises(ValueError, match=r"ath_base: must lie in \[0, ath_max\]"):
        DetectParams(ath_base=-1.0)


def test_a_config_without_a_floor_gets_the_row_limits_of_the_old_floor():
    p = load_config(REFERENCE_CONFIG).detect
    assert p.ath_min is None
    rows = CAL.height - 2 - CAL.v_b
    delta_v = np.arange(1, rows + 1)
    floored = np.clip(p.ath_base + p.ath_slope * delta_v, 1.0, p.ath_max)
    limits = _workspace(CAL, p).limits.reshape(rows, -1)
    assert (limits == np.fmin(np.floor(2.0 * floored), 511.0)[:, None]).all()
    assert np.array_equal(_workspace(CAL, replace(p, ath_min=1.0)).limits,
                          limits.ravel())


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


def test_edge_test_refuses_a_row_not_read(detect_params):
    part = Frame(width=320, height=240, pixels=np.zeros((41, 320), np.uint8), top=199)
    assert edge_test(part, 10, 200, CAL, detect_params) is False
    with pytest.raises(ValueError, match=r"^v=199: row 198 lies above the rows read"):
        edge_test(part, 10, 199, CAL, detect_params)


# --- run localization ----------------------------------------------------------

def test_detect_uniform_run_centroid_is_midpoint(detect_params):
    u_f, v_f = detect_feet(frame_with_run(200, 150, 20), CAL, detect_params)
    assert u_f == 159.5 and type(u_f) is float  # (150 + 169) / 2, all 20 columns
    assert v_f == 200 and type(v_f) is int


def test_detect_empty_scene_returns_none(rig, quiet, intensity, detect_params):
    frame = render(rig, SceneState(user=None), quiet, intensity)
    assert detect_feet(frame, CAL, detect_params) is None


def test_detect_uniform_frame_returns_none(detect_params):
    assert detect_feet(blank_frame(fill=120), CAL, detect_params) is None


def test_detect_two_runs_picks_longest(detect_params):
    frame = frame_with_run(200, 50, 20)
    frame.pixels[200, 150:162] = 200  # second, shorter run on the same row
    # the 12-pixel run would center at 155.5
    assert detect_feet(frame, CAL, detect_params) == ((50 + 69) / 2, 200)


def test_detect_tie_breaks_lower_row_then_left_start(detect_params):
    frame = frame_with_run(200, 50, 15)
    frame.pixels[210, 80:95] = 200  # same length, lower row wins
    u_f, v_f = detect_feet(frame, CAL, detect_params)
    assert (v_f, u_f) == (210, 87.0)  # (80 + 94) / 2

    frame2 = frame_with_run(200, 100, 15)
    frame2.pixels[200, 30:45] = 200  # same row, same length: leftmost wins
    frame2.pixels[200, 200:215] = 200
    u_f, _ = detect_feet(frame2, CAL, detect_params)
    assert u_f == pytest.approx((30 + 44) / 2)


def test_detect_discards_runs_shorter_than_min_run(detect_params):
    frame = frame_with_run(200, 50, 2)  # min_run is 3
    assert detect_feet(frame, CAL, detect_params) is None


def test_detect_weighted_centroid_follows_mass(detect_params):
    frame = blank_frame()
    frame.pixels[200, 100:104] = (100, 100, 100, 200)
    u_f, _ = detect_feet(frame, CAL, detect_params)
    expected = (100 * 100 + 101 * 100 + 102 * 100 + 103 * 200) / 500
    assert u_f == pytest.approx(expected)


def test_detect_translation_covariance(detect_params):
    base_u, base_v = detect_feet(frame_with_run(200, 100, 21), CAL, detect_params)
    for k in (1, 7, 38):  # row 238 is the last scannable row
        u_f, _ = detect_feet(frame_with_run(200, 100 + k, 21), CAL, detect_params)
        assert u_f == pytest.approx(base_u + k, abs=1e-9)
        _, v_f = detect_feet(frame_with_run(200 + k, 100, 21), CAL, detect_params)
        assert v_f == base_v + k


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
    u_f, _ = detect_feet(frame_with_run(200, 0, 10), CAL, detect_params)
    assert u_f == pytest.approx(4.5)
    u_f, _ = detect_feet(frame_with_run(200, 310, 10), CAL, detect_params)
    assert u_f == pytest.approx(314.5)


def uneven_levels(length):
    """Run levels from 56 to 255 in no order, so a centroid is not a midpoint."""
    return (np.arange(length) * 37 % 200 + 56).astype(np.uint8)


@pytest.mark.parametrize("width,height,row,start,length,full", [
    (320, 240, 238, 0, 320, True),
    (320, 240, 238, 0, 320, False),
    (320, 240, 200, 0, 37, False),
    (320, 240, 200, 283, 37, False),
    (5000, 8, 6, 0, 5000, True),
    (5000, 8, 5, 0, 4999, False),
    (5000, 8, 4, 1, 4999, False),
], ids=["full-width-255-last-row", "full-width-uneven-last-row", "column-0",
        "last-column", "width-5000-full-255", "width-5000-column-0",
        "width-5000-last-column"])
def test_centroid_at_the_extremes_equals_the_reference(width, height, row, start,
                                                        length, full):
    frame = blank_frame(width, height)
    frame.pixels[row, start:start + length] = 255 if full else uneven_levels(length)
    cal = Calibration(v_b=160 if height == 240 else 2, width=width, height=height)
    det = detect_feet(frame, cal, DetectParams())
    # the whole run, divided once from its exact integer sums
    weights = frame.pixels[row, start:start + length].tolist()
    moment = sum(w * u for w, u in zip(weights, range(start, start + length)))
    assert det == (moment / sum(weights), row)
    assert det == reference_detect_feet(frame, cal, DetectParams())


def test_detect_runs_on_neighbor_rows_do_not_join_across_the_row_end(detect_params):
    # in the flattened mask, row 200's last column sits next to row 201's
    # first; the padding keeps the two runs apart (joined they would be 15).
    # The frame before has an edge at every pixel of every other scan row:
    # the pads stay zero from frame to frame
    stripes = blank_frame()
    stripes.pixels[1::2] = 255
    assert detect_feet(stripes, CAL, detect_params) == (159.5, 237)  # full width
    frame = frame_with_run(200, 312, 8)
    frame.pixels[201, 0:7] = 200
    det = detect_feet(frame, CAL, detect_params)
    assert det == (315.5, 200)  # (312 + 319) / 2: the 8 pixels to the row end
    assert det == reference_detect_feet(frame, CAL, detect_params)


def test_detect_under_interleaved_calibrations_and_params():
    # each (calibration, params) pair passes a different run, so a row-limit
    # cache keyed on too little returns another pair's detection
    frame = blank_frame()
    for row, length, level in ((230, 30, 40), (220, 25, 50), (210, 20, 60),
                               (200, 15, 255)):
        frame.pixels[row, 50:50 + length] = level
    cals = [Calibration(v_b=v_b, width=320, height=240) for v_b in (160, 190)]
    params = [DetectParams(ath_base=10.0, ath_slope=slope) for slope in (0.5, 1.5)]
    found = set()
    for _ in range(2):
        for cal in cals:
            for p in params:
                det = detect_feet(frame, cal, p)
                assert det == reference_detect_feet(frame, cal, p), (cal, p)
                found.add(det)
    assert {v_f for _, v_f in found} == {200, 210, 220, 230}


def test_threads_detect_at_once_with_their_own_calibration_and_params():
    # each thread keeps its own workspace: threads that detect at once, on
    # the same or on different (calibration, params), must each get the
    # reference
    cfg = load_config(REFERENCE_CONFIG)
    frames = render_trajectory(cfg.rig, cfg.trajectory.materialize(cfg.rig)[::10],
                               cfg.noise, cfg.intensity)
    flipped = [Frame(width=f.width, height=f.height, pixels=f.pixels[:, ::-1])
               for f in frames]
    other = (Calibration(v_b=161, width=320, height=240),
             DetectParams(ath_base=5.0, ath_slope=1.5, min_run=5))
    jobs = [(frames, CAL, cfg.detect), (flipped, CAL, cfg.detect),
            (flipped, *other), (frames, *other)]
    expected = [[reference_detect_feet(f, cal, p) for f in fs] for fs, cal, p in jobs]
    assert all(det is not None for want in expected for det in want)
    assert len({tuple(want) for want in expected}) == len(jobs)
    start = threading.Barrier(len(jobs))
    mismatches = []

    def run(job, want):
        frames, cal, p = job
        start.wait(timeout=30)
        for _ in range(10):
            got = [detect_feet(frame, cal, p) for frame in frames]
            mismatches.extend(g for g, w in zip(got, want) if g != w)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(jobs, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("params", [
    DetectParams(ath_slope=float("nan")),
    DetectParams(ath_base=10.0, ath_slope=1e6, ath_max=1e9),
], ids=["nan-slope", "past-int16"])
def test_detect_unreachable_threshold_finds_nothing(params):
    # the row limit is capped at 511 before its int16 cast, NaN included
    frame = frame_with_run(200, 100, 20, level=255)
    assert detect_feet(frame, CAL, params) is None
    assert reference_detect_feet(frame, CAL, params) is None


def test_edge_mask_is_boolean(detect_params):
    # detect_feet finds run ends with nonzero over the mask, which is several
    # times slower on int8 than on bool
    assert _edge_mask(blank_frame(), _workspace(CAL, detect_params)).dtype == bool


def test_detect_rejects_mismatched_calibration(detect_params):
    small = blank_frame(width=160, height=120)
    with pytest.raises(ValueError, match="calibration"):
        detect_feet(small, CAL, detect_params)


def test_detect_refuses_a_frame_read_from_below_the_wall_row(detect_params):
    whole = frame_with_run(200, 100, 20)
    part = Frame(width=320, height=240, pixels=whole.pixels[161:], index=4, top=161)
    with pytest.raises(ValueError, match=r"^frame 4 starts at row 161, below the "
                       "wall row 160 the edge test reads$"):
        detect_feet(part, CAL, detect_params)
    at_wall = Frame(width=320, height=240, pixels=whole.pixels[160:], top=160)
    assert detect_feet(at_wall, CAL, detect_params) == detect_feet(whole, CAL,
                                                                   detect_params)


def test_detect_empty_scan_domain_returns_none(detect_params):
    cal = Calibration(v_b=238, width=320, height=240)
    assert detect_feet(blank_frame(fill=0), cal, detect_params) is None


def _row_runs(mask):
    """Maximal [start, end) runs of True in a 1-D bool mask, left to right."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[0::2], edges[1::2]))


def reference_detect_feet(frame, cal, p):
    """Plain per-row detector: a float64 edge response, runs collected row
    by row, and the best kept by length, then lower row, then leftmost."""
    lo, hi = cal.v_b + 1, frame.height - 1
    px = frame.pixels.astype(np.float64)
    rows = np.arange(lo, hi)
    thresholds = np.clip(p.ath_base + p.ath_slope * (rows - cal.v_b),
                         p.ath_min, p.ath_max)
    response = px[lo:hi] - (px[lo - 1:hi - 1] + px[lo + 1:hi + 1]) / 2.0
    mask = response - thresholds[:, None] > 0.0

    best = None  # (length, v, start)
    for i, v in enumerate(rows):
        for start, end in _row_runs(mask[i]):
            length = int(end - start)
            if length < p.min_run:
                continue
            if best is None or length > best[0] or (length == best[0] and v > best[1]):
                best = (length, int(v), int(start))

    if best is None:
        return None
    length, v, start = best
    cols = np.arange(start, start + length)
    weights = px[v, cols]
    mass = int(weights.sum())
    return float((cols * weights).sum() / mass), v


@st.composite
def _frame_cal_params(draw):
    """A small frame of dim levels, a calibration and a threshold schedule
    whose floor may be 0, so runs can sit on nearly black pixels. Half-integer
    thresholds sit exactly on an edge response; large ones reach past 255,
    where no pixel can pass. min_run reaches past the width, where no run
    fits, and up to 2**62."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(3, 10))
    levels = st.integers(0, 255) | st.integers(0, 3)
    pixels = np.array(draw(st.lists(levels, min_size=w * h, max_size=w * h)),
                      dtype=np.uint8).reshape(h, w)
    cal = Calibration(v_b=draw(st.integers(1, h - 2)), width=w, height=h)
    small = st.floats(0.0, 20.0) | st.integers(0, 40).map(lambda k: k / 2)
    large = small | st.floats(200.0, 600.0)
    low, up, top = draw(small), draw(large), draw(large)
    slope = st.floats(0.0, 5.0) | st.sampled_from([0.1, 1 / 3, 2 / 3, 60.0])
    params = DetectParams(ath_base=low + up, ath_slope=draw(slope),
                          ath_min=low, ath_max=low + up + top,
                          min_run=draw(st.integers(1, w + 2) | st.just(2**62)))
    return Frame(width=w, height=h, pixels=pixels), cal, params


@settings(max_examples=300, deadline=None, database=None)
@given(_frame_cal_params())
def test_detection_lies_in_the_scan_band(case):
    frame, cal, params = case
    det = detect_feet(frame, cal, params)
    if det is not None:
        u_f, v_f = det
        assert cal.v_b < v_f < frame.height - 1
        assert math.isfinite(u_f) and 0 <= u_f <= frame.width - 1


@settings(max_examples=300, deadline=None, database=None)
@given(_frame_cal_params())
def test_detect_feet_equals_the_per_row_reference(case):
    frame, cal, params = case
    assert detect_feet(frame, cal, params) == reference_detect_feet(frame, cal, params)


@settings(max_examples=300, deadline=None, database=None)
@given(_frame_cal_params())
def test_edge_mask_equals_edge_test_at_every_scan_pixel(case):
    frame, cal, params = case
    mask = _edge_mask(frame, _workspace(cal, params))
    scan_rows = range(cal.v_b + 1, frame.height - 1)
    assert mask.shape == (len(scan_rows), frame.width + 2)
    assert not mask[:, 0].any() and not mask[:, -1].any()
    for i, v in enumerate(scan_rows):
        for u in range(frame.width):
            assert bool(mask[i, u + 1]) is edge_test(frame, u, v, cal, params)


@settings(max_examples=300, deadline=None, database=None)
@given(_frame_cal_params(), st.data())
def test_detect_feet_on_a_frame_read_from_the_wall_row_equals_the_whole_frame(
        tmp_path_factory, case, data):
    frame, cal, params = case
    folder = tmp_path_factory.mktemp("clip")
    for name in "000000.pgm", "000001.pgm":
        write_pgm(frame, str(folder / name))
    # a clip's first frame is read whole, its second, from any row up to
    # v_b, reads those rows only
    whole = read_pgm(str(folder / "000000.pgm"))
    _, part = iter_pgm_dir(str(folder), 20.0,
                           top=data.draw(st.integers(0, cal.v_b) | st.just(cal.v_b)))
    assert np.array_equal(part.pixels, frame.pixels[part.top:])
    assert detect_feet(part, cal, params) == detect_feet(whole, cal, params)
    for v in range(cal.v_b + 1, frame.height - 1):
        for u in range(frame.width):
            assert edge_test(part, u, v, cal, params) is edge_test(whole, u, v, cal,
                                                                   params)


@pytest.mark.parametrize("min_run", [1, 2, 3, 5, 8, 9, 319, 320, 321, 2**62])
def test_detect_feet_equals_the_reference_for_min_run_up_to_past_the_width(min_run):
    # full-width rows, a run one short of the width and runs around every
    # erosion shift; only the full rows reach min_run = 320
    frame = frame_with_run(170, 0, 320)
    frame.pixels[200, 0:319] = 200
    frame.pixels[230, 0:320] = 90
    for start, length in ((10, 1), (20, 2), (30, 3), (40, 4), (50, 7), (60, 8),
                          (70, 9), (90, 16), (120, 17)):
        frame.pixels[210, start:start + length] = 200
    p = DetectParams(min_run=min_run)
    det = detect_feet(frame, CAL, p)
    assert det == reference_detect_feet(frame, CAL, p)
    assert (det is None) == (min_run > 320)


def test_min_run_past_the_width_finds_no_run():
    # a config may set min_run up to 2**63 - 1: every erosion window longer
    # than a row holds a padding column, so even a full-width run is eroded
    frame = frame_with_run(200, 0, 320)
    for min_run in (321, 2**62, 2**63 - 1):
        assert detect_feet(frame, CAL, DetectParams(min_run=min_run)) is None


def test_an_empty_room_gives_no_position():
    cfg = load_config(REFERENCE_CONFIG)

    def empty(index):
        return render(cfg.rig, SceneState(user=None), cfg.noise, cfg.intensity,
                      index=index)

    cal = calibrate(empty(10**6))
    detections = sum(detect_feet(empty(10**6 + i), cal, cfg.detect) is not None
                     for i in range(1, 201))
    assert detections <= 1, f"{detections} of 200 empty frames give a position"


def test_the_default_detect_params_are_the_reference_configs():
    # a caller who builds DetectParams() gets the reference min_run of 10,
    # not a 3 that noise runs pass on every empty frame
    assert DetectParams() == load_config(REFERENCE_CONFIG).detect
    assert DetectParams().min_run == 10


def test_min_run_2_62_from_a_config_finds_nothing_like_the_reference(tmp_path):
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["detect"]["min_run"] = 2**62
    cfg = load_config(file_of(json.dumps(doc), tmp_path / "config.json"))
    assert cfg.detect.min_run == 2**62
    frame = render_trajectory(cfg.rig, cfg.trajectory.materialize(cfg.rig)[:1],
                              cfg.noise, cfg.intensity)[0]
    assert detect_feet(frame, CAL, cfg.detect) is None
    assert reference_detect_feet(frame, CAL, cfg.detect) is None


def test_detect_feet_equals_the_reference_on_reference_frames():
    cfg = load_config(REFERENCE_CONFIG)
    frames = render_trajectory(cfg.rig, cfg.trajectory.materialize(cfg.rig),
                               cfg.noise, cfg.intensity)
    assert len(frames) == 200
    found = 0
    for frame in frames:
        det = detect_feet(frame, CAL, cfg.detect)
        assert det == reference_detect_feet(frame, CAL, cfg.detect), frame.index
        found += det is not None
    assert found == 200
