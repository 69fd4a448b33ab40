"""End-to-end command-line runs: simulate -> calibrate -> track -> evaluate."""

from __future__ import annotations

import builtins
import errno
import hashlib
import io
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import REFERENCE_CONFIG
import sltrack
from sltrack import (PositionEstimate, decode, read_estimates_csv,
                     write_estimates_csv)
from sltrack.cli import entrypoint, main


@pytest.fixture
def ref_config(tmp_path) -> str:
    path = tmp_path / "config.json"
    shutil.copy(REFERENCE_CONFIG, path)
    return str(path)


def stationary_config(tmp_path, name="stationary.json", duration=1.0,
                      noise_sigma=0.0, noise_mean=0.0, position=(0.0, 200.0)):
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["noise"]["background_sigma"] = noise_sigma
    cfg["noise"]["background_mean"] = noise_mean
    cfg["trajectory"] = {"kind": "stationary", "rate_hz": 20.0,
                         "duration_s": duration, "foot_width": 25.0,
                         "position": list(position)}
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def make_empty_frame(tmp_path, config, index=999999) -> str:
    """Render an empty-scene calibration frame via the library."""
    from sltrack import SceneState, load_config, render, write_pgm

    cfg = load_config(config)
    frame = render(cfg.rig, SceneState(user=None), cfg.noise, cfg.intensity,
                   index=index)
    path = tmp_path / "empty.pgm"
    write_pgm(frame, str(path))
    return str(path)


def test_simulate_writes_frames_and_truth(ref_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    frames = sorted(out.glob("*.pgm"))
    assert len(frames) == 200  # 20 Hz * 10 s
    assert frames[0].name == "000000.pgm"
    assert (out / "truth.csv").exists()


def test_simulate_stationary_one_second_gives_20_frames(tmp_path):
    cfg = stationary_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == 0
    assert len(list(out.glob("*.pgm"))) == 20


def test_simulate_deterministic_bytes(ref_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "-c", ref_config, "-o", str(out1)]) == 0
    assert main(["simulate", "-c", ref_config, "-o", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("argv,code", [
    (["bench", "-c", REFERENCE_CONFIG, "-n", "2"], 0),
    (["bench", "-c", REFERENCE_CONFIG, "-n", "0"], 2),
], ids=["ok", "usage-error"])
def test_entrypoint_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    # the installed sltrack command calls entrypoint, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["sltrack", *argv])
    with pytest.raises(SystemExit) as exc_info:
        entrypoint()
    assert exc_info.value.code == code == main(argv)


def test_simulate_invalid_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["simulate", "-c", str(bad), "-o", str(tmp_path / "x")]) == 2


def test_simulate_reference_digest(ref_config, tmp_path):
    # sha256 over the sorted files 000000.pgm .. 000199.pgm, truth.csv
    out = tmp_path / "run"
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "d98f13deded8a60ba1cc5e5eeeb00c904f51b011895ad517627d2b1954cba953")


def test_track_and_evaluate_reference_digests(ref_config, tmp_path, capsys):
    # the README's quick start: its empty frame (index 10**6) calibrates to
    # v_b=160; the estimates CSV and the metrics JSON are pinned byte for byte
    out = tmp_path / "run"
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    cal = tmp_path / "cal.txt"
    empty = make_empty_frame(tmp_path, ref_config, index=10**6)
    assert main(["calibrate", "-c", ref_config, empty, "-o", str(cal)]) == 0
    assert cal.read_text(encoding="utf-8") == "v_b=160\n"
    est_csv, metrics_json = tmp_path / "estimates.csv", tmp_path / "metrics.json"
    assert main(["track", "-c", ref_config, "--calibration", str(cal), str(out),
                 "-o", str(est_csv)]) == 0
    assert main(["evaluate", str(est_csv), str(out / "truth.csv"),
                 "--json", str(metrics_json)]) == 0
    assert hashlib.sha256(est_csv.read_bytes()).hexdigest() == (
        "af3af51628b908d2e7a4adb99e80c853ea240e7f8fc09b853ae13e93a0a20c93")
    assert hashlib.sha256(metrics_json.read_bytes()).hexdigest() == (
        "9d1f708bc8d73fa907436ec40ddd948ed48ba7dbadda261e74eeb6c1721b7710")


def test_simulate_frames_equal_a_serial_render(tmp_path):
    from sltrack import load_config, render, write_pgm

    cfg_path = stationary_config(tmp_path, noise_sigma=12.0, noise_mean=30.0)
    out = tmp_path / "run"
    assert main(["simulate", "-c", cfg_path, "-o", str(out)]) == 0
    cfg = load_config(cfg_path)
    states = cfg.trajectory.materialize(cfg.rig)
    assert len(list(out.glob("*.pgm"))) == len(states)
    serial = tmp_path / "serial.pgm"
    for i, state in enumerate(states):
        write_pgm(render(cfg.rig, state, cfg.noise, cfg.intensity, index=i), str(serial))
        assert (out / f"{i:06d}.pgm").read_bytes() == serial.read_bytes(), i


def test_simulate_over_a_larger_clip_gives_the_reference_bytes(ref_config,
                                                              tmp_path):
    # 480-row frames and wider truth rows first: every file must shrink
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["rig"]["height"] = 480
    cfg["trajectory"]["foot_width"] = 100.0
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "-c", str(tall), "-o", str(out)]) == 0
    before = {p.name: p.stat().st_size for p in out.iterdir()}
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    after = {p.name: p.stat().st_size for p in out.iterdir()}
    assert after.keys() == before.keys()
    assert all(after[name] < before[name] for name in after)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "d98f13deded8a60ba1cc5e5eeeb00c904f51b011895ad517627d2b1954cba953")


def test_simulate_write_error_exit_1_without_truth(tmp_path, capsys, monkeypatch):
    import sltrack.io

    real_write_pgm = sltrack.io.write_pgm

    def failing_write_pgm(frame, sink):
        if frame.index == 5:
            raise OSError(errno.ENOSPC, "No space left on device", sink)
        real_write_pgm(frame, sink)

    monkeypatch.setattr(sltrack.io, "write_pgm", failing_write_pgm)
    out = tmp_path / "run"
    assert main(["simulate", "-c", stationary_config(tmp_path),
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "000005.pgm" in err
    assert not (out / "truth.csv").exists()


def test_simulate_leaves_no_thread_running(tmp_path):
    before = threading.active_count()
    assert main(["simulate", "-c", stationary_config(tmp_path),
                 "-o", str(tmp_path / "run")]) == 0
    assert threading.active_count() == before


def test_simulate_rejects_a_directory_with_another_clips_frames(ref_config,
                                                               tmp_path, capsys):
    out = tmp_path / "run"
    # 30 frames, of which this 20-frame clip would overwrite only 20
    assert main(["simulate", "-c", stationary_config(tmp_path, duration=1.5),
                 "-o", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["simulate", "-c", stationary_config(tmp_path),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {out} holds 000020.pgm, which is not one "
        "of this clip's 20 frames\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # a clip that overwrites every frame there may reuse the directory
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    assert len(list(out.glob("*.pgm"))) == 200


def test_simulate_out_dir_naming_a_file_exit_2(tmp_path, capsys):
    target = tmp_path / "run"
    target.write_text("not a directory", encoding="utf-8")
    assert main(["simulate", "-c", stationary_config(tmp_path),
                 "-o", str(target)]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {target}: not a directory\n")
    assert target.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_a_user_imaged_past_the_float_range_exit_2(tmp_path, capsys, command):
    # u0 + f*x/z overflows to inf for x = 1e306
    cfg = stationary_config(tmp_path, position=(1e306, 200.0))
    argv = {"simulate": ["simulate", "-c", cfg, "-o", str(tmp_path / "run")],
            "bench": ["bench", "-c", cfg, "-n", "5"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: image point must be finite\n"


def test_track_bad_trajectory_exit_2(tmp_path, capsys):
    # the trajectory is checked when the config loads, also for commands
    # that never materialize it
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["trajectory"]["speed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    assert main(["track", "-c", str(bad), "--calibration", str(cal),
                 str(tmp_path), "-o", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err == "error: trajectory.speed: must be > 0\n"


def test_simulate_non_finite_config_number_exit_2(tmp_path, capsys):
    # json.loads reads NaN; a NaN ath_slope would cap every row's limit
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["detect"]["ath_slope"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "-c", str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: detect.ath_slope: must be finite\n"
    assert not out.exists()


# clocks that load but time frame 1 at 1e19 ms, past what a CSV reads back,
# and at infinity; the second clip is one frame long, round(1.4999...)
SLOW_CLOCKS = {
    "stroll-1e-16-hz": ({"kind": "stroll", "rate_hz": 1e-16, "duration_s": 2e16,
                         "foot_width": 25.0, "a": [-30.0, 150.0], "b": [30.0, 340.0],
                         "speed": 40.0}, "1e+19"),
    "stationary-1e-308-hz": ({"kind": "stationary", "rate_hz": 1e-308,
                              "duration_s": 1.5e308, "foot_width": 25.0,
                              "position": [0.0, 200.0]}, "inf"),
}


@pytest.mark.parametrize("clock,command", [
    ("stroll-1e-16-hz", "simulate"), ("stroll-1e-16-hz", "track"),
    ("stroll-1e-16-hz", "bench"), ("stationary-1e-308-hz", "track"),
    ("stationary-1e-308-hz", "bench")])
def test_a_frame_timestamp_past_10_18_ms_exit_2(tmp_path, capsys, clock, command):
    # before, simulate and track wrote timestamp_ms 10000000000000000000,
    # which evaluate refused, and an infinite one raised OverflowError
    trajectory, ms = SLOW_CLOCKS[clock]
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["trajectory"] = trajectory
    config = tmp_path / "slow.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    clip = tmp_path / "clip"
    clip.mkdir()
    for name in ("000000.pgm", "000001.pgm"):
        shutil.copy(make_empty_frame(tmp_path, REFERENCE_CONFIG), clip / name)
    (tmp_path / "cal.txt").write_text("v_b=160\n", encoding="utf-8")
    argv = {"simulate": ["simulate", "-c", str(config), "-o", str(tmp_path / "run")],
            "track": ["track", "-c", str(config), "--calibration",
                      str(tmp_path / "cal.txt"), str(clip),
                      "-o", str(tmp_path / "est.csv")],
            "bench": ["bench", "-c", str(config), "-n", "3"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: frame 1: timestamp {ms} ms is not below 10**18\n")


def _argv_with_config(command: str, config: str, tmp_path) -> list[str]:
    """``command`` with ``-c config`` and inputs it never reaches: the
    config is read first."""
    return {
        "simulate": ["simulate", "-c", config, "-o", str(tmp_path / "run")],
        "calibrate": ["calibrate", "-c", config, str(tmp_path / "empty.pgm")],
        "track": ["track", "-c", config, "--calibration", str(tmp_path / "cal.txt"),
                  str(tmp_path), "-o", str(tmp_path / "est.csv")],
        "bench": ["bench", "-c", config, "-n", "1"],
    }[command]


@pytest.mark.parametrize("command", ["simulate", "calibrate", "track", "bench"])
def test_a_config_nested_too_deep_exit_2(tmp_path, capsys, command):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000, encoding="utf-8")
    assert main(_argv_with_config(command, str(bad), tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: not valid JSON (maximum recursion depth")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "calibrate", "track", "bench"])
def test_a_config_not_in_utf8_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"rig": "\xe9"}')
    assert main(_argv_with_config(command, str(bad), tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error: config: not valid JSON ('utf-8' codec can't decode byte 0xe9 "
        "in position 9: invalid continuation byte)\n")
    assert not (tmp_path / "run").exists()


def test_calibrate_prints_v_b_and_writes_file(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    empty = make_empty_frame(tmp_path, cfg)
    out = tmp_path / "cal.txt"
    assert main(["calibrate", "-c", cfg, empty, "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "v_b=160"
    assert out.read_text(encoding="utf-8") == "v_b=160\n"


def test_calibrate_over_a_longer_file_leaves_only_v_b(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    empty = make_empty_frame(tmp_path, cfg)
    out = tmp_path / "cal.txt"
    out.write_text("v_b=123456789\n" * 100, encoding="utf-8")
    assert main(["calibrate", "-c", cfg, empty, "-o", str(out)]) == 0
    assert out.read_bytes() == b"v_b=160\n"


def test_calibrate_noisy_frame_same_row(tmp_path, capsys):
    cfg = stationary_config(tmp_path, noise_sigma=10.0, noise_mean=20.0)
    empty = make_empty_frame(tmp_path, cfg)
    assert main(["calibrate", "-c", cfg, empty]) == 0
    assert capsys.readouterr().out.strip() == "v_b=160"


def test_calibrate_black_frame_exit_2(tmp_path, capsys):
    from sltrack import Frame, write_pgm

    cfg = stationary_config(tmp_path)
    black = tmp_path / "black.pgm"
    write_pgm(Frame(width=320, height=240,
                    pixels=np.zeros((240, 320), dtype=np.uint8)), str(black))
    assert main(["calibrate", "-c", cfg, str(black)]) == 2


def test_calibrate_on_a_frame_with_a_near_foot_exit_2(ref_config, tmp_path, capsys):
    # the reference stroll's first frame: a foot at ~150 cm outshines the
    # wall line, and its row is lit across a fifth of the width
    out = tmp_path / "run"
    assert main(["simulate", "-c", ref_config, "-o", str(out)]) == 0
    cal = tmp_path / "cal.txt"
    capsys.readouterr()
    assert main(["calibrate", "-c", ref_config, str(out / "000000.pgm"),
                 "-o", str(cal)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no wall line: brightest row 227 is lit across 0.209 of its "
        "width, want at least 0.5 (is the scene empty?)\n")
    assert captured.out == ""
    assert not cal.exists()


def test_calibrate_truncated_frame_exit_2_naming_the_file(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    empty = Path(make_empty_frame(tmp_path, cfg))
    empty.write_bytes(empty.read_bytes()[:17])  # the 15-byte header and 2 pixels
    assert main(["calibrate", "-c", cfg, str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {empty}: truncated payload: want 76800 bytes, have 2 "
        f"(byte offset 17)\n")
    assert captured.out == ""


def test_calibrate_file_longer_than_any_frame_exit_2_naming_it(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"")
    os.truncate(huge, 2**24 + 2**16 + 1)  # sparse: no disk, and never read
    assert main(["calibrate", "-c", cfg, str(huge)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {huge}: file of {2**24 + 2**16 + 1} bytes is longer than any "
        f"frame (byte offset {2**24 + 2**16})\n")
    assert captured.out == ""


def test_calibrate_frame_of_another_size_exit_2_naming_the_file(tmp_path, capsys):
    from sltrack import Frame, write_pgm

    cfg = stationary_config(tmp_path)
    small = tmp_path / "small.pgm"
    write_pgm(Frame(width=4, height=3, pixels=np.zeros((3, 4), np.uint8)), str(small))
    assert main(["calibrate", "-c", cfg, str(small)]) == 2
    assert capsys.readouterr().err == (
        f"error: {small}: frame is 4x3, rig expects 320x240\n")


def test_track_frame_of_another_size_exit_2_naming_the_frame(tmp_path, capsys):
    from sltrack import Frame, write_pgm

    cfg = stationary_config(tmp_path)
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(out_dir)]) == 0
    cal = tmp_path / "cal.txt"
    assert main(["calibrate", "-c", cfg, make_empty_frame(tmp_path, cfg),
                 "-o", str(cal)]) == 0
    write_pgm(Frame(width=4, height=3, pixels=np.zeros((3, 4), np.uint8)),
              str(out_dir / "000005.pgm"))
    capsys.readouterr()
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(out_dir),
                 "-o", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err == "error: frame 5 is 4x3, rig expects 320x240\n"


def test_track_reads_each_frame_from_the_wall_row_down(tmp_path, monkeypatch, capsys):
    cfg = stationary_config(tmp_path, noise_sigma=12.0, noise_mean=30.0)
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(out_dir)]) == 0
    cal = tmp_path / "cal.txt"
    assert main(["calibrate", "-c", cfg, make_empty_frame(tmp_path, cfg),
                 "-o", str(cal)]) == 0
    real = sltrack.io.iter_pgm_dir
    tops = []

    def iter_pgm_dir(frames_dir, rate_hz, **kwargs):
        for frame in real(frames_dir, rate_hz, **kwargs):
            tops.append(frame.top)
            yield frame

    monkeypatch.setattr(sltrack.io, "iter_pgm_dir", iter_pgm_dir)
    band, whole = tmp_path / "band.csv", tmp_path / "whole.csv"
    track = ["track", "-c", cfg, "--calibration", str(cal), str(out_dir), "-o"]
    assert main(track + [str(band)]) == 0
    assert tops == [160] * 20
    # the same estimates as from whole frames
    monkeypatch.setattr(sltrack.io, "iter_pgm_dir",
                        lambda frames_dir, rate_hz, top: real(frames_dir, rate_hz))
    assert main(track + [str(whole)]) == 0
    assert band.read_bytes() == whole.read_bytes()


def full_run(tmp_path, config, stream=None):
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", config, "-o", str(out_dir)]) == 0
    empty = make_empty_frame(tmp_path, config)
    cal = tmp_path / "cal.txt"
    assert main(["calibrate", "-c", config, empty, "-o", str(cal)]) == 0
    est_csv = tmp_path / "estimates.csv"
    argv = ["track", "-c", config, "--calibration", str(cal), str(out_dir),
            "-o", str(est_csv)]
    if stream:
        argv += ["--stream", stream]
    assert main(argv) == 0
    return est_csv, out_dir / "truth.csv"


def test_track_noiseless_stationary_all_detected(tmp_path):
    cfg = stationary_config(tmp_path)
    est_csv, _ = full_run(tmp_path, cfg)
    rows = read_estimates_csv(str(est_csv))
    assert len(rows) == 20
    assert all(r.pos is not None for r in rows)
    assert all(abs(r.pos.z - 200.0) <= 2.5 for r in rows)


def test_track_empty_scene_all_undetected(tmp_path):
    # user parked behind the sensor's visible depth band: no reflection
    cfg = stationary_config(tmp_path, position=(0.0, 100.0))
    est_csv, _ = full_run(tmp_path, cfg)
    rows = read_estimates_csv(str(est_csv))
    assert len(rows) == 20
    assert not any(r.pos is not None for r in rows)


def test_track_mismatched_calibration_exit_2(tmp_path):
    cfg = stationary_config(tmp_path)
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(out_dir)]) == 0
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=239\n", encoding="utf-8")  # no room below
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(out_dir),
                 "-o", str(tmp_path / "est.csv")]) == 2


def test_track_with_live_stream(tmp_path):
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(2.0)
    port = receiver.getsockname()[1]
    try:
        cfg = stationary_config(tmp_path)
        est_csv, _ = full_run(tmp_path, cfg, stream=f"127.0.0.1:{port}")
        packets = []
        while len(packets) < 20:
            try:
                data, _ = receiver.recvfrom(256)
            except socket.timeout:
                break
            packets.append(decode(data))
        packets.sort(key=lambda packet: packet.seq)
        rows = read_estimates_csv(str(est_csv))
        assert [packet.seq for packet in packets] == list(range(20))
        assert len(rows) == 20
        for packet, row in zip(packets, rows):
            assert packet.timestamp_ms == row.timestamp_ms
            # both are three-decimal text of the same estimate, read as floats
            assert packet.pos == (None if row.pos is None else (row.pos.x, row.pos.z))
    finally:
        receiver.close()


def test_track_without_frames_exit_2_before_streaming(tmp_path, capsys):
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    receiver.settimeout(0.2)
    port = receiver.getsockname()[1]
    cfg = stationary_config(tmp_path)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    no_frames = tmp_path / "no_frames"
    no_frames.mkdir()
    (no_frames / "notes.txt").write_text("not a frame", encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    try:
        assert main(["track", "-c", cfg, "--calibration", str(cal),
                     str(no_frames), "-o", str(est_csv),
                     "--stream", f"127.0.0.1:{port}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no .pgm frames in {no_frames}\n"
        assert captured.out == ""  # no streamer started, nothing tracked
        assert not est_csv.exists()
        with pytest.raises(socket.timeout):
            receiver.recvfrom(256)
    finally:
        receiver.close()


def test_track_to_dev_null(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_outputs_are_rewritten_in_place_never_truncated(tmp_path, monkeypatch):
    # a truncating open of an existing file makes ext4 flush it at close
    cfg = stationary_config(tmp_path)
    frames, cal = tmp_path / "frames", tmp_path / "cal.txt"
    est_csv, metrics_json = tmp_path / "estimates.csv", tmp_path / "metrics.json"
    empty = make_empty_frame(tmp_path, cfg)
    commands = [
        ["simulate", "-c", cfg, "-o", str(frames)],
        ["calibrate", "-c", cfg, empty, "-o", str(cal)],
        ["track", "-c", cfg, "--calibration", str(cal), str(frames),
         "-o", str(est_csv)],
        ["evaluate", str(est_csv), str(frames / "truth.csv"),
         "--json", str(metrics_json)],
    ]
    for argv in commands:
        assert main(argv) == 0
    outputs = {str(p) for p in frames.iterdir()} | {
        str(cal), str(est_csv), str(metrics_json)}
    written, truncated = [], []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):
            written.append(os.fspath(path))
        if flags & os.O_TRUNC:
            truncated.append(os.fspath(path))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "w" in mode:
            truncated.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)  # pathlib opens through io.open
    for argv in commands:
        assert main(argv) == 0
    monkeypatch.undo()
    # track writes its CSV twice: the header before any frame, then the table
    assert sorted(written) == sorted([*outputs, str(est_csv)])
    assert truncated == []


def test_track_missing_output_directory_exit_2_before_tracking(tmp_path, capsys,
                                                              monkeypatch):
    import sltrack.cli as cli

    calls = []
    monkeypatch.setattr(cli, "track_stream",
                        lambda *a, **kw: calls.append("track_stream") or [])
    monkeypatch.setattr(cli, "PositionStreamer",
                        lambda *a, **kw: calls.append("streamer"))
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)  # one frame in the frames directory
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    est_csv = tmp_path / "nodir" / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv), "--stream", "127.0.0.1:9"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no such file: {est_csv}\n"
    assert captured.out == ""
    assert calls == []
    assert not est_csv.parent.exists()


def test_track_out_of_range_port_exit_2_before_tracking(tmp_path, capsys,
                                                      monkeypatch):
    # getaddrinfo would quietly wrap port 70000 to 4464
    import sltrack.cli as cli

    calls = []
    monkeypatch.setattr(cli, "track_stream",
                        lambda *a, **kw: calls.append("track_stream") or [])
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)  # one frame in the frames directory
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv), "--stream", "127.0.0.1:70000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "70000" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert calls == []
    assert not est_csv.exists()


def test_track_port_not_ascii_digits_exit_2_before_tracking(tmp_path, capsys,
                                                           monkeypatch):
    # int() would read "8_0" as port 80
    import sltrack.cli as cli

    calls = []
    monkeypatch.setattr(cli, "track_stream",
                        lambda *a, **kw: calls.append("track_stream") or [])
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)  # one frame in the frames directory
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv), "--stream", "127.0.0.1:8_0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: non-numeric port '8_0'\n"
    assert captured.out == ""
    assert calls == []
    assert not est_csv.exists()


def test_track_missing_frames_directory_exit_2(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    missing, est_csv = tmp_path / "no_such_dir", tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(missing),
                 "-o", str(est_csv)]) == 2
    assert capsys.readouterr().err == f"error: no .pgm frames in {missing}\n"
    assert not est_csv.exists()


def test_track_calibration_without_prefix_exit_2_naming_the_file(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text("160\n", encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: calibration file {cal}: expected 'v_b=<int>'\n")
    assert not est_csv.exists()


@pytest.mark.parametrize("text,token", [("v_b=1_60\n", "'1_60'"),
                                        ("v_b=\u0661\u0666\u0660\n",
                                         "'\u0661\u0666\u0660'"),
                                        ("v_b= 160\n", "' 160'"),
                                        ("v_b=+160\n", "'+160'")],
                         ids=["underscore", "arabic-indic-digits", "space", "plus"])
def test_track_calibration_value_not_ascii_digits_exit_2(tmp_path, capsys, text, token):
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text(text, encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: calibration file {cal}: non-numeric v_b {token}\n")
    assert not est_csv.exists()


def test_track_calibration_value_of_5000_digits_exit_2_naming_it(tmp_path, capsys):
    # int() alone refuses it with its digit-limit error, naming no field
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=" + "1" * 5000 + "\n", encoding="utf-8")
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: calibration file {cal}: v_b too large: 5000 digits\n")


@pytest.mark.parametrize("what", ["config", "calibration"])
def test_a_config_or_calibration_file_past_its_bound_exit_2_unread(tmp_path, capsys,
                                                                   what):
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    huge = tmp_path / "huge.txt"
    huge.write_bytes(b"")
    os.truncate(huge, 2**40)  # sparse: no disk, and read only up to the bound
    if what == "config":
        cfg = str(huge)
    else:
        cal = huge
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(tmp_path / "est.csv")]) == 2
    where = "config" if what == "config" else f"calibration file {huge}"
    captured = capsys.readouterr()
    assert captured.err == f"error: {where}: longer than 1048576 characters\n"
    assert captured.out == ""


def test_track_calibration_file_not_in_utf8_exit_2(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    cal = tmp_path / "cal.txt"
    cal.write_bytes(b"v_b=\xb1\xb6\xb0\n")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv)]) == 2
    assert capsys.readouterr().err == (
        f"error: calibration file {cal}: 'utf-8' codec can't decode byte 0xb1 "
        f"in position 4: invalid start byte\n")
    assert not est_csv.exists()


def test_track_truncated_frame_exit_2_naming_the_file(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(out_dir)]) == 0
    bad = out_dir / "000015.pgm"
    bad.write_bytes(bad.read_bytes()[:19])  # the 15-byte header and 4 pixels
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(out_dir),
                 "-o", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: truncated payload: want 76800 bytes, have 4 "
        f"(byte offset 19)\n")


def test_track_frame_with_a_5000_digit_width_exit_2_naming_the_file(tmp_path,
                                                                    capsys):
    cfg = stationary_config(tmp_path, duration=0.5)
    out_dir = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(out_dir)]) == 0
    bad = out_dir / "000003.pgm"
    bad.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n")
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(out_dir),
                 "-o", str(tmp_path / "est.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: width too large: 5000 digits (byte offset 3)\n")


def test_track_frame_of_a_mebibyte_of_zero_bytes_exit_2_with_one_short_line(
        tmp_path, capsys, monkeypatch):
    # the magic token is the whole file: its quote is cut at 32 bytes
    monkeypatch.chdir(tmp_path)
    cfg = stationary_config(tmp_path)
    Path("frames").mkdir()
    Path("frames/000000.pgm").write_bytes(bytes(2**20))
    Path("cal.txt").write_text("v_b=160\n", encoding="utf-8")
    assert main(["track", "-c", cfg, "--calibration", "cal.txt", "frames",
                 "-o", "est.csv"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: frames/000000.pgm: unsupported magic b'" + r"\x00" * 32
                   + "'... (1048576 bytes), want binary P5 (byte offset 0)\n")
    assert len(err) < 300


def test_a_failed_track_leaves_the_header_and_no_older_rows(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    est_csv, truth_csv = full_run(tmp_path, cfg)
    assert len(read_estimates_csv(str(est_csv))) == 20
    bad = tmp_path / "frames" / "000010.pgm"
    bad.write_bytes(bad.read_bytes()[:19])
    assert main(["track", "-c", cfg, "--calibration", str(tmp_path / "cal.txt"),
                 str(tmp_path / "frames"), "-o", str(est_csv)]) == 2
    assert est_csv.read_text(encoding="utf-8") == (
        "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n")
    capsys.readouterr()
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 2
    assert capsys.readouterr().err == "error: 0 estimates vs 20 truth frames\n"


def test_track_skips_a_directory_named_like_a_frame(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    frames = tmp_path / "frames"
    assert main(["simulate", "-c", cfg, "-o", str(frames)]) == 0
    (frames / "000002x.pgm").mkdir()
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(frames),
                 "-o", str(est_csv)]) == 0
    assert capsys.readouterr().err == ""
    assert [r.frame for r in read_estimates_csv(str(est_csv))] == list(range(20))


@pytest.mark.parametrize("command", ["track", "calibrate", "evaluate"])
def test_missing_input_file_exit_2(tmp_path, capsys, command):
    # a missing calibration file, empty-scene frame or truth CSV is a usage
    # error, as a missing config is
    cfg = stationary_config(tmp_path)
    est_csv = str(tmp_path / "est.csv")
    write_estimates_csv([PositionEstimate(0, 0)], est_csv)
    missing = str(tmp_path / "missing")
    argv = {
        "track": ["track", "-c", cfg, "--calibration", missing, str(tmp_path),
                  "-o", str(tmp_path / "out.csv")],
        "calibrate": ["calibrate", "-c", cfg, missing],
        "evaluate": ["evaluate", est_csv, missing],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "track-calibration",
                                     "track-out", "track-config"])
def test_a_directory_given_for_a_file_exit_2_naming_it(tmp_path, capsys, command):
    # a usage error, as a missing file is, not a runtime fault
    cfg = stationary_config(tmp_path)
    frames = tmp_path / "frames"
    frames.mkdir()
    make_empty_frame(frames, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text("v_b=160\n", encoding="utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    cal, frames, folder, out = str(cal), str(frames), str(folder), str(tmp_path / "e.csv")
    argv = {
        "calibrate": ["calibrate", "-c", cfg, folder],
        "evaluate": ["evaluate", folder, cal],
        "track-calibration": ["track", "-c", cfg, "--calibration", folder, frames,
                              "-o", out],
        "track-out": ["track", "-c", cfg, "--calibration", cal, frames, "-o", folder],
        "track-config": ["track", "-c", folder, "--calibration", cal, frames, "-o", out],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: is a directory: {folder}\n"


def test_evaluate_identical_files_rms_zero(tmp_path, capsys):
    cfg = stationary_config(tmp_path)
    est_csv, truth_csv = full_run(tmp_path, cfg)
    metrics_json = tmp_path / "metrics.json"
    assert main(["evaluate", str(est_csv), str(truth_csv),
                 "--json", str(metrics_json)]) == 0
    report = json.loads(metrics_json.read_text(encoding="utf-8"))
    assert report["detection_rate"] == 1.0
    assert report["rms_error_cm"] <= 1.0  # quantization only


def test_evaluate_six_eight_offset_rms_10(tmp_path, capsys):
    from sltrack import (PositionEstimate, SceneState, WorldPosition,
                         write_estimates_csv, write_truth_csv)
    from sltrack.detect import Detection

    truth = [SceneState(user=WorldPosition(0.0, 200.0), timestamp_ms=50 * i)
             for i in range(5)]
    ests = [PositionEstimate(i, 50 * i, WorldPosition(6.0, 208.0),
                             Detection(160.0, 200, 10, 100.0))
            for i in range(5)]
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    write_estimates_csv(ests, str(est_csv))
    write_truth_csv(truth, str(truth_csv))
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 0
    out = capsys.readouterr().out
    assert "rms error (cm):    10.000" in out


def test_evaluate_prints_and_writes_each_metric_once(tmp_path, capsys):
    from sltrack import SceneState, WorldPosition, write_truth_csv
    from sltrack.detect import Detection

    truth = [SceneState(user=WorldPosition(0.0, 200.0), timestamp_ms=50 * i)
             for i in range(4)]
    ests = [PositionEstimate(i, 50 * i, WorldPosition(6.0, 208.0),
                             Detection(160.0, 200, 10, 100.0)) for i in range(3)]
    ests.append(PositionEstimate(3, 150))
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    write_estimates_csv(ests, str(est_csv))
    write_truth_csv(truth, str(truth_csv))
    metrics_json = tmp_path / "metrics.json"
    assert main(["evaluate", str(est_csv), str(truth_csv),
                 "--json", str(metrics_json)]) == 0
    assert capsys.readouterr().out == (
        "frames:            4\n"
        "detection rate:    0.750\n"
        "rms error (cm):    10.000\n"
        "max error (cm):    10.000\n"
        "p95 error (cm):    10.000\n"
        "within 10 cm:      1.000\n")
    assert metrics_json.read_text(encoding="utf-8") == (
        '{\n  "frames": 4,\n  "detection_rate": 0.75,\n  "rms_error_cm": 10.0,\n'
        '  "max_error_cm": 10.0,\n  "p95_error_cm": 10.0,\n'
        '  "within_10cm_fraction": 1.0\n}\n')


def test_evaluate_an_empty_room_scores_nothing(tmp_path, capsys):
    # no frame holds a user: there is no detection rate to report, not 0
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    est_csv.write_text("frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"
                       "0,0,0,,,,\n1,50,0,,,,\n2,100,0,,,,\n", encoding="utf-8")
    truth_csv.write_text("frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n"
                         "0,0,0,,,25.000\n1,50,0,,,25.000\n2,100,0,,,25.000\n",
                         encoding="utf-8")
    metrics_json = tmp_path / "metrics.json"
    assert main(["evaluate", str(est_csv), str(truth_csv),
                 "--json", str(metrics_json)]) == 0
    assert capsys.readouterr().out == (
        "frames:            3\n"
        "detection rate:    n/a\n"
        "rms error (cm):    n/a\n"
        "max error (cm):    n/a\n"
        "p95 error (cm):    n/a\n"
        "within 10 cm:      n/a\n")
    assert json.loads(metrics_json.read_text(encoding="utf-8")) == {
        "frames": 3, "detection_rate": None, "rms_error_cm": None,
        "max_error_cm": None, "p95_error_cm": None, "within_10cm_fraction": None}


def test_evaluate_impossible_position_names_its_line_exit_2(tmp_path, capsys):
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    est_csv.write_text("frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"
                       "0,0,0,,,,\n1,50,1,160.000,200,0.000,-5\n",
                       encoding="utf-8")
    truth_csv.write_text("frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n"
                         "0,0,0,,,25.000\n1,50,0,,,25.000\n", encoding="utf-8")
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 2
    assert capsys.readouterr().err == (
        "error: estimates CSV line 3: z: must be > 0\n")


def test_evaluate_a_sparse_1_gib_csv_exit_2_naming_the_line(tmp_path, capsys):
    # 1 GiB of NULs and no line end: the reader stops at the line bound
    # instead of reading the file whole
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    est_csv.write_bytes(b"")
    os.truncate(est_csv, 2**30)
    truth_csv.write_text("frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n",
                         encoding="utf-8")
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 2
    assert capsys.readouterr().err == (
        "error: estimates CSV line 1: longer than 65536 bytes\n")


def test_evaluate_a_csv_that_is_not_utf8_exit_2_naming_the_line(tmp_path, capsys):
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    rows = "".join(f"{i},{50 * i},0,,,,\n" for i in range(2000))
    est_csv.write_bytes(("frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"
                         + rows).encode("utf-8") + b"2000,100000,0,\xff,,,\n")
    truth_csv.write_text("frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n",
                         encoding="utf-8")
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 2
    assert capsys.readouterr().err == (
        "error: estimates CSV line 2002: 'utf-8' codec can't decode byte 0xff in "
        "position 14: invalid start byte\n")


@pytest.mark.parametrize("edit,message", [
    (lambda rows: rows[:5] + [rows[6], rows[5]] + rows[7:],
     "estimates CSV line 7: expected frame 5, got 6"),
    (lambda rows: rows[:5] + [rows[4]] + rows[6:],
     "estimates CSV line 7: expected frame 5, got 4"),
], ids=["swapped", "duplicated"])
def test_evaluate_rows_out_of_frame_order_exit_2_naming_the_line(tmp_path, capsys,
                                                                 edit, message):
    # evaluate pairs estimates with truth rows by position, so a row out of
    # place would be scored against another frame's truth
    cfg = stationary_config(tmp_path)
    est_csv, truth_csv = full_run(tmp_path, cfg)
    header, *rows = est_csv.read_text(encoding="utf-8").splitlines()
    est_csv.write_text("\n".join([header, *edit(rows)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", str(est_csv), str(truth_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_evaluate_length_mismatch_exit_2(tmp_path):
    cfg = stationary_config(tmp_path)
    est_csv, truth_csv = full_run(tmp_path, cfg)
    clipped = tmp_path / "short.csv"
    lines = Path(est_csv).read_text(encoding="utf-8").splitlines()
    clipped.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    assert main(["evaluate", str(clipped), str(truth_csv)]) == 2


def test_bench_reports_positive_fps(ref_config, capsys):
    assert main(["bench", "-c", ref_config, "-n", "30"]) == 0
    out = capsys.readouterr().out
    fps = float(out.split("->")[1].split("fps")[0])
    assert fps > 0


def test_bench_replays_trajectory_past_its_end(ref_config, capsys):
    # the reference trajectory has 200 states: frames 200..249 replay it,
    # and their timestamps must keep increasing through track_stream
    assert main(["bench", "-c", ref_config, "-n", "250"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(
        r"250 frames in \d+\.\d{4} s -> \d+\.\d fps \(250 detections\)\n", out)


def test_bench_tracks_a_serial_render_of_the_wrapped_states(ref_config, monkeypatch):
    # frames 200..204 replay the 200-state trajectory from its start
    import sltrack.cli as cli
    from sltrack import load_config, render

    tracked = []
    monkeypatch.setattr(cli, "track_stream",
                        lambda frames, *a, **kw: tracked.extend(frames) or [])
    assert main(["bench", "-c", ref_config, "-n", "205"]) == 0
    cfg = load_config(ref_config)
    states = cfg.trajectory.materialize(cfg.rig)
    assert len(tracked) == 205
    for i, frame in enumerate(tracked):
        state = replace(states[i % len(states)], timestamp_ms=50 * i)
        want = render(cfg.rig, state, cfg.noise, cfg.intensity, index=i)
        assert (frame.index, frame.timestamp_ms) == (i, 50 * i)
        assert np.array_equal(frame.pixels, want.pixels)


@pytest.mark.parametrize("n,message", [
    ("1_0", "non-numeric frames '1_0'"),
    ("+5", "non-numeric frames '+5'"),
    ("9" * 5000, "frames too large: 5000 digits"),
], ids=["underscore", "plus", "5000-digits"])
def test_bench_frame_count_is_ascii_digits_exit_2(ref_config, capsys, n, message):
    # argparse's type=int reads 1_0 as 10 and +5 as 5
    assert main(["bench", "-c", ref_config, "-n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bench_zero_frames_usage_error(ref_config):
    assert main(["bench", "-c", ref_config, "-n", "0"]) == 2


def test_a_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    from sltrack import SceneState, WorldPosition, write_truth_csv
    from sltrack.detect import Detection

    truth = [SceneState(user=WorldPosition(0.0, 200.0), timestamp_ms=50 * i)
             for i in range(3)]
    ests = [PositionEstimate(0, 0), *(
        PositionEstimate(i, 50 * i, WorldPosition(3.0 * i, 204.0),
                         Detection(160.0, 200, 10, 100.0)) for i in (1, 2))]
    est_csv, truth_csv = tmp_path / "e.csv", tmp_path / "t.csv"
    write_estimates_csv(ests, str(est_csv))
    write_truth_csv(truth, str(truth_csv))
    argv = ["evaluate", str(est_csv), str(truth_csv)]
    src = str(Path(sltrack.__file__).resolve().parent.parent)
    alone = subprocess.run(
        [sys.executable, "-c",
         "import sys; from sltrack.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert (alone.returncode, alone.stderr) == (0, "")
    with pytest.raises(SystemExit) as exc_info:
        main(["track"])
    assert exc_info.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sltrack")
    assert main(argv) == 0
    assert capsys.readouterr() == (alone.stdout, "")


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["teleport"])
    assert exc_info.value.code == 2
