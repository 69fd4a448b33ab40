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
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import REFERENCE_CONFIG
from sltrack import PositionEstimate, read_estimates_csv, write_estimates_csv
from sltrack.cli import main


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
    for i, state in enumerate(states):
        buf = io.BytesIO()
        write_pgm(render(cfg.rig, state, cfg.noise, cfg.intensity, index=i), buf)
        assert (out / f"{i:06d}.pgm").read_bytes() == buf.getvalue(), i


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
    assert all(r.detected for r in rows)
    assert all(abs(r.z_cm - 200.0) <= 2.5 for r in rows)


def test_track_empty_scene_all_undetected(tmp_path):
    # user parked behind the sensor's visible depth band: no reflection
    cfg = stationary_config(tmp_path, position=(0.0, 100.0))
    est_csv, _ = full_run(tmp_path, cfg)
    rows = read_estimates_csv(str(est_csv))
    assert len(rows) == 20
    assert not any(r.detected for r in rows)


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
        full_run(tmp_path, cfg, stream=f"127.0.0.1:{port}")
        packets = []
        while len(packets) < 20:
            try:
                data, _ = receiver.recvfrom(256)
            except socket.timeout:
                break
            packets.append(data)
        assert len(packets) > 0
        assert all(p.startswith(b"SLT1 ") for p in packets)
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
    assert sorted(written) == sorted(outputs)
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


@pytest.mark.parametrize("text", ["v_b=1_60\n", "v_b=\u0661\u0666\u0660\n",
                                  "v_b= 160\n", "v_b=+160\n"],
                         ids=["underscore", "arabic-indic-digits", "space", "plus"])
def test_track_calibration_value_not_ascii_digits_exit_2(tmp_path, capsys, text):
    cfg = stationary_config(tmp_path)
    make_empty_frame(tmp_path, cfg)
    cal = tmp_path / "cal.txt"
    cal.write_text(text, encoding="utf-8")
    est_csv = tmp_path / "est.csv"
    assert main(["track", "-c", cfg, "--calibration", str(cal), str(tmp_path),
                 "-o", str(est_csv)]) == 2
    assert capsys.readouterr().err == f"error: calibration file {cal}: bad v_b value\n"
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


def test_bench_zero_frames_usage_error(ref_config):
    assert main(["bench", "-c", ref_config, "-n", "0"]) == 2


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["teleport"])
    assert exc_info.value.code == 2
