"""PGM codec, config loading, and CSV round-trips."""

from __future__ import annotations

import errno
import io as stdio
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sltrack
from sltrack import (ConfigError, Detection, Frame, PgmError, PositionEstimate,
                     SceneState, WorldPosition, load_config,
                     read_estimates_csv, read_pgm, read_truth_csv,
                     write_estimates_csv, write_pgm, write_truth_csv)
from sltrack.cli import main as cli_main
from sltrack.io import iter_pgm_dir
from conftest import REFERENCE_CONFIG


def frame_from(values, width, height) -> Frame:
    return Frame(width=width, height=height,
                 pixels=np.array(values, dtype=np.uint8).reshape(height, width))


# --- PGM -----------------------------------------------------------------------

def test_pgm_golden_2x2_bytes():
    frame = frame_from([0, 255, 128, 7], 2, 2)
    buf = stdio.BytesIO()
    write_pgm(frame, buf)
    assert buf.getvalue() == b"P5\n2 2\n255\n\x00\xff\x80\x07"


def test_pgm_rejects_ascii_variant():
    with pytest.raises(PgmError):
        read_pgm(stdio.BytesIO(b"P2\n2 2\n255\n0 1 2 3\n"))


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(stdio.BytesIO(b"P5\n2 2\n65535\n" + b"\x00" * 8))


def test_pgm_truncated_payload_reports_offset():
    with pytest.raises(PgmError, match="offset") as exc_info:
        read_pgm(stdio.BytesIO(b"P5\n4 4\n255\n\x00\x01"))
    assert exc_info.value.offset == len(b"P5\n4 4\n255\n") + 2


def test_pgm_truncated_header():
    with pytest.raises(PgmError):
        read_pgm(stdio.BytesIO(b"P5\n2"))
    # no whitespace byte after maxval: the header ends at the last byte
    with pytest.raises(PgmError, match="truncated header") as exc_info:
        read_pgm(stdio.BytesIO(b"P5\n1 1\n255"))
    assert exc_info.value.offset == 10


def test_pgm_rejects_bytes_after_the_payload():
    header = b"P5\n2 1\n255\n"
    with pytest.raises(PgmError, match="13 bytes after the payload") as exc_info:
        read_pgm(stdio.BytesIO(header + b"\x05\x06EXTRA-GARBAGE"))
    assert exc_info.value.offset == len(header) + 2


@pytest.mark.parametrize("data,name,token,offset", [
    (b"P5\n3_20 2\n255\n" + bytes(640), "width", b"3_20", 3),
    (b"P5\n+3 2\n255\n" + bytes(6), "width", b"+3", 3),
    (b"P5\n3 -2\n255\n", "height", b"-2", 5),
    (b"P5\n2 2\n2_55\n" + bytes(4), "maxval", b"2_55", 7),
    (b"P5\n2 2\n+255\n" + bytes(4), "maxval", b"+255", 7),
], ids=["width-underscore", "width-plus", "height-minus", "maxval-underscore",
        "maxval-plus"])
def test_pgm_header_numbers_are_ascii_digits(data, name, token, offset):
    # int() alone reads "3_20" as 320 and "+255" as 255
    with pytest.raises(PgmError) as exc_info:
        read_pgm(stdio.BytesIO(data))
    assert str(exc_info.value) == (
        f"non-numeric {name} {token!r} (byte offset {offset})")
    assert exc_info.value.offset == offset


LONG_WIDTH = b"P5\n" + b"1" * 5000 + b" 1\n255\n"


@pytest.mark.parametrize("data,message", [
    (LONG_WIDTH, "width too large: 5000 digits (byte offset 3)"),
    (b"P5\n2 00" + b"9" * 19 + b"\n255\n", "height too large: 19 digits (byte offset 5)"),
    (b"P5\n2 1\n" + b"2" * 4301 + b"\n\x05\x06",
     "maxval too large: 4301 digits (byte offset 7)"),
], ids=["width-5000-digits", "height-19-digits", "maxval-4301-digits"])
def test_pgm_header_numbers_past_18_digits_fail_at_their_token(tmp_path, data,
                                                                message):
    # int() refuses a string of more than 4300 digits with a plain ValueError
    path = tmp_path / "frame.pgm"
    path.write_bytes(data)
    for source in (str(path), stdio.BytesIO(data)):
        with pytest.raises(PgmError) as exc_info:
            read_pgm(source)
        assert str(exc_info.value) == message


def test_pgm_header_numbers_up_to_18_digits_still_read():
    # leading zeros do not count, and a product of two 18-digit numbers
    # still prints in the payload message
    data = b"P5\n" + b"0" * 5000 + b"2 1\n255\n\x05\x06"
    assert read_pgm(stdio.BytesIO(data)).pixels.tolist() == [[5, 6]]
    with pytest.raises(PgmError) as exc_info:
        read_pgm(stdio.BytesIO(b"P5\n" + b"9" * 18 + b" " + b"9" * 18 + b"\n255\n"))
    assert str(exc_info.value) == (
        f"truncated payload: want {(10**18 - 1) ** 2} bytes, have 0 (byte offset 45)")


def test_pgm_skips_comments():
    data = b"P5\n# a comment\n2 1\n255\n\x05\x06"
    frame = read_pgm(stdio.BytesIO(data))
    assert frame.pixels.tolist() == [[5, 6]]


def test_pgm_round_trip_1000_random_frames():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        w = int(rng.integers(1, 24))
        h = int(rng.integers(1, 24))
        frame = Frame(width=w, height=h,
                      pixels=rng.integers(0, 256, (h, w)).astype(np.uint8))
        buf = stdio.BytesIO()
        write_pgm(frame, buf)
        buf.seek(0)
        back = read_pgm(buf)
        assert (back.width, back.height) == (w, h)
        assert np.array_equal(back.pixels, frame.pixels)


def test_pgm_file_path_round_trip(tmp_path, rig, quiet, intensity):
    from sltrack import render
    frame = render(rig, SceneState(user=WorldPosition(0.0, 200.0)), quiet,
                   intensity)
    path = tmp_path / "frame.pgm"
    write_pgm(frame, str(path))
    back = read_pgm(str(path))
    assert np.array_equal(back.pixels, frame.pixels)


_PGM_PARTS = ["magic", "sep1", "width", "sep2", "height", "sep3", "maxval",
              "end", "cut", "extra"]


@st.composite
def _pgm_bytes(draw):
    """PGM bytes as write_pgm writes them, with up to three parts replaced:
    odd whitespace or comments, non-digit, zero or padded numbers, another
    magic or maxval, no byte after maxval, a payload cut short or followed by
    extra bytes."""
    odd = draw(st.sets(st.sampled_from(_PGM_PARTS), max_size=3))

    def part(name, plain, other):
        return draw(other) if name in odd else plain

    seps = st.sampled_from([b"\t", b"\r", b"\x0b", b"\x0c", b"  ", b"\r\n",
                            b"\n# comment\n", b" #\n\t"])
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def number(name, value):
        return part(name, str(value).encode(), st.integers(0, 6).map(
            lambda n: str(n).encode()) | st.sampled_from(
            [b"0%d" % value, b"+%d" % value, b"%d_0" % value, b"x", b"\xd9\xa3"]))

    header = b"".join([
        part("magic", b"P5", st.sampled_from([b"P2", b"P6", b"P55", b"p5"])),
        part("sep1", b"\n", seps), number("width", width),
        part("sep2", b" ", seps), number("height", height),
        part("sep3", b"\n", seps),
        part("maxval", b"255", st.sampled_from([b"65535", b"0255", b"25", b"2550"])),
        part("end", b"\n", st.sampled_from([b" ", b"\t", b"\r", b""]))])
    payload = draw(st.binary(min_size=width * height, max_size=width * height))
    cut = part("cut", 0, st.sampled_from([1, width * height]))
    extra = part("extra", b"", st.sampled_from([b"\x00", b"TRAILING"]))
    return header + payload[:len(payload) - cut] + extra


def _read_outcome(source):
    try:
        frame = read_pgm(source)
    except PgmError as exc:
        return str(exc), exc.offset
    assert frame.pixels.flags.writeable
    return frame.width, frame.height, frame.pixels.tobytes()


@settings(max_examples=400, deadline=None, database=None)
@given(data=_pgm_bytes())
def test_reading_a_pgm_file_equals_reading_its_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "frame.pgm"
    path.write_bytes(data)
    assert _read_outcome(str(path)) == _read_outcome(stdio.BytesIO(data))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pgm_from_a_pipe_is_read_to_its_end(tmp_path):
    # a pipe's stat size is 0, so the reader must grow its buffer
    data = b"P5\n300 200\n255\n" + (bytes(range(256)) * 235)[:60000]
    path = tmp_path / "frame.pgm"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,))
    writer.start()
    try:
        frame = read_pgm(str(path))
    finally:
        writer.join()
    assert frame.pixels.tobytes() == data[len(b"P5\n300 200\n255\n"):]


def test_a_bad_frame_in_a_directory_names_its_file(tmp_path):
    for i in range(3):
        write_pgm(frame_from([i] * 6, 3, 2), str(tmp_path / f"{i:06d}.pgm"))
    bad = tmp_path / "000002.pgm"
    bad.write_bytes(b"P5\n3 2\n255\n\x01\x02")
    frames = iter_pgm_dir(str(tmp_path), 20.0)
    for i in range(2):
        frame = next(frames)
        assert (frame.index, frame.timestamp_ms) == (i, 50 * i)
        assert frame.pixels.tolist() == [[i] * 3] * 2
    with pytest.raises(PgmError) as exc_info:
        next(frames)
    assert str(exc_info.value) == (
        f"{bad}: truncated payload: want 6 bytes, have 2 (byte offset 13)")
    assert (exc_info.value.offset, exc_info.value.path) == (13, str(bad))


def test_a_frame_with_a_5000_digit_width_names_its_file(tmp_path):
    write_pgm(frame_from([1] * 6, 3, 2), str(tmp_path / "000000.pgm"))
    bad = tmp_path / "000001.pgm"
    bad.write_bytes(LONG_WIDTH)
    frames = iter_pgm_dir(str(tmp_path), 20.0)
    next(frames)
    with pytest.raises(PgmError) as exc_info:
        next(frames)
    assert str(exc_info.value) == f"{bad}: width too large: 5000 digits (byte offset 3)"


def test_a_clip_lists_the_entries_path_glob_lists(tmp_path, monkeypatch, capsys):
    clip = tmp_path / "x"
    clip.mkdir()
    for name in ("a.pgm", ".b.pgm", "C.PGM", "d.pgm.txt"):
        (clip / name).write_bytes(b"")
    (clip / "e.pgm").mkdir()
    (clip / "h.pgm").symlink_to(clip / "missing")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sltrack.io, "read_pgm", lambda path, **_: path)
    for spelling in ("x", "./x/", "x//", str(clip), str(clip) + "/"):
        paths = list(iter_pgm_dir(spelling, 20.0))
        assert paths == sorted(str(path) for path in Path(spelling).glob("*.pgm"))
    assert list(iter_pgm_dir("./x/", 20.0)) == ["x/.b.pgm", "x/a.pgm", "x/e.pgm",
                                                "x/h.pgm"]
    monkeypatch.chdir(clip)
    assert list(iter_pgm_dir("", 20.0)) == [".b.pgm", "a.pgm", "e.pgm", "h.pgm"]
    # simulate refuses the same entries as another clip's frames
    assert cli_main(["simulate", "-c", REFERENCE_CONFIG, "-o", "."]) == 2
    assert capsys.readouterr().err == (
        "error: output directory . holds .b.pgm, which is not one of this "
        "clip's 200 frames\n")


# --- config --------------------------------------------------------------------

def reference_dict() -> dict:
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def load_from_dict(cfg: dict):
    return load_config(stdio.StringIO(json.dumps(cfg)))


def test_reference_config_is_the_reference_rig():
    cfg = load_config(REFERENCE_CONFIG)
    assert (cfg.rig.d, cfg.rig.f, cfg.rig.z_b) == (40.0, 400.0, 400.0)
    assert (cfg.rig.width, cfg.rig.height) == (320, 240)
    assert (cfg.rig.u0, cfg.rig.v0) == (160.0, 120.0)
    assert cfg.detect.ath_base == 10.0
    assert cfg.detect.ath_slope == 0.5
    assert cfg.detect.min_run == 3
    assert cfg.intensity.i_ref == 60.0 and cfg.intensity.z_ref == 400.0
    assert cfg.trajectory.foot_width == 25.0
    states = cfg.trajectory.materialize(cfg.rig)
    assert len(states) == 200  # 20 Hz * 10 s


def test_config_zero_baseline_names_key():
    cfg = reference_dict()
    cfg["rig"]["d"] = 0.0
    with pytest.raises(ConfigError, match="d"):
        load_from_dict(cfg)


def test_config_unusable_wall_row_rejected():
    cfg = reference_dict()
    cfg["rig"]["v0"] = 230.0  # wall row 270 >= height
    with pytest.raises(ConfigError, match="back-wall"):
        load_from_dict(cfg)


def test_config_missing_key_named():
    cfg = reference_dict()
    del cfg["noise"]["seed"]
    with pytest.raises(ConfigError, match="noise.seed"):
        load_from_dict(cfg)


def test_config_missing_trajectory_section():
    cfg = reference_dict()
    del cfg["trajectory"]
    with pytest.raises(ConfigError, match="trajectory"):
        load_from_dict(cfg)


def test_config_unknown_key_rejected():
    cfg = reference_dict()
    cfg["rig"]["zoom"] = 2.0
    with pytest.raises(ConfigError, match="zoom"):
        load_from_dict(cfg)
    cfg = reference_dict()
    cfg["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        load_from_dict(cfg)


def test_config_type_mismatch_named():
    cfg = reference_dict()
    cfg["detect"]["min_run"] = "three"
    with pytest.raises(ConfigError, match="min_run"):
        load_from_dict(cfg)
    cfg = reference_dict()
    cfg["rig"]["width"] = 320.5
    with pytest.raises(ConfigError, match="width"):
        load_from_dict(cfg)


def test_config_trajectory_kind_specific_keys():
    cfg = reference_dict()
    cfg["trajectory"] = {"kind": "stationary", "rate_hz": 20.0,
                         "duration_s": 1.0, "foot_width": 25.0,
                         "position": [0.0, 200.0]}
    assert load_from_dict(cfg).trajectory.kind == "stationary"
    cfg["trajectory"]["radius"] = 5.0  # circle key on a stationary spec
    with pytest.raises(ConfigError, match="radius"):
        load_from_dict(cfg)


def test_config_not_json():
    with pytest.raises(ConfigError):
        load_config(stdio.StringIO("rig: {d: 40}"))


# Golden messages. One base config per trajectory kind: the reference
# config (a stroll) and the same config with a stationary or circle path.
OTHER_TRAJECTORIES = {
    "stationary": {"kind": "stationary", "rate_hz": 20.0, "duration_s": 1.0,
                   "foot_width": 25.0, "position": [0.0, 200.0]},
    "circle": {"kind": "circle", "rate_hz": 20.0, "duration_s": 2.0,
               "foot_width": 25.0, "center": [0.0, 250.0], "radius": 40.0,
               "omega": 1.0},
}


def base_config(kind: str) -> dict:
    cfg = reference_dict()
    if kind != "stroll":
        cfg["trajectory"] = dict(OTHER_TRAJECTORIES[kind])
    return cfg


def config_error(cfg: dict) -> str:
    with pytest.raises(ConfigError) as exc_info:
        load_from_dict(cfg)
    return str(exc_info.value)


NUMBER = "expected a number, got 'x'"
INTEGER = "expected an integer, got 'x'"
BOOLEAN = "expected true/false, got 'x'"
POINT = "expected [x_cm, z_cm]"

# (base trajectory kind, section, key, message when the key is set to "x")
EVERY_KEY = [
    *[("stroll", "rig", k, NUMBER) for k in ("d", "f", "z_b", "u0", "v0")],
    *[("stroll", "rig", k, INTEGER) for k in ("width", "height")],
    *[("stroll", "detect", k, NUMBER)
      for k in ("ath_base", "ath_slope", "ath_min", "ath_max")],
    ("stroll", "detect", "min_run", INTEGER),
    ("stroll", "noise", "background_sigma", NUMBER),
    ("stroll", "noise", "background_mean", NUMBER),
    ("stroll", "noise", "seed", INTEGER),
    ("stroll", "intensity", "i_ref", NUMBER),
    ("stroll", "intensity", "z_ref", NUMBER),
    ("stroll", "smoother", "alpha", NUMBER),
    ("stroll", "smoother", "enabled", BOOLEAN),
    *[(kind, "trajectory", "kind", "unknown kind 'x'")
      for kind in ("stroll", "stationary", "circle")],
    *[(kind, "trajectory", k, NUMBER)
      for kind in ("stroll", "stationary", "circle")
      for k in ("rate_hz", "duration_s", "foot_width")],
    ("stroll", "trajectory", "a", POINT),
    ("stroll", "trajectory", "b", POINT),
    ("stroll", "trajectory", "speed", NUMBER),
    ("stationary", "trajectory", "position", POINT),
    ("circle", "trajectory", "center", POINT),
    ("circle", "trajectory", "radius", NUMBER),
    ("circle", "trajectory", "omega", NUMBER),
]


@pytest.mark.parametrize("kind,section,key,type_message", EVERY_KEY,
                         ids=[f"{k}:{s}.{key}" for k, s, key, _ in EVERY_KEY])
def test_config_message_for_every_key(kind, section, key, type_message):
    cfg = base_config(kind)
    del cfg[section][key]
    if (section, key) in (("rig", "u0"), ("rig", "v0")):
        rig = load_from_dict(cfg).rig  # optional: defaults to the frame center
        assert (rig.u0, rig.v0) == (160.0, 120.0)
    else:
        assert config_error(cfg) == f"{section}.{key}: missing"

    cfg = base_config(kind)
    cfg[section][key] = "x"
    assert config_error(cfg) == f"{section}.{key}: {type_message}"

    cfg = base_config(kind)
    cfg[section]["zzz_" + key] = 1.0
    assert config_error(cfg) == f"{section}.zzz_{key}: unknown key"

    # json.loads reads NaN, Infinity and -Infinity; no number key takes them
    for bad in (math.nan, math.inf, -math.inf):
        if type_message == NUMBER:
            cfg = base_config(kind)
            cfg[section][key] = bad
            assert config_error(cfg) == f"{section}.{key}: must be finite"
        elif type_message == POINT:
            for point in ([bad, 200.0], [0.0, bad]):
                cfg = base_config(kind)
                cfg[section][key] = point
                assert config_error(cfg) == f"{section}.{key}: must be finite"


SECTIONS = ["rig", "detect", "noise", "intensity", "smoother", "trajectory"]


@pytest.mark.parametrize("section", SECTIONS)
def test_config_message_for_every_section(section):
    cfg = base_config("stroll")
    del cfg[section]
    assert config_error(cfg) == f"config.{section}: missing"
    cfg = base_config("stroll")
    cfg[section] = [cfg[section]]
    assert config_error(cfg) == f"config.{section}: expected an object"


@pytest.mark.parametrize("mutate,message", [
    (lambda c: c.update(extras={}), "config.extras: unknown key"),
    (lambda c: c["trajectory"].update(kind=[]),
     "trajectory.kind: unknown kind []"),
    (lambda c: c["trajectory"].update(radius=5.0),
     "trajectory.radius: unknown key"),
    # each section's own invariant keeps exactly one section prefix
    (lambda c: c["rig"].update(d=0.0), "rig.d: must be > 0"),
    (lambda c: c["detect"].update(ath_min=20.0),
     "detect: require ath_min <= ath_base <= ath_max"),
    (lambda c: c["noise"].update(seed=-1), "noise.seed: must be >= 0"),
    (lambda c: c["intensity"].update(z_ref=0.0), "intensity.z_ref: must be > 0"),
    (lambda c: c["smoother"].update(alpha=0.0),
     "smoother.alpha: must lie in (0, 1]"),
    (lambda c: c["trajectory"].update(rate_hz=0.0),
     "trajectory.rate_hz: must be > 0"),
    # the trajectory's rig-free invariants and path parameters fail at load
    (lambda c: c["trajectory"].update(speed=-1),
     "trajectory.speed: must be > 0"),
    (lambda c: c["trajectory"].update(speed=0), "trajectory.speed: must be > 0"),
    (lambda c: c["trajectory"].update(rate_hz=5000),
     "trajectory.rate_hz: must be <= 1000"),
    (lambda c: c["trajectory"].update(duration_s=0.01),
     "trajectory.duration_s: shorter than one frame at rate_hz"),
    (lambda c: c.update(trajectory=dict(OTHER_TRAJECTORIES["circle"], radius=-3)),
     "trajectory.radius: must be >= 0"),
    (lambda c: c.update(trajectory=dict(OTHER_TRAJECTORIES["stationary"],
                                        position=[0.0, 0.0])),
     "trajectory.position: z must be > 0"),
    # a JSON integer too large for a float is named, its digits not echoed
    (lambda c: c["rig"].update(d=10**400), "rig.d: out of range for a float"),
    (lambda c: c["trajectory"].update(a=[0.0, 10**400]),
     "trajectory.a: out of range for a float"),
    # and an integer outside int64 fails at load, not in a dataclass
    (lambda c: (c["rig"].pop("u0", None), c["rig"].update(width=10**400)),
     "rig.width: out of range for a 64-bit integer"),
    (lambda c: c["noise"].update(seed=-2**63 - 1),
     "noise.seed: out of range for a 64-bit integer"),
    # a sensor too large to render fails at load, not in numpy
    (lambda c: c["rig"].update(width=2**40),
     "rig.width: width * height must be <= 16777216"),
], ids=["top-level-unknown", "unhashable-kind", "other-kinds-key", "rig",
        "detect", "noise", "intensity", "smoother", "trajectory",
        "negative-speed", "zero-speed", "rate-above-1000", "empty-clip",
        "negative-radius", "stationary-at-z-0", "number-past-float-range",
        "point-past-float-range", "width-past-int64-range",
        "seed-below-int64-range", "pixel-count-above-cap"])
def test_config_section_and_invariant_messages(mutate, message):
    cfg = base_config("stroll")
    mutate(cfg)
    assert config_error(cfg) == message


def test_trajectory_leaving_the_workspace_fails_at_materialize():
    cfg = base_config("stroll")
    cfg["trajectory"]["b"] = [0.0, 500.0]  # beyond the 400 cm back wall
    loaded = load_from_dict(cfg)
    with pytest.raises(ValueError, match="exits workspace at frame"):
        loaded.trajectory.materialize(loaded.rig)


# --- CSV -----------------------------------------------------------------------

def make_estimates():
    det = Detection(u_f=180.25, v_f=200, run_len=12, mass=2400.0)
    return [
        PositionEstimate(0, 0, WorldPosition(50.0, 200.0), det),
        PositionEstimate(1, 50, None, None),
        PositionEstimate(2, 100, WorldPosition(-12.3456, 333.333),
                         Detection(u_f=145.5, v_f=170, run_len=30, mass=900.0)),
    ]


def test_estimates_csv_format():
    buf = stdio.StringIO()
    write_estimates_csv(make_estimates(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm"
    assert lines[1] == "0,0,1,180.250,200,50.000,200.000"
    assert lines[2] == "1,50,0,,,,"
    assert lines[3] == "2,100,1,145.500,170,-12.346,333.333"


def test_estimates_csv_empty_stream_is_header_only():
    buf = stdio.StringIO()
    write_estimates_csv([], buf)
    assert buf.getvalue() == "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"


def test_estimates_csv_round_trip_1000_random():
    rng = np.random.default_rng(23)
    estimates = []
    for i in range(1000):
        if rng.random() < 0.3:
            estimates.append(PositionEstimate(i, 50 * i))
        else:
            x = float(np.round(rng.uniform(-150, 150), 3))
            z = float(np.round(rng.uniform(1, 400), 3))
            u = float(np.round(rng.uniform(0, 319), 3))
            v = int(rng.integers(161, 239))
            estimates.append(PositionEstimate(
                i, 50 * i, WorldPosition(x, z),
                Detection(u_f=u, v_f=v, run_len=5, mass=100.0)))
    buf = stdio.StringIO()
    write_estimates_csv(estimates, buf)
    buf.seek(0)
    rows = read_estimates_csv(buf)
    assert len(rows) == 1000
    for est, row in zip(estimates, rows):
        assert (row.frame, row.timestamp_ms) == (est.frame_index, est.timestamp_ms)
        if est.pos is None:
            assert not row.detected
        else:
            assert row.detected
            assert row.x_cm == pytest.approx(est.pos.x, abs=5e-4)
            assert row.z_cm == pytest.approx(est.pos.z, abs=5e-4)
            assert row.u_f == pytest.approx(est.detection.u_f, abs=5e-4)
            assert row.v_f == est.detection.v_f


def truth_states():
    return [
        SceneState(user=WorldPosition(10.5, 250.0), foot_width=25.0, timestamp_ms=0),
        SceneState(user=None, foot_width=25.0, timestamp_ms=50),
        SceneState(user=WorldPosition(-99.999, 135.5), foot_width=20.0,
                   timestamp_ms=100),
    ]


def test_truth_csv_round_trip():
    states = truth_states()
    buf = stdio.StringIO()
    write_truth_csv(states, buf)
    buf.seek(0)
    back = read_truth_csv(buf)
    assert back == states


def test_csv_header_validation():
    with pytest.raises(ValueError):
        read_estimates_csv(stdio.StringIO("nope\n"))
    with pytest.raises(ValueError):
        read_truth_csv(stdio.StringIO("nope\n"))


ESTIMATES = "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"
TRUTH = "frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n"


@pytest.mark.parametrize("read,text,message", [
    (read_estimates_csv, "nope\n",
     f"estimates CSV line 1: expected header {ESTIMATES.strip()!r}"),
    (read_estimates_csv, ESTIMATES + "0,0,1\n",
     "estimates CSV line 2: expected 7 fields, got 3"),
    (read_estimates_csv, ESTIMATES + "0,0,0,,,,\n1,x,0,,,,\n",
     "estimates CSV line 3: invalid literal for int() with base 10: 'x'"),
    (read_estimates_csv, ESTIMATES + "0,0,1,1.5,200,y,100.0\n",
     "estimates CSV line 2: could not convert string to float: 'y'"),
    (read_estimates_csv, ESTIMATES + "0,0,0,,,,\n1,50,1,1.5,200,nan,100.0\n",
     "estimates CSV line 3: position must be finite"),
    (read_estimates_csv, ESTIMATES + "0,0,1,1.5,200,10.0,-5\n",
     "estimates CSV line 2: z: must be > 0"),
    (read_truth_csv, "",
     f"truth CSV line 1: expected header {TRUTH.strip()!r}"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,200.0,25.0,9\n",
     "truth CSV line 2: expected 6 fields, got 7"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,-1.0,25.0\n",
     "truth CSV line 2: z: must be > 0"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,200.0,25.0\n5,50,0,,,25.0\n",
     "truth CSV line 3: expected frame 1, got 5"),
], ids=["estimates-header", "estimates-short-row", "estimates-int",
        "estimates-float", "estimates-nan-position", "estimates-invariant",
        "truth-header", "truth-long-row", "truth-invariant",
        "truth-frame-not-its-position"])
def test_csv_errors_name_table_and_line(read, text, message):
    with pytest.raises(ValueError) as exc_info:
        read(stdio.StringIO(text))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("field,value,message", [
    ("frame", "1_0", "invalid literal for int() with base 10: '1_0'"),
    ("timestamp_ms", "+5", "invalid literal for int() with base 10: '+5'"),
    ("detected", "yes", "detected: expected 0 or 1, got 'yes'"),
    ("u_f", "1_60.5", "could not convert string to float: '1_60.5'"),
    ("v_f", " 200", "invalid literal for int() with base 10: ' 200'"),
    ("x_cm", "1_0.0", "could not convert string to float: '1_0.0'"),
    ("z_cm", "2_00", "could not convert string to float: '2_00'"),
    ("z_cm", "200.0 ", "could not convert string to float: '200.0 '"),
    ("frame", "\u0661", "invalid literal for int() with base 10: '\u0661'"),
])
def test_estimates_csv_fields_are_strict(field, value, message):
    # int() and float() alone read 1_0 as 10, +5 as 5 and " 200" as 200
    row = dict(zip(ESTIMATES.strip().split(","),
                   ["10", "5", "1", "160.5", "200", "10.0", "200.0"]))
    row[field] = value
    text = ESTIMATES + "0,0,0,,,,\n" + ",".join(row.values()) + "\n"
    with pytest.raises(ValueError) as exc_info:
        read_estimates_csv(stdio.StringIO(text))
    assert str(exc_info.value) == f"estimates CSV line 3: {message}"


@pytest.mark.parametrize("field,value,message", [
    ("frame", "0_1", "invalid literal for int() with base 10: '0_1'"),
    ("timestamp_ms", " 50", "invalid literal for int() with base 10: ' 50'"),
    ("present", "true", "present: expected 0 or 1, got 'true'"),
    ("present", "", "present: expected 0 or 1, got ''"),
    ("x_cm", "1_0.0", "could not convert string to float: '1_0.0'"),
    ("z_cm", "\t200.0", "could not convert string to float: '\\t200.0'"),
    ("foot_width_cm", "2_5.0", "could not convert string to float: '2_5.0'"),
])
def test_truth_csv_fields_are_strict(field, value, message):
    row = dict(zip(TRUTH.strip().split(","),
                   ["1", "50", "1", "10.0", "200.0", "25.0"]))
    row[field] = value
    text = TRUTH + "0,0,0,,,25.0\n" + ",".join(row.values()) + "\n"
    with pytest.raises(ValueError) as exc_info:
        read_truth_csv(stdio.StringIO(text))
    assert str(exc_info.value) == f"truth CSV line 3: {message}"


@pytest.mark.parametrize("read,row,message", [
    (read_estimates_csv, "0,0,0,1.5,200,junk,-5",
     "estimates CSV line 3: u_f: expected empty with detected 0, got '1.5'"),
    (read_estimates_csv, "0,0,0,,200,,",
     "estimates CSV line 3: v_f: expected empty with detected 0, got '200'"),
    (read_estimates_csv, "0,0,0,,,10.0,",
     "estimates CSV line 3: x_cm: expected empty with detected 0, got '10.0'"),
    (read_estimates_csv, "0,0,0,,,, ",
     "estimates CSV line 3: z_cm: expected empty with detected 0, got ' '"),
    (read_truth_csv, "1,0,0,junk,,25.0",
     "truth CSV line 3: x_cm: expected empty with present 0, got 'junk'"),
    (read_truth_csv, "1,0,0,,200.0,25.0",
     "truth CSV line 3: z_cm: expected empty with present 0, got '200.0'"),
], ids=["estimates-u_f", "estimates-v_f", "estimates-x_cm", "estimates-z_cm",
        "truth-x_cm", "truth-z_cm"])
def test_a_row_without_a_position_leaves_its_position_fields_empty(read, row,
                                                                   message):
    header, first = ((ESTIMATES, "0,0,0,,,,") if read is read_estimates_csv
                     else (TRUTH, "0,0,0,,,25.0"))
    with pytest.raises(ValueError) as exc_info:
        read(stdio.StringIO(f"{header}{first}\n{row}\n"))
    assert str(exc_info.value) == message


def test_the_loose_estimates_row_fails_on_its_line():
    with pytest.raises(ValueError, match="^estimates CSV line 2: "):
        read_estimates_csv(stdio.StringIO(ESTIMATES + "1_0,+5,1,1_60.5, 200,1_0.0,2_00\n"))


# --- output files: rewritten in place, then cut to length ----------------------

def in_memory(write, data, buffer) -> bytes:
    """What ``write`` puts in a fresh in-memory sink, as bytes."""
    buf = buffer()
    write(data, buf)
    value = buf.getvalue()
    return value.encode("utf-8") if isinstance(value, str) else value


@pytest.mark.parametrize("write,long,short,buffer", [
    (write_pgm, frame_from([7] * 76800, 320, 240),
     frame_from([0, 255, 128, 7], 2, 2), stdio.BytesIO),
    (write_estimates_csv, make_estimates(), make_estimates()[1:2], stdio.StringIO),
    (write_truth_csv, truth_states(), truth_states()[1:2], stdio.StringIO),
], ids=["pgm", "estimates", "truth"])
def test_a_shorter_rewrite_holds_exactly_the_new_bytes(tmp_path, write, long,
                                                       short, buffer):
    path = tmp_path / "out"
    write(long, str(path))
    assert path.read_bytes() == in_memory(write, long, buffer)
    write(short, str(path))
    assert path.read_bytes() == in_memory(write, short, buffer)


def test_a_write_that_raises_leaves_the_bytes_written_and_no_old_tail(tmp_path):
    path = tmp_path / "estimates.csv"
    write_estimates_csv([PositionEstimate(i, 50 * i) for i in range(1000)], str(path))

    def failing():
        yield from make_estimates()
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError):
        write_estimates_csv(failing(), str(path))
    assert path.read_bytes() == in_memory(write_estimates_csv, make_estimates(),
                                          stdio.StringIO)


# The file-size limit makes the kernel take only the first 1000 bytes and
# fail the next write with EFBIG, as a full disk would with ENOSPC: inside
# the block for the frame, written in one call larger than the buffer, and
# at the closing flush for the table, which fits in the buffer. The limit
# is set in a child so that the test process keeps its own.
_FSIZE_CHILD = """
import resource, signal, sys
import numpy as np
from sltrack import Frame, PositionEstimate, write_estimates_csv, write_pgm
kind, path = sys.argv[1:]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    if kind == "pgm":
        write_pgm(Frame(width=320, height=240,
                        pixels=np.full((240, 320), 9, np.uint8)), path)
    else:
        write_estimates_csv([PositionEstimate(i, 5 * i) for i in range(200)], path)
except OSError as exc:
    print(exc.errno)
"""


@pytest.mark.parametrize("kind", ["pgm", "estimates"])
def test_a_file_the_kernel_takes_in_part_ends_at_the_last_byte_taken(tmp_path,
                                                                     kind):
    path = tmp_path / "out"
    if kind == "pgm":
        write_pgm(frame_from([7] * 76800, 320, 240), str(path))
        new = in_memory(write_pgm, frame_from([9] * 76800, 320, 240),
                        stdio.BytesIO)
    else:
        write_estimates_csv([PositionEstimate(i, 50 * i) for i in range(5000)],
                            str(path))
        new = in_memory(write_estimates_csv,
                        [PositionEstimate(i, 5 * i) for i in range(200)],
                        stdio.StringIO)
    src = str(Path(sltrack.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", _FSIZE_CHILD, kind, str(path)],
                           env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"{errno.EFBIG}\n"
    assert len(new) > 1000
    assert path.read_bytes() == new[:1000]


def test_writing_a_path_keeps_the_semantics_of_open(tmp_path):
    frame = frame_from([1, 2], 2, 1)
    missing = tmp_path / "nodir" / "frame.pgm"
    with pytest.raises(FileNotFoundError) as exc_info:
        write_pgm(frame, str(missing))
    assert exc_info.value.filename == str(missing)
    with pytest.raises(IsADirectoryError):
        write_pgm(frame, str(tmp_path))
    umask = os.umask(0)
    os.umask(umask)
    new = tmp_path / "new.pgm"
    write_pgm(frame, str(new))
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask


def test_write_pgm_to_dev_null():
    # ftruncate fails with EINVAL on a character device
    write_pgm(frame_from([1, 2], 2, 1), os.devnull)
