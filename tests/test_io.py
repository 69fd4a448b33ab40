"""PGM codec, config loading, and CSV round-trips."""

from __future__ import annotations

import io as stdio
import json

import numpy as np
import pytest

from sltrack import (ConfigError, Detection, Frame, PgmError, PositionEstimate,
                     SceneState, WorldPosition, load_config,
                     read_estimates_csv, read_pgm, read_truth_csv,
                     write_estimates_csv, write_pgm, write_truth_csv)
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


def test_truth_csv_round_trip():
    states = [
        SceneState(user=WorldPosition(10.5, 250.0), foot_width=25.0, timestamp_ms=0),
        SceneState(user=None, foot_width=25.0, timestamp_ms=50),
        SceneState(user=WorldPosition(-99.999, 135.5), foot_width=20.0,
                   timestamp_ms=100),
    ]
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
    (read_truth_csv, "",
     f"truth CSV line 1: expected header {TRUTH.strip()!r}"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,200.0,25.0,9\n",
     "truth CSV line 2: expected 6 fields, got 7"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,-1.0,25.0\n",
     "truth CSV line 2: z: must be > 0"),
    (read_truth_csv, TRUTH + "0,0,1,0.0,200.0,25.0\n5,50,0,,,25.0\n",
     "truth CSV line 3: expected frame 1, got 5"),
], ids=["estimates-header", "estimates-short-row", "estimates-int",
        "estimates-float", "truth-header", "truth-long-row", "truth-invariant",
        "truth-frame-not-its-position"])
def test_csv_errors_name_table_and_line(read, text, message):
    with pytest.raises(ValueError) as exc_info:
        read(stdio.StringIO(text))
    assert str(exc_info.value) == message
