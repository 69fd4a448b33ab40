"""Fuzzing of the file readers, the SLT1 decoder and the command line:
malformed input fails with a located error.

``read_pgm`` may only raise :class:`PgmError` naming its file, with a byte
offset inside the data, the CSV readers only ``ValueError`` naming the table and line,
``load_config`` only :class:`ConfigError` naming the config or a section, and
``decode`` only ``ValueError`` quoting the packet. ``sltrack calibrate``,
``track`` and ``evaluate`` on corrupted input files exit 0, 1 or 2, with one
``error:`` line when not 0, and never raise.
"""

from __future__ import annotations

import io as stdio
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_CONFIG, file_of
from sltrack import (ConfigError, PgmError, PositionEstimate, RunConfig,
                     SceneState, WorldPosition, decode, encode, load_config,
                     read_estimates_csv, read_pgm, read_truth_csv, render, write_pgm)
from sltrack.cli import main
from sltrack.io import ESTIMATES_HEADER, TRUTH_HEADER

FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

@st.composite
def _edited_pgm(draw) -> bytes:
    """A valid small PGM, then up to three cuts, insertions or overwrites."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = bytearray(f"P5\n{w} {h}\n255\n".encode("ascii"))
    data += draw(st.binary(min_size=w * h, max_size=w * h))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["cut", "insert", "overwrite"]))
        if edit == "cut":
            del data[at:]
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif at < len(data):
            data[at] = draw(st.sampled_from(b"0123456789 #\nPx\xff"))
    return bytes(data)


_pgm = st.one_of(st.binary(max_size=64), _edited_pgm())


@FUZZ
@given(_pgm)
def test_read_pgm_fails_only_with_an_offset(tmp_path_factory, data):
    path = file_of(data, tmp_path_factory.getbasetemp() / "fuzz.pgm")
    try:
        frame = read_pgm(path)
    except PgmError as exc:
        assert 0 <= exc.offset <= len(data)
        assert str(exc).startswith(f"{path}: ")
        assert str(exc).endswith(f"(byte offset {exc.offset})")
    else:
        assert frame.pixels.size == frame.width * frame.height > 0


# fields: numbers, blanks, flags and junk that int()/float() may reject
_field = st.one_of(st.sampled_from(["0", "1", "", "-1", "2.5", "nan", "inf",
                                    "1e3", "x"]),
                   st.text("0123456789.-e", max_size=5), st.text(max_size=3))
_row = st.lists(_field, min_size=0, max_size=8).map(",".join)


def _table(header: str):
    return st.builds(lambda head, rows: "\n".join([head, *rows]) + "\n",
                     st.sampled_from([header, header, header[:-1], ""]),
                     st.lists(_row, max_size=6))


def _assert_located(read, what: str, path: str) -> None:
    try:
        read(path)
    except ValueError as exc:
        assert re.match(rf"{what} CSV line [1-9][0-9]*: ", str(exc)), str(exc)


@FUZZ
@given(_table(ESTIMATES_HEADER))
def test_read_estimates_csv_fails_only_naming_a_line(tmp_path_factory, text):
    _assert_located(read_estimates_csv, "estimates",
                    file_of(text, tmp_path_factory.getbasetemp() / "fuzz.csv"))


@FUZZ
@given(_table(TRUTH_HEADER))
def test_read_truth_csv_fails_only_naming_a_line(tmp_path_factory, text):
    _assert_located(read_truth_csv, "truth",
                    file_of(text, tmp_path_factory.getbasetemp() / "fuzz.csv"))


# JSON values of every kind, nested; json.dumps writes NaN and Infinity too
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)

with open(REFERENCE_CONFIG, encoding="utf-8") as _fh:
    _REFERENCE = json.load(_fh)


@st.composite
def _edited_reference(draw) -> dict:
    """The reference config with a key of one section (or a new key) set to
    any JSON value, or the section itself replaced."""
    cfg = json.loads(json.dumps(_REFERENCE))
    name = draw(st.sampled_from(sorted(cfg)))
    value = draw(_json)
    if draw(st.booleans()):
        cfg[name] = value
    else:
        cfg[name][draw(st.sampled_from(sorted(cfg[name])) | st.text(max_size=5))] = value
    return cfg


def _assert_config_or_config_error(path: str) -> None:
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        # one prefix: the section and a dot, or "config: " for the document
        assert re.match(r"config[.:]|(rig|detect|noise|intensity|smoother|trajectory)\.",
                        str(exc)), str(exc)
    else:
        assert isinstance(cfg, RunConfig)


@FUZZ
@given(st.binary(max_size=64))
def test_load_config_of_any_bytes_fails_only_with_a_config_error(tmp_path_factory, data):
    _assert_config_or_config_error(
        file_of(data, tmp_path_factory.getbasetemp() / "fuzz.json"))


@FUZZ
@given(_json.map(json.dumps) | _edited_reference().map(json.dumps))
@example("[" * 10**5)  # json.loads raises RecursionError past its depth
@example('{"rig": ' + "1" * 5000 + "}")  # past int()'s 4300-digit limit
def test_load_config_of_any_json_fails_only_with_a_config_error(tmp_path_factory, text):
    _assert_config_or_config_error(
        file_of(text, tmp_path_factory.getbasetemp() / "fuzz.json"))


# SLT1 packets: random bytes; valid-looking lines built from fields that
# encode writes, fields it never writes, and junk; and SLT1 lines whose
# timestamp, x or z runs to thousands of digits, past int()'s digit limit
# and float()'s range
_digits = st.integers(1, 5000).map(lambda n: "9" * n)
_token = st.one_of(st.sampled_from(["SLT1", "0", "1", "-5", "4294967296", "nan",
                                    "inf", "-0.000", "12.500", "x", "", "\xff"]),
                   st.text("0123456789.-+e", max_size=6), _digits)
_packet = st.one_of(
    st.binary(max_size=40),
    st.lists(_token, max_size=7).map(
        lambda parts: (" ".join(parts) + "\n").encode("latin-1")),
    st.tuples(_digits, _digits, _digits).map(
        lambda d: f"SLT1 1 {d[0]} 1 {d[1]}.000 {d[2]}.500\n".encode("ascii")),
)


@FUZZ
@given(_packet)
def test_decode_fails_only_quoting_the_packet(data):
    try:
        packet = decode(data)
    except ValueError as exc:
        assert str(exc).endswith(f": {data!r}"), str(exc)
    else:
        assert 0 <= packet.seq < 2**32
        if packet.pos is not None:
            assert all(math.isfinite(c) for c in packet.pos)


_cm = st.floats(-1e6, 1e6, allow_nan=False)


@FUZZ
@given(seq=st.integers(0, 2**32 - 1), ts=st.integers(0, 2**32 - 1),
       pos=st.none() | st.tuples(_cm, st.floats(1e-3, 1e6)))
def test_decode_inverts_encode(seq, ts, pos):
    est = PositionEstimate(frame_index=0, timestamp_ms=ts,
                           pos=WorldPosition(*pos) if pos else None)
    packet = decode(encode(est, seq))
    assert ((packet.seq, packet.timestamp_ms, packet.pos is not None)
            == (seq, ts, pos is not None))
    if pos is not None:
        assert packet.pos == (float(f"{pos[0]:.3f}"), float(f"{pos[1]:.3f}"))


# --- the command line over corrupted input files ----------------------------

# a 32x24 rig with the wall on row 16 and a foot on row 20: small frames keep
# each command at a few milliseconds
_SMALL_RIG = {"d": 40.0, "f": 40.0, "z_b": 400.0, "width": 32, "height": 24,
              "u0": 16.0, "v0": 12.0}
_INPUTS = ["frames/000002.pgm", "frames/truth.csv", "empty.pgm", "cal.txt", "est.csv"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A valid 4-frame clip with its truth CSV, an empty frame, a calibration
    file and an estimates CSV; maps each input file to its valid bytes."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    cfg = json.loads(json.dumps(_REFERENCE))
    cfg["rig"] = _SMALL_RIG
    cfg["noise"]["background_sigma"] = 2.0
    cfg["trajectory"] = {"kind": "stationary", "rate_hz": 20.0, "duration_s": 0.2,
                         "foot_width": 25.0, "position": [0.0, 200.0]}
    (root / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    config = load_config(str(root / "config.json"))
    write_pgm(render(config.rig, SceneState(user=None), config.noise,
                     config.intensity, index=99), str(root / "empty.pgm"))
    with redirect_stdout(stdio.StringIO()):
        assert main(["simulate", "-c", str(root / "config.json"),
                     "-o", str(root / "frames")]) == 0
        assert main(["calibrate", "-c", str(root / "config.json"),
                     str(root / "empty.pgm"), "-o", str(root / "cal.txt")]) == 0
        assert main(["track", "-c", str(root / "config.json"), "--calibration",
                     str(root / "cal.txt"), str(root / "frames"),
                     "-o", str(root / "est.csv")]) == 0
    return root, {name: (root / name).read_bytes() for name in _INPUTS}


# a run of 5000 digits is past int()'s digit limit
_insert = st.sampled_from([b"0", b"7", b"99", b"\0", b"\r", b"\n", b",", b"#",
                           b"nan", b"1e999", b"-", b"\xff", b"9" * 5000])


@st.composite
def _corruption(draw) -> tuple[str, list]:
    """One input file and up to three truncations, overwrites or insertions."""
    name = draw(st.sampled_from(_INPUTS))
    edits = draw(st.lists(st.tuples(st.sampled_from(["cut", "overwrite", "insert"]),
                                    st.floats(0, 1), _insert),
                          min_size=1, max_size=3))
    return name, edits


def _corrupt(data: bytes, edits: list) -> bytes:
    out = bytearray(data)
    for edit, where, token in edits:
        at = int(where * len(out))
        if edit == "cut":
            del out[at:]
        elif edit == "overwrite":
            out[at:at + len(token)] = token
        else:
            out[at:at] = token
    return bytes(out)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_corruption())
@example(corruption=("cal.txt", [("insert", 0.6, b"9" * 5000)]))  # into v_b
@example(corruption=("est.csv", [("insert", 0.457, b"9" * 5000)]))  # a timestamp_ms
def test_cli_on_a_corrupted_input_exits_with_one_error_line(small_run, corruption):
    root, valid = small_run
    name, edits = corruption
    (root / name).write_bytes(_corrupt(valid[name], edits))
    config = str(root / "config.json")
    try:
        for argv in (["calibrate", "-c", config, str(root / "empty.pgm")],
                     ["track", "-c", config, "--calibration", str(root / "cal.txt"),
                      str(root / "frames"), "-o", str(root / "out.csv")],
                     ["evaluate", str(root / "est.csv"),
                      str(root / "frames" / "truth.csv")]):
            err = stdio.StringIO()
            with redirect_stdout(stdio.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code)
            if code:
                assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), err.getvalue()
                # int()'s own digit-limit error names no field
                assert "set_int_max_str_digits" not in err.getvalue(), err.getvalue()
            else:
                assert err.getvalue() == ""
    finally:
        (root / name).write_bytes(valid[name])
