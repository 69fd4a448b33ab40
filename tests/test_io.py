"""PGM codec, config loading, and CSV round-trips."""

from __future__ import annotations

import errno
import io as stdio
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sltrack
from sltrack import (ConfigError, Frame, PgmError, PositionEstimate,
                     SceneState, WorldPosition, load_config,
                     read_estimates_csv, read_pgm, read_truth_csv,
                     write_estimates_csv, write_pgm, write_truth_csv)
from sltrack.cli import main as cli_main
from sltrack.io import iter_pgm_dir, read_text, whole_number, write_text
from conftest import REFERENCE_CONFIG, file_of


def frame_from(values, width, height) -> Frame:
    return Frame(width=width, height=height,
                 pixels=np.array(values, dtype=np.uint8).reshape(height, width))


# --- PGM -----------------------------------------------------------------------

def test_pgm_golden_2x2_bytes(tmp_path):
    path = tmp_path / "frame.pgm"
    write_pgm(frame_from([0, 255, 128, 7], 2, 2), str(path))
    assert path.read_bytes() == b"P5\n2 2\n255\n\x00\xff\x80\x07"


def test_pgm_rejects_ascii_variant(tmp_path):
    with pytest.raises(PgmError):
        read_pgm(file_of(b"P2\n2 2\n255\n0 1 2 3\n", tmp_path / "frame.pgm"))


def test_pgm_rejects_wrong_maxval(tmp_path):
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(file_of(b"P5\n2 2\n65535\n" + b"\x00" * 8, tmp_path / "frame.pgm"))


def test_pgm_truncated_payload_reports_offset(tmp_path):
    with pytest.raises(PgmError, match="offset") as exc_info:
        read_pgm(file_of(b"P5\n4 4\n255\n\x00\x01", tmp_path / "frame.pgm"))
    assert exc_info.value.offset == len(b"P5\n4 4\n255\n") + 2


def test_pgm_truncated_header(tmp_path):
    with pytest.raises(PgmError):
        read_pgm(file_of(b"P5\n2", tmp_path / "frame.pgm"))
    # no whitespace byte after maxval: the header ends at the last byte
    with pytest.raises(PgmError, match="truncated header") as exc_info:
        read_pgm(file_of(b"P5\n1 1\n255", tmp_path / "frame.pgm"))
    assert exc_info.value.offset == 10


def test_pgm_rejects_bytes_after_the_payload(tmp_path):
    header = b"P5\n2 1\n255\n"
    with pytest.raises(PgmError, match="13 bytes after the payload") as exc_info:
        read_pgm(file_of(header + b"\x05\x06EXTRA-GARBAGE", tmp_path / "frame.pgm"))
    assert exc_info.value.offset == len(header) + 2


@pytest.mark.parametrize("data,name,token,offset", [
    (b"P5\n3_20 2\n255\n" + bytes(640), "width", b"3_20", 3),
    (b"P5\n+3 2\n255\n" + bytes(6), "width", b"+3", 3),
    (b"P5\n3 -2\n255\n", "height", b"-2", 5),
    (b"P5\n2 2\n2_55\n" + bytes(4), "maxval", b"2_55", 7),
    (b"P5\n2 2\n+255\n" + bytes(4), "maxval", b"+255", 7),
], ids=["width-underscore", "width-plus", "height-minus", "maxval-underscore",
        "maxval-plus"])
def test_pgm_header_numbers_are_ascii_digits(tmp_path, data, name, token, offset):
    # int() alone reads "3_20" as 320 and "+255" as 255
    path = file_of(data, tmp_path / "frame.pgm")
    with pytest.raises(PgmError) as exc_info:
        read_pgm(path)
    assert str(exc_info.value) == (
        f"{path}: non-numeric {name} {token!r} (byte offset {offset})")
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
    path = file_of(data, tmp_path / "frame.pgm")
    with pytest.raises(PgmError) as exc_info:
        read_pgm(path)
    assert str(exc_info.value) == f"{path}: {message}"


def test_pgm_header_numbers_up_to_18_digits_still_read(tmp_path):
    # leading zeros do not count, and a product of two 18-digit numbers
    # still prints in the payload message
    data = b"P5\n" + b"0" * 5000 + b"2 1\n255\n\x05\x06"
    assert read_pgm(file_of(data, tmp_path / "frame.pgm")).pixels.tolist() == [[5, 6]]
    path = file_of(b"P5\n" + b"9" * 18 + b" " + b"9" * 18 + b"\n255\n",
                   tmp_path / "frame.pgm")
    with pytest.raises(PgmError) as exc_info:
        read_pgm(path)
    assert str(exc_info.value) == (
        f"{path}: truncated payload: want {(10**18 - 1) ** 2} bytes, have 0 "
        "(byte offset 45)")


@pytest.mark.parametrize("token,value", [
    ("0", 0), ("007", 7), ("9" * 18, 10**18 - 1), ("0" * 5000 + "42", 42),
    (b"320", 320), (b"0" * 5000 + b"42", 42),
], ids=["zero", "leading-zeros", "18-digits", "5000-leading-zeros", "bytes",
        "bytes-5000-leading-zeros"])
def test_whole_number_reads_ascii_digits(token, value):
    assert whole_number(token, "n") == value


@pytest.mark.parametrize("token,message", [
    ("1" + "0" * 18, "n too large: 19 digits"),
    ("7" * 5000, "n too large: 5000 digits"),
    (b"7" * 5000, "n too large: 5000 digits"),
    ("-1", "non-numeric n '-1'"),
    ("", "non-numeric n ''"),
    ("x" * 40, "non-numeric n '" + "x" * 32 + "'... (40 characters)"),
    (b"x" * 40, "non-numeric n b'" + "x" * 32 + "'... (40 bytes)"),
], ids=["19-digits", "5000-digits", "bytes-5000-digits", "sign", "empty",
        "long-text", "long-bytes"])
def test_whole_number_refuses_naming_its_field(token, message):
    with pytest.raises(ValueError) as exc_info:
        whole_number(token, "n")
    assert str(exc_info.value) == message


def test_pgm_skips_comments(tmp_path):
    data = b"P5\n# a comment\n2 1\n255\n\x05\x06"
    frame = read_pgm(file_of(data, tmp_path / "frame.pgm"))
    assert frame.pixels.tolist() == [[5, 6]]


def test_pgm_round_trip_1000_random_frames(tmp_path):
    rng = np.random.default_rng(17)
    path = str(tmp_path / "frame.pgm")  # rewritten in place by each frame
    for _ in range(1000):
        w = int(rng.integers(1, 24))
        h = int(rng.integers(1, 24))
        frame = Frame(width=w, height=h,
                      pixels=rng.integers(0, 256, (h, w)).astype(np.uint8))
        write_pgm(frame, path)
        back = read_pgm(path)
        assert (back.width, back.height) == (w, h)
        assert np.array_equal(back.pixels, frame.pixels)


def test_pgm_round_trip_of_a_non_contiguous_view(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(4, 6)[::-1, ::2]  # 4x3, strided
    path = tmp_path / "view.pgm"
    write_pgm(Frame(width=3, height=4, pixels=pixels), str(path))
    assert path.read_bytes() == b"P5\n3 4\n255\n" + pixels.tobytes()
    assert np.array_equal(read_pgm(str(path)).pixels, pixels)


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


def _next_token(data: bytes, pos: int, path: str = "") -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("truncated header", pos, path)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


_MAX_DIGITS = 18


def _quoted(token: bytes) -> str:
    """A token as PgmError quotes it: whole up to 32 bytes, else its first 32
    bytes and its length."""
    return repr(token) if len(token) <= 32 else f"{token[:32]!r}... ({len(token)} bytes)"


def reference_read_pgm(data: bytes, path: str) -> np.ndarray:
    """The PGM reader as first written, of the bytes of the file ``path``: a
    byte-by-byte walk over the header tokens, each check in turn, then a
    copy of the payload."""
    magic, pos = _next_token(data, 0, path)
    if magic != b"P5":
        raise PgmError(f"unsupported magic {_quoted(magic)}, want binary P5", 0, path)
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos, path)
        if not token.isdigit():  # ASCII only; int() also takes "+3" and "3_20"
            raise PgmError(f"non-numeric {name} {_quoted(token)}", pos - len(token),
                           path)
        digits = token.lstrip(b"0")
        if len(digits) > _MAX_DIGITS:
            raise PgmError(f"{name} too large: {len(digits)} digits", pos - len(token),
                           path)
        fields.append(int(digits or b"0"))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}", pos, path)
    if maxval != 255:
        raise PgmError(f"maxval {maxval} unsupported, want 255", pos, path)
    if pos == len(data):
        raise PgmError("truncated header", pos, path)
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    have = len(data) - pos
    if have < expected:
        raise PgmError(f"truncated payload: want {expected} bytes, have {have}",
                       pos + have, path)
    if have > expected:
        raise PgmError(f"{have - expected} bytes after the payload", pos + expected,
                       path)
    pixels = np.frombuffer(data, np.uint8, expected, pos).reshape(height, width)
    return pixels.copy()


def _outcome(read, source):
    try:
        pixels = read(source)
    except PgmError as exc:
        return str(exc), exc.offset
    assert pixels.flags.writeable
    return pixels.shape, pixels.tobytes()


def _read_pixels(source):
    frame = read_pgm(source)
    assert frame.pixels.shape == (frame.height, frame.width)
    return frame.pixels


# header bytes worth inserting: comment starts, whitespace, digits, a non-digit
_HEADER_BYTES = st.lists(st.sampled_from([b"#", b"\n", b" ", b"\t", b"0", b"7", b"x"]),
                         min_size=1, max_size=4).map(b"".join)


@st.composite
def _pgm_bytes_with_insertion(draw):
    """:func:`_pgm_bytes` with a few bytes inserted, mostly into the header."""
    data = draw(_pgm_bytes())
    at = draw(st.integers(0, min(len(data), 24)))
    return data[:at] + draw(_HEADER_BYTES | st.binary(min_size=1, max_size=4)) + data[at:]


@settings(max_examples=600, deadline=None, database=None)
@given(data=_pgm_bytes() | st.binary(max_size=40) | _pgm_bytes_with_insertion(),
       other=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_reading_a_pgm_path_or_its_bytes_equals_the_reference_reader(tmp_path_factory,
                                                                     data, other):
    folder = tmp_path_factory.mktemp("pgm")
    path = file_of(data, folder / "frame.pgm")
    want = _outcome(lambda d: reference_read_pgm(d, path), data)
    another = file_of(b"P5\n%d %d\n255\n" % other + bytes(other[0] * other[1]),
                      folder / "another.pgm")
    # alone, right after another valid frame (whose header differs but for a
    # chance draw), and twice in a row: no read depends on the one before it
    assert _outcome(_read_pixels, path) == want
    read_pgm(another)
    assert _outcome(_read_pixels, path) == want
    assert _outcome(_read_pixels, path) == want


@pytest.mark.parametrize("data", [
    b"", b"P5", b"P5 #", b"P5 2 1 255 #\n", b"P5\n2#x 1\n255\n\x05\x06",
    b"#\nP5 2 1 255\n\x05\x06", b"P5 2 1 255", b"P5\t2\r1\x0b255\x0c\x05\x06",
    b"P5 0 1 255\n", b"P5 2 1 0255\n\x05\x06", b"P5 # 2\n2 1 255\n\x05\x06",
])
def test_pgm_header_edge_cases_read_as_the_reference_reader_reads_them(tmp_path, data):
    path = file_of(data, tmp_path / "frame.pgm")
    assert _outcome(_read_pixels, path) == _outcome(
        lambda d: reference_read_pgm(d, path), data)


@pytest.mark.parametrize("second,message", [
    (b"P5\n3 2\n255\n\5\6\7\10\11",
     "truncated payload: want 6 bytes, have 5 (byte offset 16)"),
    (b"P5\n3 2\n255\n\5\6\7\10\11\12\13", "1 bytes after the payload (byte offset 17)"),
    (b"P5\n3 2\n2550\n\5\6\7\10\11\12", "maxval 2550 unsupported, want 255 "
     "(byte offset 11)"),
], ids=["one-byte-short", "one-byte-long", "maxval-one-digit-longer"])
def test_a_frame_starting_like_the_last_header_reads_as_a_parse(tmp_path, second,
                                                                message):
    (tmp_path / "000000.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)))
    (tmp_path / "000001.pgm").write_bytes(second)
    for top in 0, 1:  # whole frames, and rows 1.. after a frame of this header
        frames = iter_pgm_dir(str(tmp_path), 20.0, top=top)
        assert next(frames).pixels.tolist() == [[0, 1, 2], [3, 4, 5]][top:]
        with pytest.raises(PgmError) as exc_info:
            next(frames)
        path = str(tmp_path / "000001.pgm")
        assert str(exc_info.value) == f"{path}: {message}"
        assert _outcome(lambda d: reference_read_pgm(d, path), second) == (
            str(exc_info.value), exc_info.value.offset)


def _last_rows_read_from(top):
    """A reader of the pixels of a clip directory's last frame, read by
    ``iter_pgm_dir`` from row ``top``, that checks the frame's ``top`` and
    shape."""
    def read(folder):
        *_, frame = iter_pgm_dir(str(folder), 20.0, top=top)
        assert frame.top == min(top, frame.height)
        assert frame.pixels.shape == (frame.height - frame.top, frame.width)
        return frame.pixels
    return read


def _frame_with_the_header_of(data: bytes) -> bytes | None:
    """A frame of zero pixels whose header bytes are those of ``data``, when
    its four header tokens read as numbers and their payload is small."""
    try:
        pos, tokens = 0, []
        for _ in range(4):
            token, pos = _next_token(data, pos)
            tokens.append(token)
        size = int(tokens[1]) * int(tokens[2])
    except (PgmError, ValueError):
        return None
    return data[:pos + 1] + bytes(size) if size <= 4096 else None


@st.composite
def _valid_pgm_bytes(draw):
    """A frame as write_pgm writes it, of 1 to 5 rows and columns."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    payload = draw(st.binary(min_size=width * height, max_size=width * height))
    return b"P5\n%d %d\n255\n" % (width, height) + payload


@settings(max_examples=600, deadline=None, database=None)
@given(data=_valid_pgm_bytes() | _pgm_bytes() | st.binary(max_size=40)
       | _pgm_bytes_with_insertion(),
       top=st.integers(1, 4) | st.integers(0, 7),
       before=st.sampled_from(["nothing", "another frame", "the same header"] * 2
                              + ["the same header"] * 2),
       other=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_reading_from_row_top_gives_those_rows_of_a_whole_read(tmp_path_factory,
                                                                data, top, before,
                                                                other):
    folder = tmp_path_factory.mktemp("clip")
    path = file_of(data, folder / "000001.pgm")
    want = _outcome(lambda d: reference_read_pgm(d, path)[top:], data)
    # frame 0 of the clip: none, one whose header differs (but for a chance
    # draw), or one with the same header bytes, after which a file that
    # starts with write_pgm's header and is as long as its payload reads only
    # its rows. A frame 0 that does not read would end the clip: none then
    previous = {"nothing": None,
                "another frame": b"P5\n%d %d\n255\n" % other + bytes(other[0] * other[1]),
                "the same header": _frame_with_the_header_of(data)}[before]
    if previous is not None:
        first = folder / "000000.pgm"
        first.write_bytes(previous)
        try:
            read_pgm(str(first))
        except PgmError:
            first.unlink()
    assert _outcome(lambda s: read_pgm(s).pixels[top:], path) == want
    assert _outcome(_last_rows_read_from(top), folder) == want


def _count_whole_reads(monkeypatch):
    """Wrap ``sltrack.io.read_pgm``, which ``_read_clip`` looks up at call
    time, to record the path of each file read whole."""
    real, paths = sltrack.io.read_pgm, []

    def read_pgm(source):
        paths.append(source)
        return real(source)

    monkeypatch.setattr(sltrack.io, "read_pgm", read_pgm)
    return paths


def _count_preadv(monkeypatch):
    """Patch ``os.preadv`` as ``sltrack.io`` calls it to record the offset
    and the return of each call."""
    real = os.preadv
    calls = []

    def preadv(fd, buffers, offset):
        calls.append((offset, real(fd, buffers, offset)))
        return calls[-1][1]

    monkeypatch.setattr(sltrack.io.os, "preadv", preadv)
    return calls


@settings(max_examples=100, deadline=None, database=None)
@given(sizes=st.lists(st.sampled_from([(3, 4), (3, 4), (5, 2), (1, 1)]),
                      min_size=2, max_size=5),
       top=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_frames_of_a_clip_read_from_row_top_share_no_buffer(tmp_path_factory, sizes,
                                                            top, seed):
    folder = tmp_path_factory.mktemp("clip")
    rng = np.random.default_rng(seed)
    wholes = []
    for i, (width, height) in enumerate(sizes):
        wholes.append(rng.integers(0, 256, (height, width), dtype=np.uint8))
        write_pgm(Frame(width=width, height=height, pixels=wholes[-1]),
                  str(folder / f"{i:06d}.pgm"))
    frames = list(iter_pgm_dir(str(folder), 20.0, top=top))
    for frame, pixels in zip(frames, wholes, strict=True):
        assert frame.top == min(top, frame.height)
        assert np.array_equal(frame.pixels, pixels[top:])
    for a, b in itertools.combinations(frames, 2):
        assert not np.shares_memory(a.pixels, b.pixels)


def test_a_frame_after_one_with_its_header_reads_only_its_rows(tmp_path, monkeypatch):
    second = _FRAME_300x200[:15] + _FRAME_300x200[:14:-1]  # the payload reversed
    (tmp_path / "000000.pgm").write_bytes(_FRAME_300x200)
    (tmp_path / "000001.pgm").write_bytes(second)
    whole, preadv = _count_whole_reads(monkeypatch), _count_preadv(monkeypatch)
    frames = list(iter_pgm_dir(str(tmp_path), 20.0, top=150))
    # the first frame is read whole, the second from row 150 down only
    assert whole == [str(tmp_path / "000000.pgm")]
    assert preadv == [(15 + 150 * 300, 50 * 300)]
    assert [frame.top for frame in frames] == [150, 150]
    assert frames[0].pixels.tobytes() == _FRAME_300x200[15 + 150 * 300:]
    assert frames[1].pixels.tobytes() == second[15 + 150 * 300:]


def _write_clip(folder, frames, header=None):
    """Each (width, height, fill) of ``frames`` as a frame file of the clip
    directory ``folder``, under ``header`` bytes when given; the pixels."""
    folder.mkdir()
    pixels = []
    for i, (width, height, fill) in enumerate(frames):
        pixels.append(np.full((height, width), fill, np.uint8))
        path = folder / f"{i:06d}.pgm"
        if header is None:
            write_pgm(Frame(width=width, height=height, pixels=pixels[-1]), str(path))
        else:
            path.write_bytes(header(width, height) + pixels[-1].tobytes())
    return pixels


def test_interleaved_clips_of_two_shapes_each_read_their_rows_only(tmp_path,
                                                                   monkeypatch):
    # each clip keeps its own last header: reading one never makes the
    # other's next frame read whole
    wide = _write_clip(tmp_path / "wide", [(300, 200, i) for i in range(4)])
    tall = _write_clip(tmp_path / "tall", [(200, 300, 9 - i) for i in range(4)])
    whole, preadv = _count_whole_reads(monkeypatch), _count_preadv(monkeypatch)
    clips = iter_pgm_dir(str(tmp_path / "wide"), 20.0, top=150), \
        iter_pgm_dir(str(tmp_path / "tall"), 20.0, top=150)
    for i in range(4):
        for clip, pixels in zip(clips, (wide, tall)):
            frame = next(clip)
            assert (frame.index, frame.top) == (i, 150)
            assert np.array_equal(frame.pixels, pixels[i][150:])
    # one whole read of each clip's first frame, one preadv for every other
    assert whole == [str(tmp_path / clip / "000000.pgm") for clip in ("wide", "tall")]
    assert preadv == [(15 + 150 * 300, 50 * 300), (15 + 150 * 200, 150 * 200)] * 3


def test_a_clip_whose_headers_carry_a_comment_reads_every_frame_whole(tmp_path,
                                                                      monkeypatch):
    frames = [(30, 20, i) for i in range(3)]
    _write_clip(tmp_path / "plain", frames)
    _write_clip(tmp_path / "commented", frames,
                header=lambda w, h: b"P5\n# a camera's note\n%d %d\n255\n" % (w, h))
    whole, preadv = _count_whole_reads(monkeypatch), _count_preadv(monkeypatch)
    commented = list(iter_pgm_dir(str(tmp_path / "commented"), 20.0, top=5))
    assert len(whole) == 3 and not preadv
    plain = list(iter_pgm_dir(str(tmp_path / "plain"), 20.0, top=5))
    assert len(whole) == 4 and len(preadv) == 2

    def fields(frame):
        return (frame.width, frame.height, frame.top, frame.index, frame.timestamp_ms,
                frame.pixels.tobytes())

    assert [fields(f) for f in commented] == [fields(f) for f in plain]


def test_a_frame_that_changes_size_mid_clip_is_named(tmp_path, monkeypatch):
    # a frame of new dimensions reads whole and sets them for the next; a
    # file of the old header but another length fails naming its file
    _write_clip(tmp_path / "clip", [(3, 4, 1), (3, 4, 2), (5, 2, 3), (5, 2, 4), (5, 2, 5)])
    bad = tmp_path / "clip" / "000004.pgm"
    bad.write_bytes(bad.read_bytes() + b"\0")
    whole, preadv = _count_whole_reads(monkeypatch), _count_preadv(monkeypatch)
    frames = iter_pgm_dir(str(tmp_path / "clip"), 20.0, top=1)
    shapes = [next(frames).pixels.shape for _ in range(4)]
    assert shapes == [(3, 3), (3, 3), (1, 5), (1, 5)]
    with pytest.raises(PgmError) as exc_info:
        next(frames)
    assert str(exc_info.value) == f"{bad}: 1 bytes after the payload (byte offset 21)"
    # whole reads of frames 0, 2 and 4; rows of 1 and 3
    assert whole == [str(tmp_path / "clip" / f"00000{i}.pgm") for i in (0, 2, 4)]
    assert [offset for offset, _ in preadv] == [11 + 3, 11 + 5]


def test_a_partial_frame_is_not_written(tmp_path):
    frame = Frame(width=2, height=3, pixels=np.zeros((1, 2), np.uint8), index=7, top=2)
    with pytest.raises(ValueError, match=r"^frame 7 holds rows 2\.\. only, not a whole "
                       "frame to write$"):
        write_pgm(frame, str(tmp_path / "part.pgm"))
    assert not (tmp_path / "part.pgm").exists()


@pytest.mark.parametrize("data,message", [
    (b"\0" * 40, r"unsupported magic b'" + r"\x00" * 32 + "'... (40 bytes), "
     "want binary P5 (byte offset 0)"),
    (b"P5 " + b"x" * 33 + b" 1 255\n\0", "non-numeric width b'" + "x" * 32
     + "'... (33 bytes) (byte offset 3)"),
    (b"P5 1 " + b"y" * 32 + b" 255\n\0", "non-numeric height b'" + "y" * 32
     + "' (byte offset 5)"),
], ids=["magic", "width-33-bytes", "height-32-bytes"])
def test_pgm_errors_quote_at_most_32_bytes_of_a_token(tmp_path, data, message):
    path = file_of(data, tmp_path / "frame.pgm")
    with pytest.raises(PgmError) as exc_info:
        read_pgm(path)
    assert str(exc_info.value) == f"{path}: {message}"


_FRAME_300x200 = b"P5\n300 200\n255\n" + (bytes(range(256)) * 235)[:60000]


def test_a_short_first_read_reads_on_to_the_end_of_the_file(tmp_path, monkeypatch):
    path = tmp_path / "frame.pgm"
    path.write_bytes(_FRAME_300x200)
    returns = []

    class ShortFirstRead(stdio.FileIO):
        """A file whose first read returns at most 1000 bytes."""

        def read(self, size=-1):
            data = super().read(size if returns else min(size, 1000))
            returns.append(len(data))
            return data

    monkeypatch.setattr(sltrack.io, "open", lambda file, mode, **kwargs:
                        ShortFirstRead(file, mode), raising=False)
    frame = read_pgm(str(path))
    assert returns[0] == 1000 and returns[-1] == 0
    assert sum(returns) == len(_FRAME_300x200)
    assert frame.pixels.tobytes() == _FRAME_300x200[15:]


@pytest.mark.parametrize("error", [-1, -10, -60000, +10], ids=str)
def test_a_file_whose_stat_size_is_wrong_still_reads_whole(tmp_path, monkeypatch,
                                                          error):
    path = tmp_path / "frame.pgm"
    path.write_bytes(_FRAME_300x200)
    real = os.fstat

    def fstat(fd):
        info = list(real(fd))
        info[stat.ST_SIZE] += error
        return os.stat_result(info)

    monkeypatch.setattr(sltrack.io.os, "fstat", fstat)
    frame = read_pgm(str(path))
    assert frame.pixels.tobytes() == _FRAME_300x200[15:]


def test_a_file_cut_after_its_stat_is_read_whole_and_named(tmp_path, monkeypatch):
    # the header matches the last frame's and the stat size its payload, but
    # the band read comes up short: the whole read finds the cut
    cut = tmp_path / "000001.pgm"
    (tmp_path / "000000.pgm").write_bytes(_FRAME_300x200)
    cut.write_bytes(_FRAME_300x200[:-1])

    def full_size(real):
        def stat_of(target, **kwargs):
            info = list(real(target, **kwargs))
            if target == str(cut) or isinstance(target, int):
                info[stat.ST_SIZE] = len(_FRAME_300x200)
            return os.stat_result(info)
        return stat_of

    # _read_rows stats the path; read_pgm stats the file it opened
    monkeypatch.setattr(sltrack.io.os, "stat", full_size(os.stat))
    monkeypatch.setattr(sltrack.io.os, "fstat", full_size(os.fstat))
    preadv = _count_preadv(monkeypatch)
    frames = iter_pgm_dir(str(tmp_path), 20.0, top=150)
    next(frames)
    with pytest.raises(PgmError) as exc_info:
        next(frames)
    assert preadv == [(15 + 150 * 300, 50 * 300 - 1)]
    assert str(exc_info.value) == (
        f"{cut}: truncated payload: want 60000 bytes, have 59999 (byte offset 60014)")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pgm_from_a_pipe_is_read_to_its_end(tmp_path):
    # a pipe's stat size is 0, so the reader must read on to its end
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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_in_a_clip_is_opened_once_and_read_whole(tmp_path, monkeypatch):
    # the band test stats a path before it opens it: a pipe opened there and
    # closed unread could drop what its writer wrote, and the whole read
    # would then wait for another writer
    (tmp_path / "000000.pgm").write_bytes(_FRAME_300x200)
    pipe = tmp_path / "000001.pgm"
    os.mkfifo(pipe)
    real, opened = os.open, []

    def record(opener):
        def opens(path, *args, **kwargs):
            opened.append(path)
            return opener(path, *args, **kwargs)
        return opens

    # _read_rows opens with os.open, read_pgm with the builtin open
    monkeypatch.setattr(sltrack.io.os, "open", record(os.open))
    monkeypatch.setattr(sltrack.io, "open", record(open), raising=False)
    writer = threading.Thread(target=pipe.write_bytes, args=(_FRAME_300x200,))
    writer.start()
    frames = []
    reader = threading.Thread(daemon=True, target=lambda: frames.extend(
        iter_pgm_dir(str(tmp_path), 20.0, top=150)))
    reader.start()
    reader.join(timeout=10)
    if reader.is_alive():  # a reader left waiting: give it a writer that ends
        os.close(real(pipe, os.O_WRONLY | os.O_NONBLOCK))
        reader.join()
    writer.join()
    assert opened == [str(tmp_path / "000000.pgm"), str(pipe)]
    assert [frame.pixels.tobytes() for frame in frames] == [
        _FRAME_300x200[15 + 150 * 300:]] * 2


def test_pgm_file_longer_than_any_frame_fails_before_it_is_read(tmp_path):
    # sparse: the file takes no disk, and the reader must not allocate for it
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"")
    bound = sltrack.geometry.MAX_PIXELS + 2**16
    os.truncate(path, bound + 1)
    with pytest.raises(PgmError) as exc_info:
        read_pgm(str(path))
    assert str(exc_info.value) == (
        f"{path}: file of {bound + 1} bytes is longer than any frame "
        f"(byte offset {bound})")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pgm_pipe_longer_than_any_frame_stops_at_the_bound(tmp_path):
    # a pipe's stat size is 0: the read past the bound fails instead of
    # reading on without end
    path = tmp_path / "frame.pgm"
    os.mkfifo(path)

    def write():
        try:
            path.write_bytes(bytes(2**25 + 1))
        except BrokenPipeError:  # the reader stopped at the bound
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with pytest.raises(PgmError, match="longer than any frame"):
            read_pgm(str(path))
    finally:
        writer.join()


class _ShortReads:
    """A file opened as ``open`` opens it, whose reads return at most the
    next of ``sizes``, cycled, bytes or characters; records each size asked
    for and how far it has read."""

    def __init__(self, fh, sizes):
        self.fh, self.pos, self.sizes, self.asked = fh, 0, itertools.cycle(sizes), []

    def read(self, size=-1):
        self.asked.append(size)
        chunk = self.fh.read(next(self.sizes) if size < 0 else min(next(self.sizes), size))
        self.pos += len(chunk)
        return chunk

    def fileno(self):
        return self.fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _short_reads(monkeypatch, sizes):
    """Make ``sltrack.io`` open each file it reads as :class:`_ShortReads`;
    the list of those opened."""
    opened = []

    def short_open(file, mode="r", **kwargs):
        opened.append(_ShortReads(open(file, mode, **kwargs), sizes))
        return opened[-1]

    monkeypatch.setattr(sltrack.io, "open", short_open, raising=False)
    return opened


def _config_or_error(path):
    try:
        return load_config(path)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), height=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       comment=st.booleans(), cut=st.integers(-8, 2), text_cut=st.integers(0, 2000),
       tail=st.text(max_size=3), k=st.integers(1, 64), draw=st.data())
def test_short_reads_read_what_one_whole_read_reads(tmp_path_factory, width, height,
                                                    seed, comment, cut, text_cut, tail,
                                                    k, draw):
    sizes = draw.draw(st.lists(st.integers(1, k), min_size=1, max_size=8))
    header = b"P5\n# note\n%d %d\n255\n" if comment else b"P5\n%d %d\n255\n"
    pixels = np.random.default_rng(seed).integers(0, 256, width * height, np.uint8)
    data = header % (width, height) + pixels.tobytes() + b"\xff\x00"
    data = data[:len(data) - 2 + cut]  # cut short, whole, or with bytes after
    # one file of each kind, rewritten by each example
    frame = file_of(data, tmp_path_factory.getbasetemp() / "short-reads.pgm")
    # a config whole, or cut and followed by any characters
    full = json.dumps(reference_dict(), indent=1)
    text = full if text_cut >= len(full) else full[:text_cut] + tail
    config = file_of(text, tmp_path_factory.getbasetemp() / "short-reads.json")
    want = _outcome(_read_pixels, frame), _config_or_error(config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        opened = _short_reads(monkeypatch, sizes)
        assert (_outcome(_read_pixels, frame), _config_or_error(config)) == want
    assert len(opened) == 2


# reads of 1 to 2**17 bytes or characters, at least every fifth of 2**17:
# few enough reads to reach a 16 MiB bound
_SHORT_READ_SIZES = st.lists(st.integers(1, 2**17), min_size=1, max_size=4).map(
    lambda sizes: sizes + [2**17])


@settings(max_examples=20, deadline=None)
@given(sizes=_SHORT_READ_SIZES, past=st.integers(0, 3))
def test_short_reads_stop_one_byte_past_the_frame_bound(tmp_path_factory, sizes, past):
    bound = sltrack.geometry.MAX_PIXELS + 2**16
    header = b"P5\n#" + b"x" * (2**16 - 19) + b"\n4096 4096\n255\n"
    assert len(header) + 4096 * 4096 == bound
    # sparse: the zero payload takes no disk
    path = file_of(header, tmp_path_factory.getbasetemp() / "bound.pgm")
    os.truncate(path, bound + past)
    real = os.fstat

    def fstat(fd):  # a size of 0, as a pipe's: the read loop finds the end
        info = list(real(fd))
        info[stat.ST_SIZE] = 0
        return os.stat_result(info)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sltrack.io.os, "fstat", fstat)
        opened = _short_reads(monkeypatch, sizes)
        outcome = _outcome(_read_pixels, path)
    [short] = opened
    # no read asks for, and the reader takes, no more than one byte past it
    assert max(short.asked) <= bound + 1 and short.pos == min(bound + past, bound + 1)
    if past:
        assert outcome == (f"{path}: file of over {bound} bytes is longer than any "
                           f"frame (byte offset {bound})", bound)
    else:
        assert outcome[0] == (4096, 4096)


@settings(max_examples=20, deadline=None)
@given(sizes=_SHORT_READ_SIZES, past=st.integers(0, 3))
def test_short_reads_stop_one_character_past_the_config_bound(tmp_path_factory, sizes,
                                                              past):
    text = json.dumps(reference_dict())
    path = file_of(text + " " * (2**20 - len(text) + past),
                   tmp_path_factory.getbasetemp() / "bound.json")
    with pytest.MonkeyPatch.context() as monkeypatch:
        opened = _short_reads(monkeypatch, sizes)
        outcome = _config_or_error(path)
    [short] = opened
    assert max(short.asked) <= 2**20 + 1 and short.pos == min(2**20 + past, 2**20 + 1)
    assert outcome == ("config: longer than 1048576 characters" if past
                       else load_config(REFERENCE_CONFIG))


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
    read = []

    def read_pgm(path, **kwargs):  # records the path and reads nothing
        read.append(path)
        return frame_from([0], 1, 1)

    def paths(spelling):
        read.clear()
        for _ in iter_pgm_dir(spelling, 20.0):
            pass
        return read

    monkeypatch.setattr(sltrack.io, "read_pgm", read_pgm)
    for spelling in ("x", "./x/", "x//", str(clip), str(clip) + "/"):
        assert paths(spelling) == sorted(str(path) for path in Path(spelling).glob("*.pgm")
                                         if not path.is_dir())
    # a directory is not a frame; a dangling symlink is, and fails as one
    assert paths("./x/") == ["x/.b.pgm", "x/a.pgm", "x/h.pgm"]
    monkeypatch.chdir(clip)
    assert paths("") == [".b.pgm", "a.pgm", "h.pgm"]
    # simulate refuses the same entries as another clip's frames
    assert cli_main(["simulate", "-c", REFERENCE_CONFIG, "-o", "."]) == 2
    assert capsys.readouterr().err == (
        "error: output directory . holds .b.pgm, which is not one of this "
        "clip's 200 frames\n")


# --- config --------------------------------------------------------------------

def reference_dict() -> dict:
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def load_text(text: str):
    """:func:`load_config` of a file that holds ``text``."""
    with tempfile.TemporaryDirectory() as folder:
        return load_config(file_of(text, Path(folder) / "config.json"))


def load_from_dict(cfg: dict):
    return load_text(json.dumps(cfg))


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
        load_text("rig: {d: 40}")


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


# optional keys -> the value each takes when left out of the reference config:
# the frame center, no floor, and smoothing as alpha (1.0) sets it
OPTIONAL = {("rig", "u0"): 160.0, ("rig", "v0"): 120.0,
            ("detect", "ath_min"): None, ("smoother", "enabled"): False}


@pytest.mark.parametrize("kind,section,key,type_message", EVERY_KEY,
                         ids=[f"{k}:{s}.{key}" for k, s, key, _ in EVERY_KEY])
def test_config_message_for_every_key(kind, section, key, type_message):
    cfg = base_config(kind)
    cfg[section].pop(key, None)
    if (section, key) in OPTIONAL:
        loaded = getattr(load_from_dict(cfg), section)
        assert getattr(loaded, key) == OPTIONAL[section, key]
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

    # json.loads alone fails on an integer past int()'s 4300-digit limit with
    # an error that names no key
    too_long = {NUMBER: "out of range for a float", POINT: "out of range for a float",
                INTEGER: "out of range for a 64-bit integer"}.get(
        type_message, type_message.replace("'x'", "<integer too long to read>"))
    for literal in ("9" * 5000, "-" + "9" * 5000):
        cfg = base_config(kind)
        cfg[section][key] = ["@", 200.0] if type_message == POINT else "@"
        with pytest.raises(ConfigError) as exc_info:
            load_text(json.dumps(cfg).replace('"@"', literal))
        assert str(exc_info.value) == f"{section}.{key}: {too_long}"


@pytest.mark.parametrize("old,new,key", [
    ('"min_run": 3', '"min_run": 3, "min_run": 10', "min_run"),
    ('"smoother": {', '"smoother": {"alpha": 0.5}, "smoother": {', "smoother"),
], ids=["key", "section"])
def test_a_repeated_config_key_is_refused_by_name(old, new, key):
    # json.loads alone keeps the last value, and the config loaded
    text = Path(REFERENCE_CONFIG).read_text(encoding="utf-8")
    assert text.count(old) == 1
    with pytest.raises(ConfigError) as exc_info:
        load_text(text.replace(old, new))
    assert str(exc_info.value) == f"config: duplicate key {key!r}"


def test_config_longer_than_the_bound_fails_unparsed():
    text = json.dumps(reference_dict())
    with pytest.raises(ConfigError) as exc_info:
        load_text(text + " " * (2**20 + 1 - len(text)))
    assert str(exc_info.value) == "config: longer than 1048576 characters"
    # a config padded to the bound still loads
    assert load_text(text + " " * (2**20 - len(text))) == \
        load_config(REFERENCE_CONFIG)


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
     "detect.ath_min: must lie in [0, ath_base]"),
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
    # checked on its own: with no floor a negative base gives negative limits
    (lambda c: c["detect"].update(ath_base=-1),
     "detect.ath_base: must lie in [0, ath_max]"),
    (lambda c: c["rig"].update(v0=230),
     "rig.v0: back-wall line row 270.0 (v0 + d*f/z_b) falls outside the frame"),
], ids=["top-level-unknown", "unhashable-kind", "other-kinds-key", "rig",
        "detect", "noise", "intensity", "smoother", "trajectory",
        "negative-speed", "zero-speed", "rate-above-1000", "empty-clip",
        "negative-radius", "stationary-at-z-0", "number-past-float-range",
        "point-past-float-range", "width-past-int64-range",
        "seed-below-int64-range", "pixel-count-above-cap",
        "negative-base-without-floor", "wall-row-outside-frame"])
def test_config_section_and_invariant_messages(mutate, message):
    cfg = base_config("stroll")
    mutate(cfg)
    assert config_error(cfg) == message


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_config_without_enabled_smooths_iff_alpha_below_1(alpha):
    cfg = base_config("stroll")
    cfg["smoother"] = {"alpha": alpha}
    assert load_from_dict(cfg).smoother.enabled is (alpha < 1)


@pytest.mark.parametrize("enabled", [True, False])
def test_config_reads_enabled_as_the_boolean_it_holds(enabled):
    # both perfbench configs set it
    cfg = base_config("stroll")
    cfg["smoother"] = {"alpha": 0.3, "enabled": enabled}
    assert load_from_dict(cfg).smoother.enabled is enabled


def test_trajectory_leaving_the_workspace_fails_at_materialize():
    cfg = base_config("stroll")
    cfg["trajectory"]["b"] = [0.0, 500.0]  # beyond the 400 cm back wall
    loaded = load_from_dict(cfg)
    with pytest.raises(ValueError, match="exits workspace at frame"):
        loaded.trajectory.materialize(loaded.rig)


# --- CSV -----------------------------------------------------------------------

def make_estimates():
    return [
        PositionEstimate(0, 0, WorldPosition(50.0, 200.0), (180.25, 200)),
        PositionEstimate(1, 50, None, None),
        PositionEstimate(2, 100, WorldPosition(-12.3456, 333.333), (145.5, 170)),
    ]


def test_estimates_csv_format(tmp_path):
    path = tmp_path / "estimates.csv"
    write_estimates_csv(make_estimates(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm"
    assert lines[1] == "0,0,1,180.250,200,50.000,200.000"
    assert lines[2] == "1,50,0,,,,"
    assert lines[3] == "2,100,1,145.500,170,-12.346,333.333"


def test_estimates_csv_refuses_a_position_without_a_detection(tmp_path):
    # a detected row needs u_f and v_f; "1,50,0,,,," would lose the position
    estimates = [PositionEstimate(0, 0),
                 PositionEstimate(1, 50, WorldPosition(10.0, 200.0))]
    with pytest.raises(ValueError, match="frame 1: a position without a detection"):
        write_estimates_csv(estimates, str(tmp_path / "estimates.csv"))


def test_estimates_csv_numbers_rows_by_position_and_reads_back(tmp_path):
    # frame is the row's position, whatever frame_index the estimates carry
    estimates = [PositionEstimate(i, 50 * i) for i in (5, 6, 7)]
    path = tmp_path / "estimates.csv"
    write_estimates_csv(estimates, str(path))
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "0,250,0,,,,", "1,300,0,,,,", "2,350,0,,,,"]
    assert [(r.frame, r.timestamp_ms) for r in read_estimates_csv(str(path))] == [
        (0, 250), (1, 300), (2, 350)]


def test_estimates_csv_empty_stream_is_header_only(tmp_path):
    path = tmp_path / "estimates.csv"
    write_estimates_csv([], str(path))
    assert path.read_bytes() == b"frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"


def test_estimates_csv_round_trip_1000_random(tmp_path):
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
            estimates.append(PositionEstimate(i, 50 * i, WorldPosition(x, z), (u, v)))
    path = str(tmp_path / "estimates.csv")
    write_estimates_csv(estimates, path)
    rows = read_estimates_csv(path)
    assert len(rows) == 1000
    for est, row in zip(estimates, rows):
        assert (row.frame, row.timestamp_ms) == (est.frame_index, est.timestamp_ms)
        if est.pos is None:
            assert row.pos is None
        else:
            assert row.pos is not None
            assert row.pos.x == pytest.approx(est.pos.x, abs=5e-4)
            assert row.pos.z == pytest.approx(est.pos.z, abs=5e-4)
            assert row.u_f == pytest.approx(est.detection[0], abs=5e-4)
            assert row.v_f == est.detection[1]


def truth_states():
    return [
        SceneState(user=WorldPosition(10.5, 250.0), foot_width=25.0, timestamp_ms=0),
        SceneState(user=None, foot_width=25.0, timestamp_ms=50),
        SceneState(user=WorldPosition(-99.999, 135.5), foot_width=20.0,
                   timestamp_ms=100),
    ]


def test_truth_csv_round_trip(tmp_path):
    states = truth_states()
    path = str(tmp_path / "truth.csv")
    write_truth_csv(states, path)
    back = read_truth_csv(path)
    assert back == states


def test_csv_header_validation(tmp_path):
    path = file_of("nope\n", tmp_path / "table.csv")
    with pytest.raises(ValueError):
        read_estimates_csv(path)
    with pytest.raises(ValueError):
        read_truth_csv(path)


ESTIMATES = "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm\n"
TRUTH = "frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm\n"


@pytest.mark.parametrize("read,text,message", [
    (read_estimates_csv, "nope\n",
     f"estimates CSV line 1: expected header {ESTIMATES.strip()!r}"),
    (read_estimates_csv, ESTIMATES + "0,0,1\n",
     "estimates CSV line 2: expected 7 fields, got 3"),
    (read_estimates_csv, ESTIMATES + "0,0,0,,,,\n1,x,0,,,,\n",
     "estimates CSV line 3: non-numeric timestamp_ms 'x'"),
    (read_estimates_csv, ESTIMATES + "0,0,1,1.5,200,y,100.0\n",
     "estimates CSV line 2: could not convert string to float: 'y'"),
    (read_estimates_csv, ESTIMATES + "0,0,0,,,,\n1,50,1,1.5,200,nan,100.0\n",
     "estimates CSV line 3: position must be finite"),
    (read_estimates_csv, ESTIMATES + "0,0,1,1.5,200,10.0,-5\n",
     "estimates CSV line 2: z: must be > 0"),
    (read_estimates_csv, ESTIMATES + "1,50,0,,,,\n0,0,0,,,,\n",
     "estimates CSV line 2: expected frame 0, got 1"),
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
        "estimates-frame-not-its-position",
        "truth-header", "truth-long-row", "truth-invariant",
        "truth-frame-not-its-position"])
def test_csv_errors_name_table_and_line(tmp_path, read, text, message):
    with pytest.raises(ValueError) as exc_info:
        read(file_of(text, tmp_path / "table.csv"))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("field,value,message", [
    ("frame", "1_0", "non-numeric frame '1_0'"),
    ("timestamp_ms", "+5", "non-numeric timestamp_ms '+5'"),
    ("detected", "yes", "detected: expected 0 or 1, got 'yes'"),
    ("u_f", "1_60.5", "could not convert string to float: '1_60.5'"),
    ("v_f", " 200", "non-numeric v_f ' 200'"),
    ("x_cm", "1_0.0", "could not convert string to float: '1_0.0'"),
    ("z_cm", "2_00", "could not convert string to float: '2_00'"),
    ("z_cm", "200.0 ", "could not convert string to float: '200.0 '"),
    ("frame", "\u0661", "non-numeric frame '\u0661'"),
    ("u_f", "nan", "u_f: must be finite, got 'nan'"),
    ("u_f", "inf", "u_f: must be finite, got 'inf'"),
])
def test_estimates_csv_fields_are_strict(tmp_path, field, value, message):
    # int() and float() alone read 1_0 as 10, +5 as 5 and " 200" as 200
    row = dict(zip(ESTIMATES.strip().split(","),
                   ["1", "5", "1", "160.5", "200", "10.0", "200.0"]))
    row[field] = value
    text = ESTIMATES + "0,0,0,,,,\n" + ",".join(row.values()) + "\n"
    with pytest.raises(ValueError) as exc_info:
        read_estimates_csv(file_of(text, tmp_path / "estimates.csv"))
    assert str(exc_info.value) == f"estimates CSV line 3: {message}"


@pytest.mark.parametrize("field,value,message", [
    ("frame", "0_1", "non-numeric frame '0_1'"),
    ("timestamp_ms", " 50", "non-numeric timestamp_ms ' 50'"),
    ("present", "true", "present: expected 0 or 1, got 'true'"),
    ("present", "", "present: expected 0 or 1, got ''"),
    ("x_cm", "1_0.0", "could not convert string to float: '1_0.0'"),
    ("z_cm", "\t200.0", "could not convert string to float: '\\t200.0'"),
    ("foot_width_cm", "2_5.0", "could not convert string to float: '2_5.0'"),
    ("foot_width_cm", "inf", "foot_width_cm: must be finite, got 'inf'"),
    ("foot_width_cm", "nan", "foot_width_cm: must be finite, got 'nan'"),
])
def test_truth_csv_fields_are_strict(tmp_path, field, value, message):
    row = dict(zip(TRUTH.strip().split(","),
                   ["1", "50", "1", "10.0", "200.0", "25.0"]))
    row[field] = value
    text = TRUTH + "0,0,0,,,25.0\n" + ",".join(row.values()) + "\n"
    with pytest.raises(ValueError) as exc_info:
        read_truth_csv(file_of(text, tmp_path / "truth.csv"))
    assert str(exc_info.value) == f"truth CSV line 3: {message}"


@pytest.mark.parametrize("table,field", [
    ("estimates", "frame"), ("estimates", "timestamp_ms"), ("estimates", "v_f"),
    ("truth", "frame"), ("truth", "timestamp_ms"),
])
def test_csv_whole_number_of_5000_digits_fails_naming_its_field(tmp_path, table,
                                                               field):
    # int() alone refuses it, naming neither the field nor its limit
    read, header, values = {
        "estimates": (read_estimates_csv, ESTIMATES,
                      ["0", "5", "1", "160.5", "200", "10.0", "200.0"]),
        "truth": (read_truth_csv, TRUTH, ["0", "50", "1", "10.0", "200.0", "25.0"]),
    }[table]
    row = dict(zip(header.strip().split(","), values))
    row[field] = "1" * 5000
    with pytest.raises(ValueError) as exc_info:
        read(file_of(header + ",".join(row.values()) + "\n", tmp_path / "table.csv"))
    assert str(exc_info.value) == f"{table} CSV line 2: {field} too large: 5000 digits"


@pytest.mark.parametrize("read,row,message", [
    (read_estimates_csv, "1,0,0,1.5,200,junk,-5",
     "estimates CSV line 3: u_f: expected empty with detected 0, got '1.5'"),
    (read_estimates_csv, "1,0,0,,200,,",
     "estimates CSV line 3: v_f: expected empty with detected 0, got '200'"),
    (read_estimates_csv, "1,0,0,,,10.0,",
     "estimates CSV line 3: x_cm: expected empty with detected 0, got '10.0'"),
    (read_estimates_csv, "1,0,0,,,, ",
     "estimates CSV line 3: z_cm: expected empty with detected 0, got ' '"),
    (read_truth_csv, "1,0,0,junk,,25.0",
     "truth CSV line 3: x_cm: expected empty with present 0, got 'junk'"),
    (read_truth_csv, "1,0,0,,200.0,25.0",
     "truth CSV line 3: z_cm: expected empty with present 0, got '200.0'"),
], ids=["estimates-u_f", "estimates-v_f", "estimates-x_cm", "estimates-z_cm",
        "truth-x_cm", "truth-z_cm"])
def test_a_row_without_a_position_leaves_its_position_fields_empty(tmp_path, read, row,
                                                                   message):
    header, first = ((ESTIMATES, "0,0,0,,,,") if read is read_estimates_csv
                     else (TRUTH, "0,0,0,,,25.0"))
    with pytest.raises(ValueError) as exc_info:
        read(file_of(f"{header}{first}\n{row}\n", tmp_path / "table.csv"))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("text,message", [
    # a form feed inside line 3 does not end it: that line fails
    (TRUTH + "0,0,0,,,25.0\n1,50,0,,,25.0\x0c\nbad\n",
     "truth CSV line 3: could not convert string to float: '25.0\\x0c'"),
    # nor does U+2028: csv reads this as one row, and so does the reader
    (TRUTH + "0,0,0,,,25.000\u20281,50,0,,,25.000\n",
     "truth CSV line 2: expected 6 fields, got 11"),
    # a lone carriage return is not a line end either
    (TRUTH + "0,0,0,,,25.0\r1,50,0,,,25.0\n",
     "truth CSV line 2: expected 6 fields, got 11"),
], ids=["form-feed", "line-separator", "lone-carriage-return"])
def test_csv_rows_end_only_at_newline(tmp_path, text, message):
    with pytest.raises(ValueError) as exc_info:
        read_truth_csv(file_of(text, tmp_path / "truth.csv"))
    assert str(exc_info.value) == message


def test_csv_with_crlf_row_ends_still_reads(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth_csv(truth_states(), str(path))
    crlf = path.read_bytes().replace(b"\n", b"\r\n")
    assert read_truth_csv(file_of(crlf, path)) == truth_states()


def test_the_loose_estimates_row_fails_on_its_line(tmp_path):
    text = ESTIMATES + "1_0,+5,1,1_60.5, 200,1_0.0,2_00\n"
    with pytest.raises(ValueError, match="^estimates CSV line 2: "):
        read_estimates_csv(file_of(text, tmp_path / "estimates.csv"))


_ROWS = "".join(f"{i},{50 * i},0,,,25.0\n" for i in range(5000))  # over 2**16 bytes


@pytest.mark.parametrize("before,line", [("", 1), (TRUTH, 2), (TRUTH + _ROWS, 5002)],
                         ids=["header", "first-row", "after-5000-rows"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", ""], ids=["lf", "crlf", "eof"])
def test_a_csv_line_past_its_bound_fails_naming_it(tmp_path, before, line, ending):
    bound = sltrack.io._MAX_LINE_BYTES
    path = tmp_path / "truth.csv"
    # a line end is not part of the line: one of the bound's length is a row
    with pytest.raises(ValueError) as exc_info:
        read_truth_csv(file_of(before + "x" * bound + ending, path))
    assert str(exc_info.value) == (
        f"truth CSV line {line}: " + ("expected header " + repr(TRUTH.strip())
                                      if line == 1 else "expected 6 fields, got 1"))
    with pytest.raises(ValueError) as exc_info:
        read_truth_csv(file_of(before + "x" * (bound + 1) + ending, path))
    assert str(exc_info.value) == f"truth CSV line {line}: longer than {bound} bytes"


def test_a_csv_line_past_its_bound_is_read_only_that_far(tmp_path, monkeypatch):
    # count the bytes the opened file hands back
    path = file_of(b"x" * 2**20, tmp_path / "long.csv")
    handed = []

    class Counted(stdio.BufferedReader):
        def readline(self, size=-1):
            handed.append(len(line := super().readline(size)))
            return line

        def read(self, size=-1):
            handed.append(len(data := super().read(size)))
            return data

    monkeypatch.setattr(sltrack.io, "open", lambda file, mode, **kwargs:
                        Counted(stdio.FileIO(file, mode)), raising=False)
    with pytest.raises(ValueError, match="^estimates CSV line 1: longer than 65536 "):
        read_estimates_csv(path)
    assert 0 < sum(handed) <= sltrack.io._MAX_LINE_BYTES + 2


_ESTIMATE_ROWS = "".join(f"{i},{50 * i},0,,,,\n" for i in range(5000))


@pytest.mark.parametrize("read,what,header,rows", [
    (read_estimates_csv, "estimates", ESTIMATES, _ESTIMATE_ROWS),
    (read_truth_csv, "truth", TRUTH, _ROWS),
], ids=["estimates", "truth"])
@pytest.mark.parametrize("line", [1, 2, 5001], ids=["header", "first-row", "past-64-kib"])
def test_a_csv_that_is_not_utf8_fails_naming_its_line(tmp_path, read, what, header,
                                                      rows, line):
    # each line is decoded on its own, so the decoder's byte position is
    # the byte's in its line, not in the chunk of the file it was handed
    lines = (header + rows).encode("utf-8").splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
    data = b"".join(lines)
    assert (data.index(b"\xff") > 2**16) == (line > 2)
    with pytest.raises(ValueError) as exc_info:
        read(file_of(data, tmp_path / "table.csv"))
    position = lines[line - 1].index(b"\xff")
    assert str(exc_info.value) == (
        f"{what} CSV line {line}: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte")


def _reference_lines(text):
    """A CSV text's lines by the reference rule: "\\r\\n" is read as "\\n",
    lines end at "\\n", and a last line without one is kept when it is not
    empty or is the only line."""
    *lines, rest = text.replace("\r\n", "\n").split("\n")
    return lines + [rest] if rest or not lines else lines


def _reference_read_table(text, header, what, parse):
    """The reference CSV reader: the rows of :func:`_reference_lines`, or
    the reader's message naming the first bad line."""
    bound = sltrack.io._MAX_LINE_BYTES
    rows = []
    for number, line in enumerate(_reference_lines(text), 1):
        values = line.split(",")
        try:
            if len(line.encode("utf-8")) > bound:
                raise ValueError(f"longer than {bound} bytes")
            if number == 1:
                if line != header:
                    raise ValueError(f"expected header {header!r}")
            elif len(values) != header.count(",") + 1:
                raise ValueError(f"expected {header.count(',') + 1} fields, "
                                 f"got {len(values)}")
            elif whole_number(values[0], "frame") != len(rows):
                raise ValueError(f"expected frame {len(rows)}, got {values[0]}")
            else:
                rows.append(parse(len(rows), *values[1:]))
        except ValueError as exc:
            raise ValueError(f"{what} CSV line {number}: {exc}") from None
    return rows


def _rows_or_message(read, source):
    try:
        return read(source)
    except ValueError as exc:
        return str(exc)


# every character that may end a line somewhere: only "\n" ends a CSV row
_BREAKS = "\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def _csv_texts(draw, header, good_rows):
    """A header or something like it, then lines that are rows numbered from
    0 or any few characters, each maybe padded to 2**16 - 1 .. 2**16 + 2
    characters, between any line breaks."""
    bound = sltrack.io._MAX_LINE_BYTES
    # mostly what write_*_csv write, so that many texts read to their end
    breaks = (st.sampled_from(["\n"] * 4 + ["\r\n"] * 2 + ["\r", "\r\r\n", ""])
              | st.text(_BREAKS, max_size=3))
    parts = [draw(st.sampled_from([header + "\n"] * 4 + [
        header + "\r\n", header, header + "\r", header[:-1] + "\n", ""]))]
    for i in range(draw(st.integers(0, 4))):
        line = draw(st.sampled_from([row.format(i=i) for row in good_rows] * 2)
                    | st.text("0123456789," + _BREAKS, max_size=12))
        if draw(st.booleans()):
            pad = draw(st.sampled_from("000,\r\x85"))
            line += pad * (draw(st.integers(bound - 1, bound + 2)) - len(line))
        parts += [line, draw(breaks)]
    return "".join(parts)


@pytest.mark.parametrize("read,header,what,parse,good_rows", [
    (read_estimates_csv, ESTIMATES.strip(), "estimates", sltrack.io._estimate_row,
     ["{i},50,1,160.5,200,10.0,200.0", "{i},50,0,,,,"]),
    (read_truth_csv, TRUTH.strip(), "truth", sltrack.io._truth_row,
     ["{i},50,1,10.0,200.0,25.0", "{i},50,0,,,25.0"]),
], ids=["estimates", "truth"])
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_csv_lines_split_as_the_reference_rule_splits_them(tmp_path_factory, read,
                                                           header, what, parse,
                                                           good_rows, data):
    text = data.draw(_csv_texts(header, good_rows))
    want = _rows_or_message(lambda t: _reference_read_table(t, header, what, parse), text)
    # one file per table, rewritten by each example
    path = tmp_path_factory.getbasetemp() / f"reference-rule-{what}.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _rows_or_message(read, str(path)) == want


# --- output files: rewritten in place, then cut to length ----------------------

def in_new_file(write, data) -> bytes:
    """What ``write`` puts in a file that did not exist."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "new"
        write(data, str(path))
        return path.read_bytes()


@pytest.mark.parametrize("write,long,short", [
    (write_pgm, frame_from([7] * 76800, 320, 240), frame_from([0, 255, 128, 7], 2, 2)),
    (write_estimates_csv, make_estimates(), make_estimates()[1:2]),
    (write_truth_csv, truth_states(), truth_states()[1:2]),
], ids=["pgm", "estimates", "truth"])
def test_a_shorter_rewrite_holds_exactly_the_new_bytes(tmp_path, write, long, short):
    path = tmp_path / "out"
    write(long, str(path))
    assert path.read_bytes() == in_new_file(write, long)
    write(short, str(path))
    assert path.read_bytes() == in_new_file(write, short)


def test_a_write_that_raises_leaves_the_bytes_written_and_no_old_tail(tmp_path):
    path = tmp_path / "estimates.csv"
    write_estimates_csv([PositionEstimate(i, 50 * i) for i in range(1000)], str(path))

    def failing():
        yield from make_estimates()
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError):
        write_estimates_csv(failing(), str(path))
    assert path.read_bytes() == in_new_file(write_estimates_csv, make_estimates())


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
        new = in_new_file(write_pgm, frame_from([9] * 76800, 320, 240))
    else:
        write_estimates_csv([PositionEstimate(i, 50 * i) for i in range(5000)],
                            str(path))
        new = in_new_file(write_estimates_csv,
                          [PositionEstimate(i, 5 * i) for i in range(200)])
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


# --- paths only ----------------------------------------------------------------

_IN_MEMORY = {
    "read_pgm": lambda: read_pgm(stdio.BytesIO(b"P5\n1 1\n255\n\x00")),
    "write_pgm": lambda: write_pgm(frame_from([0], 1, 1), stdio.BytesIO()),
    "read_text": lambda: read_text(stdio.StringIO("v_b=170\n")),
    "write_text": lambda: write_text("v_b=170\n", stdio.StringIO()),
    "load_config": lambda: load_config(stdio.StringIO(json.dumps(reference_dict()))),
    "read_estimates_csv": lambda: read_estimates_csv(stdio.StringIO(ESTIMATES)),
    "write_estimates_csv": lambda: write_estimates_csv(make_estimates(),
                                                       stdio.StringIO()),
    "read_truth_csv": lambda: read_truth_csv(stdio.StringIO(TRUTH)),
    "write_truth_csv": lambda: write_truth_csv(truth_states(), stdio.StringIO()),
}


@pytest.mark.parametrize("call", _IN_MEMORY.values(), ids=_IN_MEMORY.keys())
def test_an_in_memory_file_object_is_refused(call):
    # every reader and writer opens a path, as the CLI passes it
    with pytest.raises(TypeError, match="os.PathLike"):
        call()


@pytest.mark.parametrize("read", [read_pgm, read_text, load_config, read_estimates_csv,
                                  read_truth_csv])
def test_a_file_descriptor_is_refused_unread(tmp_path, read):
    # the builtin open takes one too, and would close it
    fd = os.open(file_of(TRUTH, tmp_path / "truth.csv"), os.O_RDONLY)
    try:
        with pytest.raises(TypeError, match="os.PathLike"):
            read(fd)
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
    finally:
        os.close(fd)
