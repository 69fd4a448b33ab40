"""File formats: binary PGM frames, JSON run configuration, CSV tables.

The config file is strict JSON: every section and key is validated,
unknown keys are rejected so experiment configs stay reproducible, and a
number must be finite (``json.loads`` reads NaN and Infinity). The
sections are the fields of ``RunConfig``, and a section's keys and types
are the fields of the dataclass it builds; a trajectory's are the scalar
fields of ``synth.TrajectorySpec`` and the parameters of its kind's path
builder in ``synth.TRAJECTORIES``.
``configs/reference.json`` is a worked example.

Readers and writers take paths. Every file read whole (a clip's first
frame, any frame the band read refuses, ``calibrate``'s frame, config and
calibration text) is read by one bounded loop, :func:`_read_whole`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (IO, Any, Callable, Iterator, Mapping, Sequence, get_args,
                    get_type_hints)

import numpy as np

from .detect import DetectParams
from .geometry import MAX_DIGITS, MAX_PIXELS, RigConfig, WorldPosition
from .pipeline import PositionEstimate, SmootherConfig
from .synth import (TRAJECTORIES, Frame, IntensityModel, NoiseParams, Point,
                    SceneState, TrajectorySpec, frame_timestamp_ms)

ESTIMATES_HEADER = "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm"
TRUTH_HEADER = "frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm"


class PgmError(ValueError):
    """Malformed PGM data; ``offset`` is the byte position of the problem and
    ``path`` the file that holds it."""

    def __init__(self, message: str, offset: int, path: str) -> None:
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset
        self.path = path


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@contextmanager
def _rewritten(path: str | os.PathLike, mode: str, **kwargs: Any) -> Iterator[IO]:
    """``path`` opened for writing in ``mode`` for the block: created if
    missing but not truncated, written from byte 0 and, when the block ends
    (also by an exception), a regular file cut where the writing stopped.
    It then holds exactly the bytes a truncating open would leave; only a
    process killed inside the block leaves the old tail. A truncating open
    makes ext4 start writeback at close (``auto_da_alloc``): rewriting a
    76.8 KB frame that way took several times as long as in place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, mode, **kwargs) as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:  # cut at what the kernel took, also if flush failed
                # /dev/null, a pipe or a tty cannot be truncated
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _read_whole(fh: IO, limit: int, data: bytearray | str) -> bytearray | str | None:
    """``data`` extended by what ``fh`` reads up to its end, or None once
    more than ``limit`` bytes or characters have come back. No read asks
    for more than ``limit + 1``, nor for more than 64 Ki at a time: one
    read of the whole bound allocates a buffer that size."""
    # in steps: a read may also return less than it was asked for
    while len(data) <= limit and (step := fh.read(min(2**16, limit + 1 - len(data)))):
        data += step
    return data if len(data) <= limit else None


# most characters a config or calibration file may hold; both are under 1 KB
_MAX_TEXT_CHARS = 2**20


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 file. One of more than ``_MAX_TEXT_CHARS``
    characters raises :class:`ConfigError` once one character past them is
    read, so a huge file is never read whole."""
    with open(os.fspath(path), encoding="utf-8") as fh:  # not a descriptor
        text = _read_whole(fh, _MAX_TEXT_CHARS, "")
    if text is None:
        raise ConfigError(f"longer than {_MAX_TEXT_CHARS} characters")
    return text


def write_text(text: str, path: str | os.PathLike) -> None:
    """Write ``text`` as UTF-8 to ``path``; an existing file is rewritten in
    place and cut to length."""
    with _rewritten(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- whole numbers in text -------------------------------------------------

# most characters of a bad token that an error message quotes: a PGM header
# token is a run of non-space bytes, as long as the file at most
_QUOTE_BYTES = 32


def _quote(token: str | bytes) -> str:
    """``repr(token)``; a token past ``_QUOTE_BYTES`` long, its first
    ``_QUOTE_BYTES`` and its length."""
    if len(token) <= _QUOTE_BYTES:
        return repr(token)
    unit = "bytes" if isinstance(token, bytes) else "characters"
    return f"{token[:_QUOTE_BYTES]!r}... ({len(token)} {unit})"


def whole_number(token: str | bytes, name: str) -> int:
    """The whole number ``token`` spells: ASCII digits, at most 18 after any
    leading zeros. Anything else raises ``ValueError`` naming the field,
    ``non-numeric <name> <token>`` or ``<name> too large: <n> digits``;
    ``int()`` alone also takes a sign, spaces, ``_`` and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"non-numeric {name} {_quote(token)}")
    if len(token) > MAX_DIGITS:
        digits = len(token.lstrip(b"0" if isinstance(token, bytes) else "0"))
        if digits > MAX_DIGITS:
            raise ValueError(f"{name} too large: {digits} digits")
        token = token[-MAX_DIGITS:]  # drop zeros that int() would count
    return int(token)


# --- PGM (binary P5, maxval 255) -----------------------------------------

def _pgm_header(width: int, height: int) -> bytes:
    """The header :func:`write_pgm` writes for a frame of these dimensions."""
    return b"P5\n%d %d\n255\n" % (width, height)


def write_pgm(frame: Frame, path: str | os.PathLike) -> None:
    """Write a frame as binary PGM: ``P5\\n<w> <h>\\n255\\n`` + raw rows. A frame
    read from a row ``top > 0`` has no rows above it to write and raises
    ``ValueError``."""
    if frame.top:
        raise ValueError(f"frame {frame.index} holds rows {frame.top}.. only, "
                         "not a whole frame to write")
    with _rewritten(path, "wb") as fh:
        fh.write(_pgm_header(frame.width, frame.height))
        fh.write(np.ascontiguousarray(frame.pixels))


# the four header tokens (magic, width, height, maxval), each the run of
# non-space bytes after any whitespace and '#' comments; an empty token is
# the end of the data. \s and \S of a bytes pattern are ASCII only, like
# bytes.isspace. Every part may match empty, so the pattern always matches,
# at its first, greedy try: no backtracking
_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)
# no frame file a rig allows is longer: a MAX_PIXELS payload, 64 KiB of header
_MAX_FILE_BYTES = MAX_PIXELS + 2**16
_TOO_LONG = f"file of over {_MAX_FILE_BYTES} bytes is longer than any frame"


def _parse_header(data: np.ndarray, path: str) -> tuple[int, int, int]:
    """The header's length, the whitespace byte after maxval included, with
    width and height. The parse reads no byte past that whitespace byte."""
    header = _HEADER.match(data)
    tokens = header.groups()
    if tokens[0] != b"P5":
        if not tokens[0]:  # an empty token: the data ended
            raise PgmError("truncated header", data.size, path)
        raise PgmError(f"unsupported magic {_quote(tokens[0])}, want binary P5",
                       0, path)
    numbers = []
    for group, name in (2, "width"), (3, "height"), (4, "maxval"):
        if not tokens[group - 1]:
            raise PgmError("truncated header", data.size, path)
        try:
            numbers.append(whole_number(tokens[group - 1], name))
        except ValueError as exc:
            raise PgmError(str(exc), header.start(group), path) from None
    width, height, maxval = numbers
    pos = header.end()
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}", pos, path)
    if maxval != 255:
        raise PgmError(f"maxval {maxval} unsupported, want 255", pos, path)
    if pos == data.size:
        raise PgmError("truncated header", pos, path)
    return pos + 1, width, height  # single whitespace byte after maxval


def read_pgm(path: str | os.PathLike) -> Frame:
    """Read a binary (P5) PGM file with maxval 255 back into a whole Frame.

    The header may hold '#' comments and any ASCII whitespace between its
    fields, and exactly one whitespace byte ends it. Timestamp and index are
    not part of the format: both are 0. Malformed data, including any byte
    after the width*height payload, raises :class:`PgmError` naming the
    file, at the offset of the problem; a regular file longer than any
    frame fails before it is read, a pipe once a byte past the bound is
    read. No state is kept between calls.
    """
    path = os.fspath(path)
    with open(path, "rb", buffering=0) as fh:
        if (size := os.fstat(fh.fileno()).st_size) > _MAX_FILE_BYTES:
            raise PgmError(f"file of {size} bytes is longer than any frame",
                           _MAX_FILE_BYTES, path)
        data = _read_whole(fh, _MAX_FILE_BYTES, bytearray())
    if data is None:
        raise PgmError(_TOO_LONG, _MAX_FILE_BYTES, path)
    data = np.frombuffer(data, np.uint8)
    pos, width, height = _parse_header(data, path)
    expected = width * height
    have = data.size - pos
    if have < expected:
        raise PgmError(f"truncated payload: want {expected} bytes, have {have}",
                       pos + have, path)
    if have > expected:
        raise PgmError(f"{have - expected} bytes after the payload", pos + expected, path)
    return Frame(width=width, height=height, pixels=data[pos:].reshape(height, width))


def _read_rows(path: str, header: bytes, width: int, height: int,
               top: int) -> np.ndarray | None:
    """Rows ``top``.. of a regular file that starts with ``header``, the one
    :func:`write_pgm` writes for ``width`` x ``height``, and whose stat size
    is exactly that header's and payload's, read with one ``preadv``; None
    for any other file, or one that did not read that way. It stats the path
    before it opens it, so a pipe is opened once, by :func:`read_pgm`."""
    if not 0 < top < height or not hasattr(os, "preadv"):
        return None
    info = os.stat(path)
    if info.st_size != len(header) + width * height or not stat.S_ISREG(info.st_mode):
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        if os.pread(fd, len(header), 0) != header:
            return None
        rows = np.empty((height - top, width), np.uint8)
        # short if the file shrank since its stat
        return rows if os.preadv(fd, [rows], len(header) + top * width) == rows.size else None
    finally:
        os.close(fd)


def pgm_names(directory: str | os.PathLike) -> list[str]:
    """Sorted names of a directory's entries that end in ``.pgm`` and are not
    directories, dotfiles included, case-sensitive: the ones
    ``Path.glob("*.pgm")`` yields, less its directories. A dangling symlink
    stays listed. A missing, unreadable or non-directory path has none."""
    try:
        with os.scandir(Path(directory)) as entries:  # Path("") is "."
            return sorted(entry.name for entry in entries
                          if entry.name.endswith(".pgm") and not entry.is_dir())
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def iter_pgm_dir(frames_dir: str, rate_hz: float, *, top: int = 0) -> Iterator[Frame]:
    """The ``*.pgm`` files of a directory as a frame sequence, in name order.

    Frames are read one at a time as the iterator is consumed, each holding
    image rows ``top``..height-1 (none when ``top`` is past the last row, as
    a slice clamps) in a buffer of its own. Frame i gets index i and
    timestamp ``frame_timestamp_ms(i, rate_hz)``. An empty directory raises
    :class:`ConfigError` here, before any frame is read; a malformed frame
    raises :class:`PgmError` naming its file. A regular file that starts
    with :func:`write_pgm`'s header for the previous frame's dimensions and
    is exactly as long as it and their payload reads only rows ``top``..;
    any other, a clip's first among them, is read whole by :func:`read_pgm`
    and sliced. ``track`` reads from v_b down: the detector reads no row
    above it.
    """
    names = pgm_names(frames_dir)
    if not names:
        raise ConfigError(f"no .pgm frames in {frames_dir}")
    # spelled as Path.glob spells them: "./x/" and "x//" give "x/<name>"
    base = str(Path(frames_dir))
    prefix = "" if base == "." else os.path.join(base, "")
    return _read_clip([prefix + name for name in names], rate_hz, top)


def _read_clip(paths: list[str], rate_hz: float, top: int) -> Iterator[Frame]:
    last = None  # write_pgm's header for the frame before, its width and height
    for i, path in enumerate(paths):
        rows = _read_rows(path, *last, top) if last else None
        if rows is None:
            frame = read_pgm(path)
            last = _pgm_header(frame.width, frame.height), frame.width, frame.height
            rows = frame.pixels[top:]
        yield Frame(width=last[1], height=last[2], pixels=rows, index=i,
                    timestamp_ms=frame_timestamp_ms(i, rate_hz), top=min(top, last[2]))


# --- run configuration -----------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration, one field per JSON section."""

    rig: RigConfig
    detect: DetectParams
    noise: NoiseParams
    intensity: IntensityModel
    smoother: SmootherConfig
    trajectory: TrajectorySpec


def _require(section: Mapping[str, Any], section_name: str, key: str) -> Any:
    if key not in section:
        raise ConfigError(f"{section_name}.{key}: missing")
    return section[key]


def _number(value: Any, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{label}: out of range for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{label}: must be finite")
    return number


def _integer(value: Any, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    if not -2**63 <= value < 2**63:  # digits not echoed, as for floats
        raise ConfigError(f"{label}: out of range for a 64-bit integer")
    return value


def _boolean(value: Any, label: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label}: expected true/false, got {value!r}")
    return value


def _point(value: Any, label: str) -> Point:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{label}: expected [x_cm, z_cm]")
    x, z = (_number(v, label) for v in value)
    return x, z


class _LongInt(int):
    """Stands for a JSON integer past ``int()``'s digit limit: its sign times
    2**1024, out of range for every number key, quoted without its digits."""

    def __repr__(self) -> str:
        return "<integer too long to read>"


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return _LongInt(-2**1024 if text.startswith("-") else 2**1024)


# value parser per annotated type of a config field or trajectory parameter
_PARSERS = {float: _number, int: _integer, bool: _boolean, Point: _point}


def _reject_unknown(section: Mapping[str, Any], section_name: str,
                    allowed: set[str]) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{section_name}.{sorted(unknown)[0]}: unknown key")


def _parse_keys(section: Mapping[str, Any], name: str,
                types: Mapping[str, Any]) -> dict[str, Any]:
    """One value per key of ``types``, parsed by its type, after rejecting
    keys not in ``types``; a key whose type admits None may be left out."""
    _reject_unknown(section, name, set(types))
    values = {}
    for key, kind in types.items():
        if type(None) in get_args(kind):
            if key not in section:
                continue
            kind = get_args(kind)[0]  # ``T | None`` -> T
        values[key] = _PARSERS[kind](_require(section, name, key), f"{name}.{key}")
    return values


def _construct(cls: type, name: str, **values: Any) -> Any:
    """``cls(**values)``, its ValueError a ConfigError prefixed ``<name>.``"""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from None


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """Name -> annotated type of each constructor field of a dataclass;
    resolved once per class and shared, so never mutated."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


@functools.cache
def _param_types(builder: Callable[..., Any]) -> dict[str, Any]:
    """Name -> annotated type of each parameter of a path builder; resolved
    once per builder and shared, so never mutated."""
    return {k: v for k, v in get_type_hints(builder).items() if k != "return"}


def _build_trajectory(section: Mapping[str, Any]) -> TrajectorySpec:
    """Build a TrajectorySpec: ``kind`` picks the path builder, whose
    parameters are keys beside the spec's own scalar fields."""
    name = "trajectory"
    kind = _require(section, name, "kind")
    if not isinstance(kind, str) or kind not in TRAJECTORIES:
        raise ConfigError(f"{name}.kind: unknown kind {kind!r}")
    params = _param_types(TRAJECTORIES[kind])
    types = {**_field_types(TrajectorySpec), **params}
    del types["kind"], types["params"]
    values = _parse_keys({k: v for k, v in section.items() if k != "kind"}, name, types)
    return _construct(TrajectorySpec, name, kind=kind,
                      params={key: values.pop(key) for key in params}, **values)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict; a repeated key, of which ``json.loads``
    alone keeps the last value, raises :class:`ConfigError`."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse and fully validate a JSON run configuration file.

    Raises :class:`ConfigError` naming the offending key on any missing,
    repeated or unknown key, type mismatch, or invariant violation; text
    that is not UTF-8 JSON, or nests too deep to parse, is ``not valid
    JSON``, and text past :func:`read_text`'s bound is ``longer than`` it.
    """
    try:
        root = json.loads(read_text(path), parse_int=_json_int,
                          object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config: {exc}") from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"config: not valid JSON ({exc})") from None
    if not isinstance(root, dict):
        raise ConfigError("config: top level must be an object")
    sections = _field_types(RunConfig)
    _reject_unknown(root, "config", set(sections))
    built = {}
    for name, cls in sections.items():
        section = _require(root, "config", name)
        if not isinstance(section, dict):
            raise ConfigError(f"config.{name}: expected an object")
        if cls is TrajectorySpec:  # its kind's path parameters are keys too
            built[name] = _build_trajectory(section)
        else:  # one key per field, of the field's type
            built[name] = _construct(cls, name,
                                     **_parse_keys(section, name, _field_types(cls)))
    return RunConfig(**built)


# --- CSV tables -------------------------------------------------------------

@dataclass(frozen=True)
class EstimateRow:
    """One estimates-CSV row; mirrors the file, not the full estimate.
    ``pos`` is None, and ``u_f``, ``v_f`` too, where ``detected`` is 0."""

    frame: int
    timestamp_ms: int
    u_f: float | None = None
    v_f: int | None = None
    pos: WorldPosition | None = None


# most bytes a CSV line may hold, its line end not counted; a row
# write_*_csv writes has under 1000
_MAX_LINE_BYTES = 2**16


def _read_table(path: str | os.PathLike, header: str, what: str,
                parse: Callable[..., Any]) -> list[Any]:
    """``parse(frame, *fields)`` of each row after the header line of a CSV
    file. A row's first field, ``frame``, must be its 0-based position, as
    ``write_*_csv`` write it and :func:`sltrack.pipeline.evaluate` pairs
    rows; it is passed as an int, the rest as text. A bad header or row, a
    line of over ``_MAX_LINE_BYTES`` bytes or one that is not UTF-8 raises
    ``ValueError`` naming the table and 1-based line. A line ends at
    ``\\n`` only, one ``\\r`` before it dropped. Each is one binary
    ``readline`` of at most two bytes past the bound, decoded on its own."""
    width = header.count(",") + 1
    rows = []
    with open(os.fspath(path), "rb") as fh:  # not a descriptor
        number = 0
        # the bound and a "\r\n"; an empty file is one line, a bad header
        while (line := fh.readline(_MAX_LINE_BYTES + 2)) or not number:
            number += 1
            if line.endswith(b"\n"):
                line = line[:-1].removesuffix(b"\r")
            try:
                if len(line) > _MAX_LINE_BYTES:
                    raise ValueError(f"longer than {_MAX_LINE_BYTES} bytes")
                # UnicodeDecodeError gives the bad byte's position in the line
                text = line.decode("utf-8")
                values = text.split(",")
                if number == 1:
                    if text != header:
                        raise ValueError(f"expected header {header!r}")
                elif len(values) != width:
                    raise ValueError(f"expected {width} fields, got {len(values)}")
                elif whole_number(values[0], "frame") != len(rows):
                    raise ValueError(f"expected frame {len(rows)}, got {values[0]}")
                else:
                    rows.append(parse(len(rows), *values[1:]))
            except ValueError as exc:
                raise ValueError(f"{what} CSV line {number}: {exc}") from None
    return rows


def write_estimates_csv(estimates: Sequence[PositionEstimate],
                        path: str | os.PathLike) -> None:
    """Write per-frame estimates; absent values become empty fields and
    cm/pixel centroids carry three decimals; ``frame`` is the row's 0-based
    position, as :func:`read_estimates_csv` reads it. A detected row needs
    the detection's centroid, so an estimate with a position but no
    detection raises ``ValueError`` naming its frame."""
    with _rewritten(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(ESTIMATES_HEADER + "\n")
        for i, est in enumerate(estimates):
            if est.pos is None:
                fh.write(f"{i},{est.timestamp_ms},0,,,,\n")
            elif est.detection is None:
                raise ValueError(f"frame {i}: a position without "
                                 "a detection has no u_f, v_f to write")
            else:
                u_f, v_f = est.detection
                fh.write(f"{i},{est.timestamp_ms},1,{u_f:.3f},{v_f},"
                         f"{est.pos.x:.3f},{est.pos.z:.3f}\n")


def _csv_float(text: str, name: str = "") -> float:
    # float() also takes "1_0.0", " 200" and non-ASCII digits
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    value = float(text)
    if name and not math.isfinite(value):  # x, z: WorldPosition checks
        raise ValueError(f"{name}: must be finite, got {text!r}")
    return value


def _csv_position(flag: str, text: str, x: str, z: str,
                  **more: str) -> WorldPosition | None:
    """x, z of a row whose ``flag`` field ``text`` is 1; None where it is 0,
    and then ``more`` and x, z must be empty, as write_*_csv leave them."""
    if text == "1":
        # an impossible position fails here, where the line is known
        return WorldPosition(_csv_float(x), _csv_float(z))
    if text != "0":
        raise ValueError(f"{flag}: expected 0 or 1, got {text!r}")
    for name, value in {**more, "x_cm": x, "z_cm": z}.items():
        if value:
            raise ValueError(f"{name}: expected empty with {flag} 0, got {value!r}")
    return None


def _estimate_row(frame: int, ts: str, detected: str, u_f: str, v_f: str, x: str,
                  z: str) -> EstimateRow:
    pos = _csv_position("detected", detected, x, z, u_f=u_f, v_f=v_f)
    timestamp_ms = whole_number(ts, "timestamp_ms")
    if pos is None:
        return EstimateRow(frame, timestamp_ms)
    return EstimateRow(frame, timestamp_ms, _csv_float(u_f, "u_f"),
                       whole_number(v_f, "v_f"), pos)


def read_estimates_csv(path: str | os.PathLike) -> list[EstimateRow]:
    """Estimate rows in file order; a row's ``frame`` must be its 0-based
    position, as :func:`write_estimates_csv` writes it."""
    return _read_table(path, ESTIMATES_HEADER, "estimates", _estimate_row)


def write_truth_csv(truth: Sequence[SceneState], path: str | os.PathLike) -> None:
    """Write one truth row per scene, ``frame`` its 0-based position; an
    empty scene's position fields are empty, cm values carry 3 decimals."""
    with _rewritten(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRUTH_HEADER + "\n")
        for i, state in enumerate(truth):
            if state.user is not None:
                fh.write(
                    f"{i},{state.timestamp_ms},1,{state.user.x:.3f},"
                    f"{state.user.z:.3f},{state.foot_width:.3f}\n"
                )
            else:
                fh.write(f"{i},{state.timestamp_ms},0,,,{state.foot_width:.3f}\n")


def _truth_row(_frame: int, ts: str, present: str, x: str, z: str,
               foot_width: str) -> SceneState:
    return SceneState(user=_csv_position("present", present, x, z),
                      foot_width=_csv_float(foot_width, "foot_width_cm"),
                      timestamp_ms=whole_number(ts, "timestamp_ms"))


def read_truth_csv(path: str | os.PathLike) -> list[SceneState]:
    """Truth rows in file order; a row's ``frame`` must be its 0-based
    position, as :func:`write_truth_csv` writes it."""
    return _read_table(path, TRUTH_HEADER, "truth", _truth_row)
