"""File formats: binary PGM frames, JSON run configuration, CSV tables.

The config file is strict JSON: every section and key is validated,
unknown keys are rejected so experiment configs stay reproducible, and a
number must be finite (``json.loads`` reads NaN and Infinity). A
section's keys and types are the fields of the dataclass it builds; a
trajectory's are the scalar fields of ``synth.TrajectorySpec`` and the
parameters of its kind's path builder in ``synth.TRAJECTORIES``.
``configs/reference.json`` is a worked example.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass, fields
from io import FileIO
from pathlib import Path
from typing import (IO, Any, BinaryIO, Callable, Iterator, Mapping, Sequence,
                    get_args, get_type_hints)

import numpy as np

from .detect import DetectParams
from .geometry import RigConfig, WorldPosition
from .pipeline import PositionEstimate, SmootherConfig
from .synth import (TRAJECTORIES, Frame, IntensityModel, NoiseParams, Point,
                    SceneState, TrajectorySpec, frame_timestamp_ms)

ESTIMATES_HEADER = "frame,timestamp_ms,detected,u_f,v_f,x_cm,z_cm"
TRUTH_HEADER = "frame,timestamp_ms,present,x_cm,z_cm,foot_width_cm"


class PgmError(ValueError):
    """Malformed PGM data; ``offset`` is the byte position of the problem and
    ``path``, when known, the file that holds it."""

    def __init__(self, message: str, offset: int, path: str | None = None) -> None:
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}{message} (byte offset {offset})")
        self.message = message
        self.offset = offset
        self.path = path


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@contextmanager
def _opened(target: str | IO, mode: str, **kwargs: Any) -> Iterator[IO]:
    """A file object as it is, or a path opened for the block and closed after.

    A path opened for writing (a ``"w"`` mode) is created if missing but
    not truncated: it is written from byte 0, and when the block ends,
    also by an exception, a regular file is cut where the writing
    stopped. It then holds exactly the bytes a truncating open would
    leave; only a process killed inside the block leaves the old tail.
    Truncating an existing file at open makes ext4 start writeback when
    it is closed (``auto_da_alloc``); rewriting a 76.8 KB frame that way
    took several times as long as writing it in place.
    """
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target
    elif "w" not in mode:
        with open(target, mode, **kwargs) as fh:
            yield fh
    else:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
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


def write_text(text: str, path: str) -> None:
    """Write ``text`` as UTF-8 to ``path``; an existing file is rewritten in
    place and cut to length."""
    with _opened(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- PGM (binary P5, maxval 255) -----------------------------------------

def write_pgm(frame: Frame, sink: str | BinaryIO) -> None:
    """Write a frame as binary PGM: ``P5\\n<w> <h>\\n255\\n`` + raw rows."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    payload = frame.pixels.tobytes()
    with _opened(sink, "wb") as fh:
        fh.write(header + payload)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
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
        raise PgmError("truncated header", pos)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


# most digits a header number may have after its leading zeros: int() refuses
# a string past 4300 digits, and no payload holds 10**18 bytes
_MAX_DIGITS = 18
# the header write_pgm writes, with any one whitespace byte between fields;
# \d and \s of a bytes pattern are ASCII only, like the walker's tests
_PLAIN_HEADER = re.compile(rb"P5\s([1-9]\d{0,%d})\s([1-9]\d{0,%d})\s255\s"
                           % (_MAX_DIGITS - 1, _MAX_DIGITS - 1))


def _read_file(path: str | os.PathLike) -> np.ndarray:
    """Every byte of a file, read into one uint8 buffer sized by its stat."""
    with FileIO(path) as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size + 1, np.uint8)
        got = 0
        while n := fh.readinto(buf[got:]):
            got += n
            if got == buf.size:  # longer than its stat said: grown, or not a regular file
                buf = np.concatenate((buf, np.empty_like(buf)))
        return buf[:got]


def _walk_pgm(data: bytes) -> np.ndarray:
    """Pixels of any P5 PGM with maxval 255, header comments included; the
    one place that raises :class:`PgmError`."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported magic {magic!r}, want binary P5", 0)
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        if not token.isdigit():  # ASCII only; int() also takes "+3" and "3_20"
            raise PgmError(f"non-numeric {name} {token!r}", pos - len(token))
        digits = token.lstrip(b"0")
        if len(digits) > _MAX_DIGITS:
            raise PgmError(f"{name} too large: {len(digits)} digits", pos - len(token))
        fields.append(int(digits or b"0"))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PgmError(f"maxval {maxval} unsupported, want 255", pos)
    if pos == len(data):
        raise PgmError("truncated header", pos)
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    have = len(data) - pos
    if have < expected:
        raise PgmError(f"truncated payload: want {expected} bytes, have {have}",
                       pos + have)
    if have > expected:
        raise PgmError(f"{have - expected} bytes after the payload", pos + expected)
    pixels = np.frombuffer(data, np.uint8, expected, pos).reshape(height, width)
    return pixels.copy()


def read_pgm(source: str | BinaryIO, *, index: int = 0,
             timestamp_ms: int = 0) -> Frame:
    """Read a binary (P5) PGM with maxval 255 back into a Frame.

    Timestamp and index are not part of the format: they are 0 unless the
    caller passes them. Malformed data, including any byte after the
    width*height payload, raises :class:`PgmError` at the offset of the
    problem.
    """
    if hasattr(source, "read"):
        pixels = _walk_pgm(source.read())
    else:
        data = _read_file(source)
        plain = _PLAIN_HEADER.match(data)
        if plain and data.size - plain.end() == int(plain[1]) * int(plain[2]):
            # a view of the read buffer: no copy
            pixels = data[plain.end():].reshape(int(plain[2]), int(plain[1]))
        else:  # anything else, malformed data included
            pixels = _walk_pgm(data.tobytes())
    height, width = pixels.shape
    return Frame(width=width, height=height, pixels=pixels, index=index,
                 timestamp_ms=timestamp_ms)


def pgm_names(directory: str | os.PathLike) -> list[str]:
    """Sorted names of a directory's entries that end in ``.pgm``, the ones
    ``Path.glob("*.pgm")`` yields: any kind of entry, dotfiles included,
    case-sensitive. A missing, unreadable or non-directory path has none."""
    try:
        with os.scandir(Path(directory)) as entries:  # Path("") is "."
            return sorted(entry.name for entry in entries if entry.name.endswith(".pgm"))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def iter_pgm_dir(frames_dir: str, rate_hz: float) -> Iterator[Frame]:
    """The ``*.pgm`` files of a directory as a frame sequence, in name order.

    Frames are read one at a time as the iterator is consumed. Frame i gets
    index i and timestamp ``frame_timestamp_ms(i, rate_hz)``. An empty directory
    raises :class:`ConfigError` here, before any frame is read; a malformed
    frame raises :class:`PgmError` naming its file.
    """
    names = pgm_names(frames_dir)
    if not names:
        raise ConfigError(f"no .pgm frames in {frames_dir}")
    # spelled as Path.glob spells them: "./x/" and "x//" give "x/<name>"
    base = str(Path(frames_dir))
    prefix = "" if base == "." else os.path.join(base, "")
    return _read_frames([prefix + name for name in names], rate_hz)


def _read_frames(paths: list[str], rate_hz: float) -> Iterator[Frame]:
    for i, path in enumerate(paths):
        try:
            yield read_pgm(path, index=i, timestamp_ms=frame_timestamp_ms(i, rate_hz))
        except PgmError as exc:
            raise PgmError(exc.message, exc.offset, path) from None


# --- run configuration -----------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
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


def _number(section: Mapping[str, Any], section_name: str, key: str) -> float:
    value = _require(section, section_name, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section_name}.{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{section_name}.{key}: out of range for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{section_name}.{key}: must be finite")
    return number


def _integer(section: Mapping[str, Any], section_name: str, key: str) -> int:
    value = _require(section, section_name, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section_name}.{key}: expected an integer, got {value!r}")
    if not -2**63 <= value < 2**63:  # digits not echoed, as for floats
        raise ConfigError(f"{section_name}.{key}: out of range for a 64-bit integer")
    return value


def _boolean(section: Mapping[str, Any], section_name: str, key: str) -> bool:
    value = _require(section, section_name, key)
    if not isinstance(value, bool):
        raise ConfigError(f"{section_name}.{key}: expected true/false, got {value!r}")
    return value


def _point(section: Mapping[str, Any], section_name: str, key: str) -> Point:
    value = _require(section, section_name, key)
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{section_name}.{key}: expected [x_cm, z_cm]")
    x, z = (_number({key: v}, section_name, key) for v in value)
    return x, z


# value parser per annotated type of a config field or trajectory parameter
_PARSERS = {float: _number, int: _integer, bool: _boolean, Point: _point}


def _reject_unknown(section: Mapping[str, Any], section_name: str,
                    allowed: set[str]) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{section_name}.{sorted(unknown)[0]}: unknown key")


def _section(root: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    value = _require(root, "config", name)
    if not isinstance(value, dict):
        raise ConfigError(f"config.{name}: expected an object")
    return value


# config section -> the dataclass it builds and the prefix put before that
# dataclass's own ValueError messages
_SECTIONS = {
    "rig": (RigConfig, "rig."),
    "detect": (DetectParams, "detect: "),
    "noise": (NoiseParams, "noise."),
    "intensity": (IntensityModel, "intensity."),
    "smoother": (SmootherConfig, "smoother."),
}


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
        values[key] = _PARSERS[kind](section, name, key)
    return values


def _construct(cls: type, prefix: str, **values: Any) -> Any:
    """``cls(**values)``, its ValueError turned into a prefixed ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _field_types(cls: type) -> dict[str, Any]:
    """Name -> annotated type of each constructor field of a dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def _build_section(section: Mapping[str, Any], name: str) -> Any:
    """Build a section's dataclass from one key per field, of the field's type."""
    cls, prefix = _SECTIONS[name]
    return _construct(cls, prefix, **_parse_keys(section, name, _field_types(cls)))


def _build_trajectory(section: Mapping[str, Any]) -> TrajectorySpec:
    """Build a TrajectorySpec: ``kind`` picks the path builder, whose
    parameters are keys beside the spec's own scalar fields."""
    name = "trajectory"
    kind = _require(section, name, "kind")
    if not isinstance(kind, str) or kind not in TRAJECTORIES:
        raise ConfigError(f"{name}.kind: unknown kind {kind!r}")
    params = get_type_hints(TRAJECTORIES[kind])
    del params["return"]
    types = {**_field_types(TrajectorySpec), **params}
    del types["kind"], types["params"]
    values = _parse_keys({k: v for k, v in section.items() if k != "kind"}, name, types)
    return _construct(TrajectorySpec, f"{name}.", kind=kind,
                      params={key: values.pop(key) for key in params}, **values)


def load_config(source: str | IO[str]) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Raises :class:`ConfigError` naming the offending key on any missing
    key, type mismatch, unknown key, or invariant violation.
    """
    with _opened(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from None
    if not isinstance(root, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(root, "config", {*_SECTIONS, "trajectory"})
    built = {name: _build_section(_section(root, name), name) for name in _SECTIONS}
    return RunConfig(**built,
                     trajectory=_build_trajectory(_section(root, "trajectory")))


# --- CSV tables -------------------------------------------------------------

@dataclass(frozen=True)
class EstimateRow:
    """One estimates-CSV row; mirrors the file, not the full estimate."""

    frame: int
    timestamp_ms: int
    detected: bool
    u_f: float | None = None
    v_f: int | None = None
    pos: WorldPosition | None = None

    @property
    def x_cm(self) -> float | None:
        return None if self.pos is None else self.pos.x

    @property
    def z_cm(self) -> float | None:
        return None if self.pos is None else self.pos.z


def _read_table(source: str | IO[str], header: str, what: str,
                parse: Callable[..., Any]) -> list[Any]:
    """``parse(position, *fields)`` of each row after the header line of a
    CSV, position counting rows from 0. A bad header or row raises
    ``ValueError`` naming the table and 1-based line."""
    with _opened(source, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{what} CSV line 1: expected header {header!r}")
    width = header.count(",") + 1
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        try:
            if len(values) != width:
                raise ValueError(f"expected {width} fields, got {len(values)}")
            rows.append(parse(len(rows), *values))
        except ValueError as exc:
            raise ValueError(f"{what} CSV line {number}: {exc}") from None
    return rows


def write_estimates_csv(estimates: Sequence[PositionEstimate],
                        sink: str | IO[str]) -> None:
    """Write per-frame estimates; absent values become empty fields and
    cm/pixel centroids carry three decimals."""
    with _opened(sink, "w", encoding="utf-8", newline="") as fh:
        fh.write(ESTIMATES_HEADER + "\n")
        for est in estimates:
            if est.pos is not None and est.detection is not None:
                fh.write(
                    f"{est.frame_index},{est.timestamp_ms},1,"
                    f"{est.detection.u_f:.3f},{est.detection.v_f},"
                    f"{est.pos.x:.3f},{est.pos.z:.3f}\n"
                )
            else:
                fh.write(f"{est.frame_index},{est.timestamp_ms},0,,,,\n")


def _csv_int(text: str) -> int:
    # ASCII digits only: int() also takes "+5", " 200" and "1_0"
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _csv_float(text: str) -> float:
    # float() also takes "1_0.0", " 200" and non-ASCII digits
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _csv_flag(name: str, text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{name}: expected 0 or 1, got {text!r}")
    return text == "1"


def _csv_empty(flag: str, **values: str) -> None:
    # a row without a position holds none: write_*_csv leaves these empty
    for name, text in values.items():
        if text:
            raise ValueError(f"{name}: expected empty with {flag} 0, got {text!r}")


def _estimate_row(_position: int, frame: str, ts: str, detected: str, u_f: str,
                  v_f: str, x: str, z: str) -> EstimateRow:
    if _csv_flag("detected", detected):
        # an impossible position fails here, where the line is known
        pos = WorldPosition(_csv_float(x), _csv_float(z))
        return EstimateRow(_csv_int(frame), _csv_int(ts), True, _csv_float(u_f),
                           _csv_int(v_f), pos)
    _csv_empty("detected", u_f=u_f, v_f=v_f, x_cm=x, z_cm=z)
    return EstimateRow(_csv_int(frame), _csv_int(ts), False)


def read_estimates_csv(source: str | IO[str]) -> list[EstimateRow]:
    return _read_table(source, ESTIMATES_HEADER, "estimates", _estimate_row)


def write_truth_csv(truth: Sequence[SceneState], sink: str | IO[str]) -> None:
    with _opened(sink, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRUTH_HEADER + "\n")
        for i, state in enumerate(truth):
            if state.user is not None:
                fh.write(
                    f"{i},{state.timestamp_ms},1,{state.user.x:.3f},"
                    f"{state.user.z:.3f},{state.foot_width:.3f}\n"
                )
            else:
                fh.write(f"{i},{state.timestamp_ms},0,,,{state.foot_width:.3f}\n")


def _truth_row(position: int, frame: str, ts: str, present: str, x: str, z: str,
               foot_width: str) -> SceneState:
    if _csv_int(frame) != position:
        raise ValueError(f"expected frame {position}, got {frame}")
    if _csv_flag("present", present):
        user = WorldPosition(_csv_float(x), _csv_float(z))
    else:
        _csv_empty("present", x_cm=x, z_cm=z)
        user = None
    return SceneState(user=user, foot_width=_csv_float(foot_width),
                      timestamp_ms=_csv_int(ts))


def read_truth_csv(source: str | IO[str]) -> list[SceneState]:
    """Truth rows in file order; a row's ``frame`` must be its 0-based
    position, as :func:`write_truth_csv` writes it."""
    return _read_table(source, TRUTH_HEADER, "truth", _truth_row)
