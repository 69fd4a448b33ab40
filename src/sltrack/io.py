"""File formats: binary PGM frames, JSON run configuration, CSV tables.

The config file is strict JSON: every section and key is validated, and
unknown keys are rejected so experiment configs stay reproducible. A
section's keys and types are the fields of the dataclass it builds; a
trajectory's are the scalar fields of ``synth.TrajectorySpec`` and the
parameters of its kind's path builder in ``synth.TRAJECTORIES``.
``configs/reference.json`` is a worked example.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
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
    """Malformed PGM data; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@contextmanager
def _opened(target: str | IO, mode: str, **kwargs: Any) -> Iterator[IO]:
    """A file object as it is, or a path opened for the block and closed after."""
    if hasattr(target, "read") or hasattr(target, "write"):
        yield target
    else:
        with open(target, mode, **kwargs) as fh:
            yield fh


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


def read_pgm(source: str | BinaryIO) -> Frame:
    """Read a binary (P5) PGM with maxval 255 back into a Frame.

    Timestamp and index are not part of the format and come back as 0;
    callers sequencing frames from disk assign them. Malformed data,
    including any byte after the width*height payload, raises
    :class:`PgmError` at the offset of the problem.
    """
    with _opened(source, "rb") as fh:
        data = fh.read()

    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported magic {magic!r}, want binary P5", 0)
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise PgmError(f"non-numeric {name} {token!r}", pos - len(token)) from None
        fields.append(value)
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PgmError(f"maxval {maxval} unsupported, want 255", pos)
    if pos == len(data):
        raise PgmError("truncated header", pos)
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise PgmError(
            f"truncated payload: want {expected} bytes, have {len(payload)}",
            pos + len(payload),
        )
    if len(data) > pos + expected:
        raise PgmError(f"{len(data) - pos - expected} bytes after the payload",
                       pos + expected)
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Frame(width=width, height=height, pixels=pixels.copy())


def iter_pgm_dir(frames_dir: str, rate_hz: float) -> Iterator[Frame]:
    """The ``*.pgm`` files of a directory as a frame sequence, in name order.

    Frames are read one at a time as the iterator is consumed. Frame i gets
    index i and timestamp ``frame_timestamp_ms(i, rate_hz)``. An empty directory
    raises :class:`ConfigError` here, before any frame is read.
    """
    paths = sorted(Path(frames_dir).glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm frames in {frames_dir}")
    return (replace(read_pgm(str(path)), index=i,
                    timestamp_ms=frame_timestamp_ms(i, rate_hz))
            for i, path in enumerate(paths))


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
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{section_name}.{key}: out of range for a float") from None


def _integer(section: Mapping[str, Any], section_name: str, key: str) -> int:
    value = _require(section, section_name, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section_name}.{key}: expected an integer, got {value!r}")
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
    x_cm: float | None = None
    z_cm: float | None = None


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


def _estimate_row(_position: int, frame: str, ts: str, detected: str, u_f: str,
                  v_f: str, x: str, z: str) -> EstimateRow:
    if detected == "1":
        return EstimateRow(int(frame), int(ts), True, float(u_f), int(v_f),
                           float(x), float(z))
    return EstimateRow(int(frame), int(ts), False)


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
    if int(frame) != position:
        raise ValueError(f"expected frame {position}, got {frame}")
    user = WorldPosition(float(x), float(z)) if present == "1" else None
    return SceneState(user=user, foot_width=float(foot_width), timestamp_ms=int(ts))


def read_truth_csv(source: str | IO[str]) -> list[SceneState]:
    """Truth rows in file order; a row's ``frame`` must be its 0-based
    position, as :func:`write_truth_csv` writes it."""
    return _read_table(source, TRUTH_HEADER, "truth", _truth_row)
