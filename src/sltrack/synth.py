"""Synthetic frame renderer and ground-truth trajectory generator.

Stands in for the physical camera/laser/filter stack: renders the wall
line plus foot reflections under an inverse-square intensity model and
i.i.d. Gaussian background noise, and produces timestamped ground-truth
scene sequences for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .geometry import MAX_DIGITS, RigConfig, WorldPosition, project, require_ints

Point = tuple[float, float]

_PathFn = Callable[[float], Point]  # time in s -> (x_cm, z_cm)


@dataclass(eq=False)
class Frame:
    """Single 8-bit grayscale capture, or its rows from ``top`` down.
    ``width``, ``height`` and ``top`` must be ints, ``0 <= top <= height``,
    and ``pixels`` a uint8 ndarray of shape (height - top, width) whose row
    0 is image row ``top``: they are checked, never converted."""

    width: int
    height: int
    pixels: np.ndarray  # uint8, shape (height - top, width)
    timestamp_ms: int = 0
    index: int = 0
    top: int = 0  # image row of pixels[0]

    def __post_init__(self) -> None:
        require_ints(self, "width", "height", "top")
        if not 0 <= self.top <= self.height:
            raise ValueError(f"top: must lie in [0, {self.height}], got {self.top}")
        if not (isinstance(self.pixels, np.ndarray) and self.pixels.dtype == np.uint8):
            got = getattr(self.pixels, "dtype", type(self.pixels).__name__)
            raise ValueError(f"pixel buffer must be a uint8 ndarray, got {got}")
        if self.pixels.shape != (self.height - self.top, self.width):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height - self.top}x{self.width}"
            )


@dataclass(frozen=True)
class SceneState:
    """Ground truth for one frame: user position (None = empty room)."""

    user: WorldPosition | None
    foot_width: float = 25.0
    timestamp_ms: int = 0

    def __post_init__(self) -> None:
        if not self.foot_width > 0:
            raise ValueError("foot_width: must be > 0")


@dataclass(frozen=True)
class NoiseParams:
    """Gaussian scene noise (projector light leaking past the filter)."""

    background_sigma: float = 0.0
    background_mean: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_ints(self, "seed")
        if self.background_sigma < 0:
            raise ValueError("background_sigma: must be >= 0")
        if not 0 <= self.background_mean <= 255:
            raise ValueError("background_mean: must lie in [0, 255]")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")


@dataclass(frozen=True)
class IntensityModel:
    """Reflection brightness vs. depth, inverse-square falloff."""

    i_ref: float = 60.0
    z_ref: float = 400.0

    def __post_init__(self) -> None:
        if not 0 < self.i_ref <= 255:
            raise ValueError("i_ref: must lie in (0, 255]")
        if not self.z_ref > 0:
            raise ValueError("z_ref: must be > 0")


def intensity_at(im: IntensityModel, z: float) -> float:
    """Expected reflection intensity at depth z, clamped to [0, 255]."""
    if not z > 0:
        raise ValueError("z: must be > 0")
    return min(max(im.i_ref * (im.z_ref / z) ** 2, 0.0), 255.0)


def _run_columns(center_u: float, width_px: float, frame_width: int) -> slice:
    """Integer columns covered by a run [center - w/2, center + w/2],
    clipped to the sensor. Empty when fully outside."""
    lo = max(math.ceil(center_u - width_px / 2.0), 0)
    hi = min(math.floor(center_u + width_px / 2.0), frame_width - 1)
    return slice(lo, max(lo, hi + 1))  # hi + 1 <= 0 would count from the end


def _stamp_line(img: np.ndarray, row: float, cols: slice | np.ndarray,
                level: float) -> None:
    """Add a 1 px tall line segment at round(row) over ``cols`` (a column
    slice or a boolean mask of the row); off-frame rows draw nothing."""
    center = round(row)
    if 0 <= center < img.shape[0]:
        img[center, cols] += level


def render(
    rig: RigConfig,
    scene: SceneState,
    noise: NoiseParams,
    im: IntensityModel,
    index: int = 0,
) -> Frame:
    """Render one frame of the laser line as seen by the rig camera.

    Background pixels are i.i.d. Gaussian(background_mean, background_sigma).
    The wall line is drawn at the rig's back-wall row except where the user's
    body occludes the laser; a present user adds a foot-reflection run whose
    row, extent and brightness follow the projection and intensity models. A
    foot row that projects outside the frame is simply not drawn.

    The noise stream is derived from (noise.seed, index), so identical
    arguments render bit-identical frames and frames can be rendered
    concurrently, as ``sltrack simulate`` does on one thread per CPU. A user
    behind the back wall raises ``ValueError``.
    """
    h, w = rig.height, rig.width
    if noise.background_sigma > 0:
        # scaled in place: the same bits as rng.normal(mean, sigma, (h, w)),
        # which computes mean + sigma * standard_normal per draw
        rng = np.random.default_rng((noise.seed, index))
        img = rng.standard_normal((h, w))
        np.multiply(img, noise.background_sigma, out=img)
        np.add(img, noise.background_mean, out=img)
    else:
        img = np.full((h, w), float(noise.background_mean))

    wall = np.ones(w, dtype=bool)
    if scene.user is not None:
        (u, v), z = project(rig, scene.user), scene.user.z
        cols = _run_columns(u, scene.foot_width * rig.f / z, w)
        _stamp_line(img, v, cols, intensity_at(im, z))
        wall[cols] = False  # the body shadows the wall
    _stamp_line(img, rig.back_wall_row, wall, intensity_at(im, rig.z_b))

    np.rint(img, out=img)
    np.clip(img, 0, 255, out=img)
    return Frame(width=w, height=h, pixels=img.astype(np.uint8),
                 timestamp_ms=scene.timestamp_ms, index=index)


def frame_timestamp_ms(i: int, rate_hz: float) -> int:
    """Timestamp of frame i of a clip sampled at rate_hz, in whole ms; one of
    10**18 ms or more, which no CSV reads back, raises ``ValueError``."""
    if not (ms := i * 1000.0 / rate_hz) < 10**MAX_DIGITS:  # inf too
        raise ValueError(f"frame {i}: timestamp {ms:g} ms is not below 10**{MAX_DIGITS}")
    return round(ms)


def _stationary(position: Point) -> _PathFn:
    x, z = map(float, position)
    if not z > 0:
        raise ValueError("position: z must be > 0")
    return lambda t: (x, z)


def _stroll(a: Point, b: Point, speed: float) -> _PathFn:
    ax, az = map(float, a)
    bx, bz = map(float, b)
    speed = float(speed)
    if speed <= 0:
        raise ValueError("speed: must be > 0")
    dx, dz = bx - ax, bz - az
    leg = float(np.linalg.norm((dx, dz)))
    if leg == 0:
        return lambda t: (ax, az)
    leg_time = leg / speed

    def at(t: float) -> Point:
        # ping-pong between the endpoints at constant speed
        phase = math.fmod(t, 2.0 * leg_time) / leg_time
        frac = phase if phase <= 1.0 else 2.0 - phase
        return ax + dx * frac, az + dz * frac

    return at


def _circle(center: Point, radius: float, omega: float) -> _PathFn:
    cx, cz = center
    radius = float(radius)
    omega = float(omega)
    if radius < 0:
        raise ValueError("radius: must be >= 0")

    def at(t: float) -> Point:
        ang = omega * t
        return (float(cx) + radius * math.cos(ang),
                float(cz) + radius * math.sin(ang))

    return at


# Trajectory kind -> path builder. A builder's parameters are the kind's
# config keys, in order, and their annotations the keys' types; it raises
# ValueError, naming the key, on a parameter no rig could make valid.
TRAJECTORIES: dict[str, Callable[..., _PathFn]] = {
    "stationary": _stationary, "stroll": _stroll, "circle": _circle,
}


@dataclass(frozen=True)
class TrajectorySpec:
    """A motion path of a kind in :data:`TRAJECTORIES`, sampled at
    ``rate_hz`` for ``duration_s``.

    Kinds: ``stationary`` (params: position), ``stroll`` (a, b, speed --
    walks a->b and back, ping-pong), ``circle`` (center, radius, omega).
    Construction checks every invariant that needs no rig and builds the
    path, so a bad kind, rate, duration, foot width or path parameter
    raises ``ValueError`` here, its message starting with the key's name.
    """

    kind: str
    rate_hz: float
    duration_s: float
    foot_width: float
    params: Mapping[str, Any]
    _path: _PathFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in TRAJECTORIES:
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        for name in ("rate_hz", "duration_s", "foot_width"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0")
        if self.rate_hz > 1000:
            raise ValueError("rate_hz: must be <= 1000")
        if math.isinf(self.rate_hz * self.duration_s):
            raise ValueError("duration_s: must give a finite frame count")
        if round(self.rate_hz * self.duration_s) < 1:
            raise ValueError("duration_s: shorter than one frame at rate_hz")
        object.__setattr__(self, "_path", TRAJECTORIES[self.kind](**self.params))

    def materialize(self, rig: RigConfig) -> list[SceneState]:
        """Sample the path into round(rate * duration) scene states, frame i
        at t = i/rate with :func:`frame_timestamp_ms`. A state leaving the
        rig's workspace (0 < z <= z_b) raises ``ValueError``."""
        states = []
        for i in range(round(self.rate_hz * self.duration_s)):
            x, z = self._path(i / self.rate_hz)
            if not 0 < z <= rig.z_b:
                raise ValueError(f"trajectory exits workspace at frame {i}: z={z:.3f}")
            states.append(SceneState(user=WorldPosition(x, z),
                                     foot_width=self.foot_width,
                                     timestamp_ms=frame_timestamp_ms(i, self.rate_hz)))
        return states


def render_trajectory(
    rig: RigConfig,
    states: Sequence[SceneState],
    noise: NoiseParams,
    im: IntensityModel,
) -> list[Frame]:
    """Render every state; frame index follows list position."""
    return [render(rig, s, noise, im, index=i) for i, s in enumerate(states)]
