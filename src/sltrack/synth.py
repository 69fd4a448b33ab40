"""Synthetic frame renderer and ground-truth trajectory generator.

Stands in for the physical camera/laser/filter stack: renders the wall
line plus foot reflections under an inverse-square intensity model and
i.i.d. Gaussian background noise, and produces timestamped ground-truth
scene sequences for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import RigConfig, WorldPosition

_PathFn = Callable[[float], WorldPosition]

Point = tuple[float, float]


@dataclass(eq=False)
class Frame:
    """Single 8-bit grayscale capture."""

    width: int
    height: int
    pixels: np.ndarray  # uint8, shape (height, width), row-major
    timestamp_ms: int = 0
    index: int = 0

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}"
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


def _run_columns(center_u: float, width_px: float, frame_width: int) -> np.ndarray:
    """Integer columns covered by a run [center - w/2, center + w/2],
    clipped to the sensor. Empty when fully outside."""
    lo = math.ceil(center_u - width_px / 2.0)
    hi = math.floor(center_u + width_px / 2.0)
    lo, hi = max(lo, 0), min(hi, frame_width - 1)
    if lo > hi:
        return np.empty(0, dtype=np.intp)
    return np.arange(lo, hi + 1, dtype=np.intp)


def _stamp_line(img: np.ndarray, row: float, cols: np.ndarray, level: float,
                spread: float) -> None:
    """Add a horizontal line segment at sub-pixel row ``row``.

    With spread == 0 the line is 1 px tall at round(row); otherwise the
    intensity gets a Gaussian vertical profile of std ``spread`` px.
    """
    height = img.shape[0]
    center = round(row)
    if spread <= 0:
        if 0 <= center < height and cols.size:
            img[center, cols] += level
        return
    reach = math.ceil(3.0 * spread)
    for k in range(-reach, reach + 1):
        r = center + k
        if 0 <= r < height and cols.size:
            img[r, cols] += level * math.exp(-(r - row) ** 2 / (2.0 * spread**2))


def render(
    rig: RigConfig,
    scene: SceneState,
    noise: NoiseParams,
    im: IntensityModel,
    index: int = 0,
    *,
    line_spread: float = 0.0,
    foot_gap: float = 0.0,
) -> Frame:
    """Render one frame of the laser line as seen by the rig camera.

    Background pixels are i.i.d. Gaussian(background_mean, background_sigma).
    The wall line is drawn at the rig's back-wall row except where the user's
    body occludes the laser; a present user adds a foot-reflection run whose
    row, extent and brightness follow the projection and intensity models. A
    foot row that projects outside the frame is simply not drawn.

    The noise stream is derived from (noise.seed, index), so identical
    arguments render bit-identical frames and frames can be rendered
    concurrently. ``foot_gap`` > 0 switches to a two-feet model: two runs of
    ``foot_width`` whose inner edges are ``foot_gap`` cm apart.
    """
    if scene.user is not None and scene.user.z > rig.z_b:
        raise ValueError("user is behind the back wall")

    h, w = rig.height, rig.width
    if noise.background_sigma > 0:
        rng = np.random.default_rng((noise.seed, index))
        img = rng.normal(noise.background_mean, noise.background_sigma, (h, w))
    else:
        img = np.full((h, w), float(noise.background_mean))

    occluded = np.empty(0, dtype=np.intp)
    foot_rows: list[tuple[float, np.ndarray, float]] = []
    if scene.user is not None:
        x, z = scene.user.x, scene.user.z
        u_f = rig.u0 + rig.f * x / z
        w_px = scene.foot_width * rig.f / z
        if foot_gap > 0:
            offset = (scene.foot_width + foot_gap) / 2.0 * rig.f / z
            centers = (u_f - offset, u_f + offset)
        else:
            centers = (u_f,)
        cols = [_run_columns(c, w_px, w) for c in centers]
        occluded = np.unique(np.concatenate(cols)) if cols else occluded
        v_f = rig.v0 + rig.d * rig.f / z
        if 0 <= round(v_f) < h:
            level = intensity_at(im, z)
            foot_rows = [(v_f, c, level) for c in cols]

    wall_cols = np.setdiff1d(np.arange(w, dtype=np.intp), occluded)
    _stamp_line(img, rig.back_wall_row, wall_cols, intensity_at(im, rig.z_b),
                line_spread)
    for row, cols, level in foot_rows:
        _stamp_line(img, row, cols, level, line_spread)

    quantized = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return Frame(width=w, height=h, pixels=quantized,
                 timestamp_ms=scene.timestamp_ms, index=index)


def _stationary(position: Point) -> _PathFn:
    x, z = position
    pos = WorldPosition(float(x), float(z))
    return lambda t: pos


def _stroll(a: Point, b: Point, speed: float) -> _PathFn:
    ax, az = a
    bx, bz = b
    speed = float(speed)
    if speed <= 0:
        raise ValueError("speed: must be > 0")
    a = np.array([float(ax), float(az)])
    b = np.array([float(bx), float(bz)])
    leg = float(np.linalg.norm(b - a))
    if leg == 0:
        return lambda t: WorldPosition(*a)
    leg_time = leg / speed

    def at(t: float) -> WorldPosition:
        # ping-pong between the endpoints at constant speed
        phase = math.fmod(t, 2.0 * leg_time) / leg_time
        frac = phase if phase <= 1.0 else 2.0 - phase
        p = a + (b - a) * frac
        return WorldPosition(p[0], p[1])

    return at


def _circle(center: Point, radius: float, omega: float) -> _PathFn:
    cx, cz = center
    radius = float(radius)
    omega = float(omega)
    if radius < 0:
        raise ValueError("radius: must be >= 0")

    def at(t: float) -> WorldPosition:
        ang = omega * t
        return WorldPosition(float(cx) + radius * math.cos(ang),
                             float(cz) + radius * math.sin(ang))

    return at


# Trajectory kind -> path builder. A builder's parameters are the kind's
# config keys, in order, and their annotations the keys' types.
TRAJECTORIES: dict[str, Callable[..., _PathFn]] = {
    "stationary": _stationary, "stroll": _stroll, "circle": _circle,
}


def make_trajectory(
    kind: str,
    params: Mapping[str, object],
    rate_hz: float,
    duration_s: float,
    *,
    foot_width: float = 25.0,
    rig: RigConfig | None = None,
) -> list[SceneState]:
    """Sample a motion path into rate*duration timestamped scene states.

    Kinds: ``stationary`` (params: position), ``stroll`` (a, b, speed --
    walks a->b and back, ping-pong), ``circle`` (center, radius, omega).
    Timestamps are round(i * 1000/rate) ms. When a rig is given, any state
    leaving its workspace (0 < z <= z_b) fails construction.
    """
    if kind not in TRAJECTORIES:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    if not 0 < rate_hz <= 1000:
        raise ValueError("rate_hz: must lie in (0, 1000]")
    if not duration_s > 0:
        raise ValueError("duration_s: must be > 0")
    n = round(rate_hz * duration_s)
    if n < 1:
        raise ValueError("trajectory is empty: rate * duration < 1 frame")

    at = TRAJECTORIES[kind](**params)
    states = []
    for i in range(n):
        t = i / rate_hz
        pos = at(t)
        if rig is not None and not 0 < pos.z <= rig.z_b:
            raise ValueError(
                f"trajectory exits workspace at frame {i}: z={pos.z:.3f}"
            )
        states.append(SceneState(user=pos, foot_width=foot_width,
                                 timestamp_ms=round(i * 1000.0 / rate_hz)))
    return states


def render_trajectory(
    rig: RigConfig,
    states: Sequence[SceneState],
    noise: NoiseParams,
    im: IntensityModel,
) -> list[Frame]:
    """Render every state; frame index follows list position."""
    return [render(rig, s, noise, im, index=i) for i, s in enumerate(states)]
