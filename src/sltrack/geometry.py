"""Rig geometry and laser-line triangulation.

Coordinate conventions used throughout the package:

    World (floor plane, camera at origin):
      x - lateral offset from the optical axis, cm, positive rightward
      z - depth from the camera, cm, positive into the scene

    Image:
      u - column, pixels, increasing rightward
      v - row, pixels, increasing downward

The laser projector sits a vertical baseline ``d`` below the camera and
projects a horizontal line across the room. The line's reflection off the
far wall (depth ``z_b``) images at a fixed reference row; reflections off
anything closer image *below* that row, and the vertical disparity encodes
depth. All geometry here is sub-pixel; quantization happens only in
rendering and detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# a larger sensor is a config mistake: one float64 frame would take 128 MiB
MAX_PIXELS = 2**24
# most digits of a whole number read from text, after any leading zeros (no
# frame, port or v_b comes near); a frame's timestamp stays below 10**18 ms
MAX_DIGITS = 18


def require_ints(obj: object, *names: str) -> None:
    """Raise ``ValueError`` naming the first of the fields ``names`` of
    ``obj`` that is not an int: a float or bool is refused, not converted,
    so it reaches neither a slice, a PGM header nor the geometry."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise ValueError(f"{name}: must be an int, got {value!r}")


class TriangulationError(ValueError):
    """Depth denominator is non-positive: the disparity implies a reflection
    at or behind the camera, which only a corrupt detection can produce."""


@dataclass(frozen=True)
class RigConfig:
    """Physical and optical constants of the camera + laser rig.

    d       vertical camera-to-laser baseline, cm
    f       focal length in pixel units (physical focal length / pixel pitch)
    z_b     camera-to-back-wall depth, cm
    width   sensor columns
    height  sensor rows
    u0, v0  principal point; defaults to the frame center
    """

    d: float
    f: float
    z_b: float
    width: int
    height: int
    u0: float | None = None
    v0: float | None = None

    def __post_init__(self) -> None:
        require_ints(self, "width", "height")
        if self.u0 is None:
            object.__setattr__(self, "u0", self.width / 2.0)
        if self.v0 is None:
            object.__setattr__(self, "v0", self.height / 2.0)
        for name in ("d", "f", "z_b", "width", "height"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0")
        if self.width * self.height > MAX_PIXELS:
            raise ValueError(f"width: width * height must be <= {MAX_PIXELS}")
        if not 0 <= self.u0 < self.width:
            raise ValueError("u0: must lie in [0, width)")
        if not 0 <= self.v0 < self.height:
            raise ValueError("v0: must lie in [0, height)")
        if not 0 <= self.back_wall_row < self.height:
            raise ValueError(
                f"v0: back-wall line row {self.back_wall_row:.1f} "
                "(v0 + d*f/z_b) falls outside the frame"
            )

    @property
    def back_wall_row(self) -> float:
        """Sub-pixel row where the unobstructed wall line images."""
        return self.v0 + self.d * self.f / self.z_b


@dataclass(frozen=True)
class WorldPosition:
    """Floor-plane position: lateral x and depth z, both cm."""

    x: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.z)):
            raise ValueError("position must be finite")
        if not self.z > 0:
            raise ValueError("z: must be > 0")


def triangulate(rig: RigConfig, u: float, v: float, v_b: float) -> WorldPosition:
    """Floor position of the raw image point ``(u, v)``, the reflection
    seen against the wall row ``v_b``, by triangle similarity:

        z = d * f * z_b / (d * f + z_b * (v - v_b))
        x = (u - u0) * z / f

    The algebraic inverse of :func:`project` when ``v_b`` is
    ``rig.back_wall_row``. Zero disparity returns ``z_b`` exactly. A
    non-positive denominator has no physical reading and raises
    :class:`TriangulationError`.
    """
    if v == v_b:
        z = rig.z_b
    else:
        denom = rig.d * rig.f + rig.z_b * (v - v_b)
        if denom <= 0:
            raise TriangulationError(
                f"non-positive depth denominator {denom:.6g} "
                f"(disparity {v - v_b:.3f} px): reflection behind camera"
            )
        z = rig.d * rig.f * rig.z_b / denom
    return WorldPosition(x=(u - rig.u0) * z / rig.f, z=z)


def project(rig: RigConfig, pos: WorldPosition) -> tuple[float, float]:
    """Image a floor position through the pinhole model as a sub-pixel
    ``(u, v)`` pair, which may fall outside the sensor.

    ``u = u0 + f*x/z`` and ``v = v0 + d*f/z``; :func:`triangulate` inverts
    it.
    """
    if pos.z > rig.z_b:
        raise ValueError(f"z={pos.z:.3f} lies behind the back wall (z_b={rig.z_b:.3f})")
    u = rig.u0 + rig.f * pos.x / pos.z
    v = rig.v0 + rig.d * rig.f / pos.z
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("image point must be finite")
    return u, v


def depth_resolution(rig: RigConfig, z: float) -> float:
    """Depth change per one-pixel change of the reflection row at depth z.

    |dz/dv| = z^2 / (d*f); grows quadratically with depth, which is what
    limits far-field accuracy. Used to size round-trip tolerances.
    """
    if not 0 < z <= rig.z_b:
        raise ValueError("z: must lie in (0, z_b]")
    return z * z / (rig.d * rig.f)
