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
                "rig unusable: back-wall line row "
                f"{self.back_wall_row:.1f} falls outside the frame"
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


@dataclass(frozen=True)
class ImagePoint:
    """Sub-pixel image coordinates; may fall outside the sensor."""

    u: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("image point must be finite")


def triangulate_depth(rig: RigConfig, v_f: float, v_b: float) -> float:
    """Depth from vertical disparity by triangle similarity:

        z = d * f * z_b / (d * f + z_b * (v_f - v_b))

    Zero disparity returns ``z_b`` exactly. A non-positive denominator has
    no physical reading and raises :class:`TriangulationError`.
    """
    if v_f == v_b:
        return rig.z_b
    denom = rig.d * rig.f + rig.z_b * (v_f - v_b)
    if denom <= 0:
        raise TriangulationError(
            f"non-positive depth denominator {denom:.6g} "
            f"(disparity {v_f - v_b:.3f} px): reflection behind camera"
        )
    return rig.d * rig.f * rig.z_b / denom


def triangulate_lateral(rig: RigConfig, u_f: float, z_f: float) -> float:
    """Lateral offset from the principal column scaled out to depth ``z_f``.

    ``u_f`` is the column offset from ``u0`` (raw column minus ``u0``).
    """
    if not z_f > 0:
        raise ValueError("z_f: must be > 0")
    return u_f * z_f / rig.f


def project(rig: RigConfig, pos: WorldPosition) -> ImagePoint:
    """Image a floor position through the pinhole model.

    Algebraic inverse of the two triangulation equations:
    ``u = u0 + f*x/z`` and ``v = v0 + d*f/z``.
    """
    if not pos.z > 0:
        raise ValueError("z: must be > 0")
    if pos.z > rig.z_b:
        raise ValueError(f"z={pos.z:.3f} lies behind the back wall (z_b={rig.z_b:.3f})")
    return ImagePoint(
        u=rig.u0 + rig.f * pos.x / pos.z,
        v=rig.v0 + rig.d * rig.f / pos.z,
    )


def depth_resolution(rig: RigConfig, z: float) -> float:
    """Depth change per one-pixel change of the reflection row at depth z.

    |dz/dv| = z^2 / (d*f); grows quadratically with depth, which is what
    limits far-field accuracy. Used to size round-trip tolerances.
    """
    if not 0 < z <= rig.z_b:
        raise ValueError("z: must lie in (0, z_b]")
    return z * z / (rig.d * rig.f)
