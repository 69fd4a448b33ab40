"""Back-wall calibration and foot-reflection detection.

The detector works on raw frames in three steps: a one-off calibration
finds the wall line's reference row, every later frame is scanned below
that row with a vertical-neighborhood edge test whose threshold grows
with expected closeness (closer reflections are brighter), and the foot
position is read off as the center of mass of the best contiguous run of
edge pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import Frame


class CalibrationError(RuntimeError):
    """No usable wall line in the calibration frame."""


@dataclass(frozen=True)
class Calibration:
    """Reference row of the unobstructed wall line, frozen at startup.

    Valid only while the rig does not move, and only for frames of the
    dimensions it was captured at.
    """

    v_b: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if not 0 < self.v_b < self.height - 1:
            raise ValueError("v_b: must leave room for row neighbors above and below")


@dataclass(frozen=True)
class DetectParams:
    """Edge-test threshold schedule and run acceptance.

    The threshold is affine in the distance below the wall row,
    clamp(ath_base + ath_slope * (v - v_b), ath_min, ath_max): rows that
    would hold closer (brighter) reflections demand a stronger edge.
    """

    ath_base: float = 10.0
    ath_slope: float = 0.5
    ath_min: float = 1.0
    ath_max: float = 255.0
    min_run: int = 3

    def __post_init__(self) -> None:
        if not self.ath_min <= self.ath_base <= self.ath_max:
            raise ValueError("require ath_min <= ath_base <= ath_max")
        if self.ath_min < 0:
            raise ValueError("ath_min: must be >= 0")
        if self.ath_slope < 0:
            raise ValueError("ath_slope: must be >= 0")
        if self.min_run < 1:
            raise ValueError("min_run: must be >= 1")


@dataclass(frozen=True)
class Detection:
    """Image-plane localization of the feet reflection."""

    u_f: float  # intensity-weighted centroid column (raw, not offset by u0)
    v_f: int    # row of the selected run
    run_len: int
    mass: float  # summed gray-levels over the run


def calibrate(frame: Frame) -> Calibration:
    """Locate the wall line row in an empty-scene frame.

    Picks the row with the largest summed intensity (ties toward the
    smaller row index). Fails when no row stands out: the max row-sum must
    exceed the mean row-sum by more than 3 sigma * width, with sigma the
    pixel std-dev of the whole frame, and the winning row must leave room
    for the edge test's vertical neighbors.
    """
    px = frame.pixels.astype(np.float64)
    sums = px.sum(axis=1)
    v_b = int(np.argmax(sums))
    sigma = float(px.std())
    if sums[v_b] - sums.mean() <= 3.0 * sigma * frame.width:
        raise CalibrationError("no wall line: brightest row within noise of the mean")
    if not 0 < v_b < frame.height - 1:
        raise CalibrationError(f"wall line at border row {v_b} leaves no scan domain")
    return Calibration(v_b=v_b, width=frame.width, height=frame.height)


def ath(delta_v: float, p: DetectParams) -> float:
    """Adaptive threshold for a row delta_v pixels below the wall line."""
    if delta_v < 0:
        raise ValueError("delta_v: must be >= 0")
    return min(max(p.ath_base + p.ath_slope * delta_v, p.ath_min), p.ath_max)


def edge_test(frame: Frame, u: int, v: int, cal: Calibration, p: DetectParams) -> bool:
    """Horizontal-edge test at one pixel.

    True iff P(u,v) - (P(u,v+1) + P(u,v-1))/2 exceeds the adaptive
    threshold strictly; an exactly-zero margin is not an edge. Only
    defined below the wall row with both vertical neighbors in frame.
    """
    if not cal.v_b < v < frame.height - 1:
        raise ValueError(f"v={v} outside scan domain ({cal.v_b}, {frame.height - 1})")
    if not 0 <= u < frame.width:
        raise ValueError(f"u={u} outside frame")
    px = frame.pixels
    response = (
        float(px[v, u])
        - (float(px[v + 1, u]) + float(px[v - 1, u])) / 2.0
        - ath(v - cal.v_b, p)
    )
    return response > 0.0


def _row_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end) runs of True in a 1-D bool mask, left to right."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[0::2], edges[1::2]))


def detect_feet(frame: Frame, cal: Calibration, p: DetectParams) -> Detection | None:
    """Find the feet reflection below the wall line, if any.

    Scans every row strictly between v_b and the last row, collects
    contiguous runs of edge-test pixels at least min_run long, and keeps
    the longest (ties: the lower row, then the leftmost start). Returns
    the run's intensity-weighted column centroid and its row, or None --
    an empty room is a value, not an error.
    """
    if (cal.width, cal.height) != (frame.width, frame.height):
        raise ValueError(
            f"calibration is for {cal.width}x{cal.height} frames, "
            f"got {frame.width}x{frame.height}"
        )
    lo, hi = cal.v_b + 1, frame.height - 1  # scan rows [lo, hi)
    if lo >= hi:
        return None

    px = frame.pixels.astype(np.float64)
    rows = np.arange(lo, hi)
    thresholds = np.clip(p.ath_base + p.ath_slope * (rows - cal.v_b),
                         p.ath_min, p.ath_max)
    response = px[lo:hi] - (px[lo - 1:hi - 1] + px[lo + 1:hi + 1]) / 2.0
    mask = response - thresholds[:, None] > 0.0

    best: tuple[int, int, int] | None = None  # (run_len, v, start)
    for i, v in enumerate(rows):
        for start, end in _row_runs(mask[i]):
            length = int(end - start)
            if length < p.min_run:
                continue
            if best is None or length > best[0] or (length == best[0] and v > best[1]):
                best = (length, int(v), int(start))

    if best is None:
        return None
    length, v, start = best
    cols = np.arange(start, start + length)
    weights = px[v, cols]
    mass = float(weights.sum())
    if mass > 0:
        u_f = float((cols * weights).sum() / mass)
    else:
        u_f = float(cols.mean())  # degenerate all-zero run; keep the midpoint
    return Detection(u_f=u_f, v_f=v, run_len=length, mass=mass)
