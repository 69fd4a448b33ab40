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
from functools import lru_cache

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


@lru_cache(maxsize=8)
def _padded_limits(cal: Calibration, p: DetectParams) -> np.ndarray:
    """floor(2 * threshold) of every scan row, capped at 511, repeated once
    per pixel of a row padded to width + 2: a flat, read-only int16 array,
    the same for every frame of one (calibration, params)."""
    delta_v = np.arange(1, cal.height - 1 - cal.v_b)
    thresholds = np.clip(p.ath_base + p.ath_slope * delta_v, p.ath_min, p.ath_max)
    limits = np.fmin(np.floor(2.0 * thresholds), 511.0).astype(np.int16)
    limits = np.repeat(limits, cal.width + 2)
    limits.flags.writeable = False
    return limits


def _edge_mask(frame: Frame, cal: Calibration, p: DetectParams) -> np.ndarray:
    """Edge-test result for every scan row, as a bool array of shape
    (rows, width + 2) whose first and last columns are false padding.

    Row i is image row v_b + 1 + i. Pixels are whole numbers, so
    P - (P_up + P_down)/2 > thr holds iff the integer 2P - P_up - P_down
    exceeds floor(2 * thr). The limit is capped at 511, above any value
    the left side can take; a NaN threshold, which no pixel passes, caps
    there too.
    """
    lo, hi = cal.v_b + 1, frame.height - 1
    rows, stride = hi - lo, frame.width + 2
    # the band with a row above and below, in zero-padded rows: the one
    # strided copy; the rest works on flat views a padded row apart
    band = np.zeros((rows + 2, stride), np.int16)
    band[:, 1:-1] = frame.pixels[lo - 1:hi + 1]
    band = band.ravel()
    down = band[stride:] - band[:-stride]  # each pixel less the one above it
    # (P - P_up) - (P_down - P); a pad computes 0, which exceeds no limit:
    # every limit is >= 0
    twice = down[:rows * stride] - down[stride:]
    return np.greater(twice, _padded_limits(cal, p)).reshape(rows, stride)


def detect_feet(frame: Frame, cal: Calibration, p: DetectParams) -> Detection | None:
    """Find the feet reflection below the wall line, if any.

    Scans every row strictly between v_b and the last row, collects
    contiguous runs of edge-test pixels at least min_run long, and keeps
    the longest (ties: the lower row in the image, i.e. the larger v, then
    the leftmost start). Returns the run's intensity-weighted column
    centroid and its row, or None -- an empty room is a value, not an
    error.
    """
    if (cal.width, cal.height) != (frame.width, frame.height):
        raise ValueError(
            f"calibration is for {cal.width}x{cal.height} frames, "
            f"got {frame.width}x{frame.height}"
        )
    if p.min_run > frame.width:  # no run fits in a row; min_run may be huge
        return None
    # Erode the flattened mask: position i stays true iff all min_run pixels
    # from i are edges. A run of at least min_run keeps its start and loses
    # min_run - 1 pixels; a shorter one, most of the noise, vanishes. A window
    # across a row end holds false padding, and the shifts double, so this
    # takes O(log min_run) passes.
    eroded = _edge_mask(frame, cal, p).ravel()
    span = 1  # window length eroded so far
    while span < p.min_run:
        shift = min(span, p.min_run - span)
        eroded = eroded[:-shift] & eroded[shift:]
        span += shift
    # the eroded mask still begins and ends with padding, so its changes
    # alternate start, end; the band is empty when v_b = height - 2 and then
    # holds no run
    changes = (eroded[1:] != eroded[:-1]).nonzero()[0]
    starts = changes[0::2]
    if not starts.size:
        return None
    lengths = changes[1::2] - starts
    rows = starts // (frame.width + 2)
    # starts ascend, so the first maximum of this key is the longest run,
    # then the lowest in the image (larger v), then the leftmost start
    best = int(np.argmax(lengths * (frame.height + 1) + rows))
    length = int(lengths[best]) + p.min_run - 1
    row = int(rows[best])
    v = cal.v_b + 1 + row
    start = int(starts[best]) - row * (frame.width + 2)

    weights = frame.pixels[v, start:start + length]
    # a run pixel has P > (P_up + P_down)/2 + ath >= 0, so P >= 1 and mass >= run_len.
    # The sums are exact integers (a rig has at most 2**24 pixels and at least
    # 3 rows, so the moment stays below 255 * width**2 / 2 < 2**53), and the
    # one division rounds the centroid once.
    mass = int(weights.sum())
    moment = int(np.dot(np.arange(start, start + length), weights))
    return Detection(u_f=moment / mass, v_f=v, run_len=length, mass=float(mass))
