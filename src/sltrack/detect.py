"""Back-wall calibration and foot-reflection detection.

The detector works on raw frames in three steps: a one-off calibration
finds the wall line's reference row, every later frame is scanned below
that row with a vertical-neighborhood edge test whose threshold grows
with expected closeness (closer reflections are brighter), and the foot
position is read off as the center of mass of the best contiguous run of
edge pixels.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import require_ints
from .synth import Frame


class CalibrationError(ValueError):
    """No usable wall line in the calibration frame, or one out of range."""


@dataclass(frozen=True)
class Calibration:
    """Reference row of the unobstructed wall line, frozen at startup.

    Valid only while the rig does not move, and only for frames of the
    dimensions it was captured at. ``1 <= v_b <= height - 3`` leaves a row
    above the wall row and at least one scan row, with its own row below.
    """

    v_b: int
    width: int
    height: int

    def __post_init__(self) -> None:
        require_ints(self, "v_b", "width", "height")
        if not 1 <= self.v_b <= self.height - 3:
            raise CalibrationError(f"v_b: wall row {self.v_b} must lie in "
                                   f"[1, {self.height - 3}], with a row above it "
                                   f"and a row to scan below it")


@dataclass(frozen=True)
class DetectParams:
    """Edge-test threshold schedule and run acceptance.

    The threshold is affine in the distance below the wall row, capped,
    min(ath_base + ath_slope * (v - v_b), ath_max): rows that would hold
    closer (brighter) reflections demand a stronger edge. ``ath_max`` is at
    most 255: no 8-bit edge response exceeds it, so no pixel passes a
    threshold of 255, and a larger one would change nothing. ``ath_min`` is an
    optional floor that is checked but never binds: it lies at or below
    ``ath_base`` and the slope is not negative. The default ``min_run`` is
    the reference config's 10: a foot on the reference rig images 29-67 px
    long, and the runs that background noise leaves in an empty room are
    shorter.
    """

    ath_base: float = 10.0
    ath_slope: float = 0.5
    ath_min: float | None = None
    ath_max: float = 255.0
    min_run: int = 10

    def __post_init__(self) -> None:
        if not self.ath_max <= 255:
            raise ValueError("ath_max: must be <= 255")
        if not 0 <= self.ath_base <= self.ath_max:
            raise ValueError("ath_base: must lie in [0, ath_max]")
        if self.ath_min is not None and not 0 <= self.ath_min <= self.ath_base:
            raise ValueError("ath_min: must lie in [0, ath_base]")
        if not self.ath_slope >= 0:  # NaN too
            raise ValueError("ath_slope: must be >= 0")
        require_ints(self, "min_run")
        if self.min_run < 1:
            raise ValueError("min_run: must be >= 1")


def calibrate(frame: Frame) -> Calibration:
    """Locate the wall line row in an empty-scene frame.

    Picks the row with the largest summed intensity (ties toward the
    smaller row index). Fails when no row stands out: the max row-sum must
    exceed the mean row-sum by more than 3 sigma * width, with sigma the
    pixel std-dev of the whole frame. Fails when the row is lit across less
    than half its width (pixels above the frame's mean + 3 sigma), as a foot
    near the camera is, which can outshine the wall line. ``Calibration``
    refuses a winning row outside its range. The frame must be whole: one read
    from a row ``top > 0`` raises ``ValueError``.
    """
    if frame.top:
        raise ValueError(f"calibrate needs a whole frame, got rows {frame.top}.. only")
    px = frame.pixels  # uint8: the sums are exact, the mean and std float64
    sums = px.sum(axis=1)
    v_b = int(np.argmax(sums))
    sigma = float(px.std())
    if sums[v_b] - sums.mean() <= 3.0 * sigma * frame.width:
        raise CalibrationError("no wall line: brightest row within noise of the mean")
    coverage = np.count_nonzero(px[v_b] > px.mean() + 3.0 * sigma) / frame.width
    if coverage < 0.5:
        raise CalibrationError(
            f"no wall line: brightest row {v_b} is lit across {coverage:.3f} of "
            f"its width, want at least 0.5 (is the scene empty?)")
    return Calibration(v_b=v_b, width=frame.width, height=frame.height)


class _Workspace:
    """Every scratch array ``detect_feet`` needs for frames of one
    (calibration, params), allocated once, and the flat views over them.

    The band holds the scan rows and one row above and below them, in rows
    padded to width + 2 by a zero column on each side; a frame writes only
    the interior, so the pads stay zero. ``limits`` is floor(2 * threshold)
    of every scan row, at most 510, repeated once per padded pixel. The
    erosion passes and the run ends take turns writing two bool buffers,
    the first of which is ``mask``.
    """

    def __init__(self, cal: Calibration, p: DetectParams) -> None:
        self.key = (cal, p)
        rows, stride = cal.height - 2 - cal.v_b, cal.width + 2
        size = rows * stride
        self.first_row, self.stride = cal.v_b + 1, stride
        band = np.zeros((rows + 2, stride), np.int16)
        self.interior = band[:, 1:-1]
        band = band.ravel()
        self.above, self.below = band[:-stride], band[stride:]
        self.down = np.empty((rows + 1) * stride, np.int16)
        self.down_here, self.down_next = self.down[:size], self.down[stride:]
        self.twice = np.empty(size, np.int16)
        delta_v = np.arange(1, rows + 1)
        thresholds = np.minimum(p.ath_base + p.ath_slope * delta_v, p.ath_max)
        self.limits = np.repeat(np.floor(2.0 * thresholds).astype(np.int16), stride)
        self.mask = np.empty((rows, stride), bool)
        self.mask_flat = self.mask.ravel()
        buffers = (self.mask_flat, np.empty(size, bool))
        # (left, right, out) of each erosion pass; a shift past the band
        # (min_run up to 2**63 - 1) gives empty views
        self.erosion = []
        eroded, span = buffers[0], 1
        while span < p.min_run:
            shift = min(span, p.min_run - span)
            out = buffers[(len(self.erosion) + 1) % 2][:max(eroded.size - shift, 0)]
            self.erosion.append((eroded[:-shift], eroded[shift:], out))
            eroded, span = out, span + shift
        # (after, before, out) of the run ends of the eroded mask
        out = buffers[(len(self.erosion) + 1) % 2][:max(eroded.size - 1, 0)]
        self.ends = (eroded[1:], eroded[:-1], out)


_local = threading.local()


def _workspace(cal: Calibration, p: DetectParams) -> _Workspace:
    """This thread's workspace, rebuilt when (cal, p) changes: one per
    thread, so memory stays bounded by one frame's scratch."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.key != (cal, p):
        ws = _local.workspace = _Workspace(cal, p)
    return ws


def _edge_mask(frame: Frame, ws: _Workspace) -> np.ndarray:
    """Edge-test result for every scan row, as a bool array of shape
    (rows, width + 2) whose first and last columns are false padding. It is
    a view into the thread's workspace ``ws``: it stays valid until the
    thread's next frame.

    Row i is image row v_b + 1 + i. Pixels are whole numbers, so
    P - (P_up + P_down)/2 > thr holds iff the integer 2P - P_up - P_down
    exceeds floor(2 * thr).
    """
    # the one strided copy; the rest works on flat views a padded row apart
    np.copyto(ws.interior, frame.pixels[ws.first_row - 1 - frame.top:])
    np.subtract(ws.below, ws.above, out=ws.down)  # each pixel less the one above
    # (P - P_up) - (P_down - P); a pad computes 0, which exceeds no limit:
    # every limit is >= 0
    np.subtract(ws.down_here, ws.down_next, out=ws.twice)
    np.greater(ws.twice, ws.limits, out=ws.mask_flat)
    return ws.mask


def detect_feet(frame: Frame, cal: Calibration,
                p: DetectParams) -> tuple[float, int] | None:
    """Find the feet reflection below the wall line, if any.

    Scans every row strictly between v_b and the last row, collects
    contiguous runs of edge-test pixels at least min_run long, and keeps
    the longest (ties: the lower row in the image, i.e. the larger v, then
    the leftmost start). Returns the run's image point ``(u_f, v_f)``: its
    intensity-weighted column centroid (a raw column, not offset by u0) and
    its row; or None -- an empty room is a value, not an error. A chosen
    run that touches column 0 or ``width - 1`` also gives None, and no
    shorter run is tried: the frame edge may cut it short. The edge
    test reads only rows v_b..height-1, so the frame may start at any
    ``top`` up to v_b; one starting below v_b raises ``ValueError``.
    """
    if (cal.width, cal.height) != (frame.width, frame.height):
        raise ValueError(
            f"calibration is for {cal.width}x{cal.height} frames, "
            f"got {frame.width}x{frame.height}"
        )
    if frame.top > cal.v_b:
        raise ValueError(f"frame {frame.index} starts at row {frame.top}, "
                         f"below the wall row {cal.v_b} the edge test reads")
    ws = _workspace(cal, p)
    _edge_mask(frame, ws)
    # Erode the flattened mask: position i stays true iff all min_run pixels
    # from i are edges. A run of at least min_run keeps its start and loses
    # min_run - 1 pixels; a shorter one, most of the noise, vanishes. A window
    # across a row end holds false padding, so a min_run past the width leaves
    # nothing, and the shifts double, so this takes O(log min_run) passes.
    for left, right, out in ws.erosion:
        np.logical_and(left, right, out=out)
    # the eroded mask still begins and ends with padding, so its changes
    # alternate start, end
    after, before, out = ws.ends
    ends = np.not_equal(after, before, out=out).nonzero()[0].tolist()
    if not ends:
        return None
    # The pick and the centroid run in Python: a numpy call on a few elements
    # costs ~5 us on a cold frame, and every frame of a 20 Hz rig is cold.
    # Starts ascend, so the first maximum of the key is the longest run, then
    # the lower row, then the leftmost start.
    best, stride = -1, ws.stride
    for start, end in zip(ends[0::2], ends[1::2]):
        key = (end - start) * (frame.height + 1) + start // stride
        if key > best:
            best, first, last = key, start, end
    length = last - first + p.min_run - 1
    row, start = divmod(first, stride)
    if start == 0 or start + length == frame.width:
        return None
    v = ws.first_row + row
    weights = frame.pixels[v - frame.top, start:start + length].tolist()
    # a run pixel has P > (P_up + P_down)/2 + thr >= 0, so P >= 1 and mass >= length.
    # The sums are exact Python ints at any rig size, and the one division
    # rounds the centroid once.
    mass = sum(weights)
    moment = sum(map(operator.mul, weights, range(start, start + length)))
    return moment / mass, v
