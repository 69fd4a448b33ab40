"""Frame-to-position orchestration, smoothing, and accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .detect import Calibration, DetectParams, Detection, detect_feet
from .geometry import (RigConfig, TriangulationError, WorldPosition,
                       triangulate_depth, triangulate_lateral)
from .synth import Frame, SceneState


@dataclass(frozen=True)
class PositionEstimate:
    """Per-frame tracker output.

    ``pos`` is absent when nothing was detected *or* when the detection
    triangulated to an impossible depth; in the latter case the raw
    detection is kept for diagnostics.
    """

    frame_index: int
    timestamp_ms: int
    pos: WorldPosition | None = None
    detection: Detection | None = None


@dataclass(frozen=True)
class SmootherConfig:
    """Exponential position smoothing; a stand-in for proper filtering."""

    alpha: float = 1.0
    enabled: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha: must lie in (0, 1]")


@dataclass(frozen=True)
class Metrics:
    """Floor-plane accuracy summary.

    Error fields are NaN when no frame had both a truth position and an
    estimate.
    """

    rms_error: float
    max_error: float
    p95_error: float
    within_10cm_fraction: float
    detection_rate: float


def triangulate_detection(
    rig: RigConfig, cal: Calibration, det: Detection
) -> WorldPosition | None:
    """Detection -> floor position; None when the disparity is corrupt.

    A live tracker has to survive garbage detections, so the impossible
    -depth case is absorbed into "no position" rather than raised.
    """
    try:
        z = triangulate_depth(rig, det.v_f, cal.v_b)
    except TriangulationError:
        return None
    x = triangulate_lateral(rig, det.u_f - rig.u0, z)
    return WorldPosition(x=x, z=z)


def track_frame(
    frame: Frame, rig: RigConfig, cal: Calibration, p: DetectParams
) -> PositionEstimate:
    """Detect and triangulate a single frame."""
    if (frame.width, frame.height) != (rig.width, rig.height):
        raise ValueError(
            f"frame is {frame.width}x{frame.height}, rig expects "
            f"{rig.width}x{rig.height}"
        )
    det = detect_feet(frame, cal, p)
    pos = triangulate_detection(rig, cal, det) if det is not None else None
    return PositionEstimate(frame_index=frame.index, timestamp_ms=frame.timestamp_ms,
                            pos=pos, detection=det)


class _ExpSmoother:
    """First-order exponential smoothing with gap reset."""

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self._state: WorldPosition | None = None

    def update(self, pos: WorldPosition | None) -> WorldPosition | None:
        if pos is None:
            self._state = None  # don't drag stale positions across gaps
            return None
        if self._state is None:
            self._state = pos
        else:
            a = self.alpha
            self._state = WorldPosition(
                x=a * pos.x + (1 - a) * self._state.x,
                z=a * pos.z + (1 - a) * self._state.z,
            )
        return self._state


def track_stream(
    frames: Iterable[Frame],
    rig: RigConfig,
    cal: Calibration,
    p: DetectParams,
    smoother: SmootherConfig = SmootherConfig(),
    on_estimate: Callable[[PositionEstimate], None] | None = None,
) -> list[PositionEstimate]:
    """Track frames in timestamp order, one estimate per frame.

    ``frames`` may be any iterable; it is consumed lazily, one frame per
    estimate, so a generator such as :func:`sltrack.io.iter_pgm_dir` keeps
    only the current frame in memory. A frame whose timestamp precedes the
    previous one raises ``ValueError``.

    With smoothing enabled, present positions are exponentially smoothed
    (state resets across detection gaps) while the raw detection stays in
    the diagnostics field. ``on_estimate`` is called with each estimate as
    it is produced, e.g. to feed a live telemetry stream.
    """
    state = _ExpSmoother(smoother.alpha)
    estimates: list[PositionEstimate] = []
    last_ts: int | None = None
    for frame in frames:
        if last_ts is not None and frame.timestamp_ms < last_ts:
            raise ValueError(
                f"frame {frame.index}: timestamp {frame.timestamp_ms} ms "
                f"precedes previous {last_ts} ms"
            )
        last_ts = frame.timestamp_ms
        est = track_frame(frame, rig, cal, p)
        if smoother.enabled:
            est = replace(est, pos=state.update(est.pos))
        estimates.append(est)
        if on_estimate is not None:
            on_estimate(est)
    return estimates


def evaluate(
    estimates: Sequence[PositionEstimate],
    truth: Sequence[SceneState],
) -> Metrics:
    """Compare estimates to ground truth, paired by list position (the
    frame indices are not consulted).

    Euclidean floor-plane error over frames where both sides have a
    position; detection rate over frames where the truth has a user.
    """
    if len(estimates) != len(truth):
        raise ValueError(
            f"{len(estimates)} estimates vs {len(truth)} truth frames"
        )
    errors = []
    eligible = detected = 0
    for est, ref in zip(estimates, truth):
        if ref.user is None:
            continue
        eligible += 1
        if est.pos is None:
            continue
        detected += 1
        errors.append(math.hypot(est.pos.x - ref.user.x, est.pos.z - ref.user.z))

    if errors:
        err = np.asarray(errors)
        rms = float(np.sqrt(np.mean(err**2)))
        mx = float(err.max())
        p95 = float(np.percentile(err, 95))
        within = float(np.mean(err <= 10.0))
    else:
        rms = mx = p95 = within = math.nan

    return Metrics(
        rms_error=rms,
        max_error=mx,
        p95_error=p95,
        within_10cm_fraction=within,
        detection_rate=(detected / eligible) if eligible else 0.0,
    )
