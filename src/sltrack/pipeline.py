"""Frame-to-position orchestration, smoothing, and accuracy metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .detect import Calibration, DetectParams, detect_feet
from .geometry import (RigConfig, TriangulationError, WorldPosition,
                       triangulate)
from .synth import Frame, SceneState


@dataclass(frozen=True)
class PositionEstimate:
    """Per-frame tracker output.

    An estimate from :func:`track_frame` or :func:`track_stream` has a
    ``pos`` exactly when it has a ``detection``: every row
    :func:`~sltrack.detect.detect_feet` returns lies at least one row below
    the wall row, so its depth denominator is at least ``d*f + z_b > 0`` and
    triangulation never rejects it. ``detection`` is the chosen run's
    ``(u_f, v_f)`` image point.
    """

    frame_index: int
    timestamp_ms: int
    pos: WorldPosition | None = None
    detection: tuple[float, int] | None = None


@dataclass(frozen=True)
class SmootherConfig:
    """Exponential position smoothing; a stand-in for proper filtering.
    ``enabled`` defaults to ``alpha < 1``: alpha 1 keeps every position."""

    alpha: float = 1.0
    enabled: bool | None = None

    def __post_init__(self) -> None:
        if self.enabled is None:
            object.__setattr__(self, "enabled", self.alpha < 1)
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha: must lie in (0, 1]")


@dataclass(frozen=True)
class Metrics:
    """Floor-plane accuracy summary.

    Error fields are NaN when no frame had both a truth position and an
    estimate. ``detection_rate`` is over the frames whose truth has a user,
    ``phantom_rate`` over those whose truth has none; each is NaN when
    there is no such frame.
    """

    rms_error: float
    max_error: float
    p95_error: float
    within_10cm_fraction: float
    detection_rate: float
    phantom_rate: float


def triangulate_detection(
    rig: RigConfig, cal: Calibration, det: tuple[float, int]
) -> WorldPosition | None:
    """A detected ``(u_f, v_f)`` image point -> floor position against the
    calibrated wall row.

    None only for a caller-built point at or above row
    ``v_b - d*f/z_b``, where the depth denominator is not positive: the
    impossible-depth case is absorbed into "no position" rather than
    raised. :func:`~sltrack.detect.detect_feet` returns no such row.
    """
    try:
        return triangulate(rig, *det, cal.v_b)
    except TriangulationError:
        return None


def track_frame(
    frame: Frame, rig: RigConfig, cal: Calibration, p: DetectParams
) -> PositionEstimate:
    """Detect and triangulate a single frame."""
    if (frame.width, frame.height) != (rig.width, rig.height):
        raise ValueError(
            f"frame {frame.index} is {frame.width}x{frame.height}, rig expects "
            f"{rig.width}x{rig.height}"
        )
    det = detect_feet(frame, cal, p)
    pos = triangulate_detection(rig, cal, det) if det is not None else None
    return PositionEstimate(frame_index=frame.index, timestamp_ms=frame.timestamp_ms,
                            pos=pos, detection=det)


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
    a = smoother.alpha
    last: WorldPosition | None = None  # the previous estimate's position
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
        # a gap (no position) resets the state: no stale drag across it
        if smoother.enabled and est.pos is not None and last is not None:
            pos = WorldPosition(x=a * est.pos.x + (1 - a) * last.x,
                                z=a * est.pos.z + (1 - a) * last.z)
            est = PositionEstimate(est.frame_index, est.timestamp_ms, pos,
                                   est.detection)
        last = est.pos
        estimates.append(est)
        if on_estimate is not None:
            on_estimate(est)
    return estimates


def evaluate(
    estimates: Sequence[PositionEstimate],
    truth: Sequence[SceneState],
) -> Metrics:
    """Compare estimates to ground truth, paired by list position (the
    frame indices are not consulted; the CSV readers require each row's
    frame to be its position, so the pairs they give are by frame). Only
    each estimate's ``pos`` is read, so the rows of
    :func:`sltrack.io.read_estimates_csv` serve as estimates too.

    Euclidean floor-plane error over frames where both sides have a
    position; detection rate over frames where the truth has a user, NaN
    when no frame has one; phantom rate, the share of frames with no user
    in the truth that have a position, NaN when every frame has a user.
    """
    if len(estimates) != len(truth):
        raise ValueError(
            f"{len(estimates)} estimates vs {len(truth)} truth frames"
        )
    errors = []
    eligible = detected = empty = phantoms = 0
    for est, ref in zip(estimates, truth):
        if ref.user is None:
            empty += 1
            phantoms += est.pos is not None
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
        detection_rate=(detected / eligible) if eligible else math.nan,
        phantom_rate=(phantoms / empty) if empty else math.nan,
    )
