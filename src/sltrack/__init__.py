"""Structured-light laser-line floor tracker.

A camera watches a horizontal laser line projected across a room; the
line's reflection off a user's feet images below the back-wall reference
line, and the vertical disparity triangulates the user's floor position.
This package bundles the synthetic rig simulator, the detector, the
tracking pipeline, file formats, and a UDP telemetry stream.
"""

import os as _os
import sys as _sys

# OpenBLAS starts a pool of worker threads when numpy loads it, ~60 ms of a
# fresh process on a 2-core host, and reads its thread count only then. No
# BLAS call in sltrack can use a thread (the one left is np.linalg.norm of
# a 2-vector in synth._stroll), so where no variable sets the count, numpy
# is loaded with one thread. os.environ, and so every child process, is
# left as it was.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                 "OPENBLAS_DEFAULT_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREADS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .detect import (Calibration, CalibrationError, DetectParams, Detection,
                     calibrate, detect_feet)
from .geometry import (RigConfig, TriangulationError, WorldPosition,
                       depth_resolution, project, triangulate)
from .io import (ConfigError, PgmError, RunConfig, load_config,
                 read_estimates_csv, read_pgm, read_truth_csv,
                 write_estimates_csv, write_pgm, write_truth_csv)
from .pipeline import (Metrics, PositionEstimate, SmootherConfig, evaluate,
                       track_frame, track_stream, triangulate_detection)
from .stream import (PositionStreamer, StreamPacket, decode, encode,
                     resolve_endpoint)
from .synth import (Frame, IntensityModel, NoiseParams, SceneState,
                    TrajectorySpec, intensity_at, render, render_trajectory)

__version__ = "0.1.0"

__all__ = [
    "Calibration", "CalibrationError", "ConfigError", "DetectParams",
    "Detection", "Frame", "IntensityModel", "Metrics",
    "NoiseParams", "PgmError", "PositionEstimate", "PositionStreamer",
    "RigConfig", "RunConfig", "SceneState", "SmootherConfig", "StreamPacket",
    "TrajectorySpec", "TriangulationError", "WorldPosition",
    "calibrate", "decode", "depth_resolution", "detect_feet",
    "encode", "evaluate", "intensity_at", "load_config", "project",
    "read_estimates_csv", "read_pgm", "read_truth_csv", "render",
    "render_trajectory", "resolve_endpoint", "track_frame",
    "track_stream", "triangulate", "triangulate_detection",
    "write_estimates_csv", "write_pgm", "write_truth_csv",
]
