"""Structured-light laser-line floor tracker.

A camera watches a horizontal laser line projected across a room; the
line's reflection off a user's feet images below the back-wall reference
line, and the vertical disparity triangulates the user's floor position.
This package bundles the synthetic rig simulator, the detector, the
tracking pipeline, file formats, and a UDP telemetry stream.
"""

from .detect import (Calibration, CalibrationError, DetectParams, Detection,
                     ath, calibrate, detect_feet, edge_test)
from .geometry import (ImagePoint, RigConfig, TriangulationError,
                       WorldPosition, depth_resolution, project,
                       triangulate_depth, triangulate_lateral)
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
    "Detection", "Frame", "ImagePoint", "IntensityModel", "Metrics",
    "NoiseParams", "PgmError", "PositionEstimate", "PositionStreamer",
    "RigConfig", "RunConfig", "SceneState", "SmootherConfig", "StreamPacket",
    "TrajectorySpec", "TriangulationError", "WorldPosition", "ath",
    "calibrate", "decode", "depth_resolution", "detect_feet", "edge_test",
    "encode", "evaluate", "intensity_at", "load_config", "project",
    "read_estimates_csv", "read_pgm", "read_truth_csv", "render",
    "render_trajectory", "resolve_endpoint", "track_frame",
    "track_stream", "triangulate_depth", "triangulate_detection",
    "triangulate_lateral", "write_estimates_csv", "write_pgm",
    "write_truth_csv",
]
