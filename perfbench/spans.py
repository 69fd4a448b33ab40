"""Span tracing from outside the program.

A traced run replaces the module attributes that sltrack's callers resolve
at call time (``sltrack.pipeline.detect_feet``, ``sltrack.io.read_pgm``,
``sltrack.cli.track_stream``, ...) with wrappers that record one span per
call: name, start_ns, end_ns, parent span and frame index. Spans and
counts stay in memory and are written out when the run ends. All traced
calls happen on the benchmark's one load thread, so a plain stack gives
each span its parent.
"""

from __future__ import annotations

import collections
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import sltrack.cli
import sltrack.io
import sltrack.pipeline
import sltrack.stream

NO_FRAME = -1


def _frame_arg(a: tuple, k: dict) -> int:
    return a[0].index


def _after_detect(counts, a, k, result) -> None:
    counts["detect.detections"] += result is not None


def _after_triangulate(counts, a, k, result) -> None:
    counts["geometry.rejected"] += result is None


def _after_read(counts, a, k, result) -> None:
    if isinstance(a[0], (str, os.PathLike)):
        counts["io.bytes_read"] += os.path.getsize(a[0])


def _after_write(counts, a, k, result) -> None:
    if isinstance(a[1], (str, os.PathLike)):
        counts["io.bytes_written"] += os.path.getsize(a[1])


# (owner, attribute, span name, frame getter, counter hook)
TARGETS = [
    (sltrack.cli, "main", "cli.main", None, None),
    (sltrack.cli, "render", "synth.render",
     lambda a, k: k.get("index", NO_FRAME), None),
    (sltrack.cli, "calibrate", "detect.calibrate", None, None),
    (sltrack.cli, "track_stream", "pipeline.track_stream", None, None),
    (sltrack.cli, "evaluate", "pipeline.evaluate", None, None),
    (sltrack.io, "load_config", "io.load_config", None, None),
    (sltrack.io, "read_pgm", "io.read_pgm", None, _after_read),
    (sltrack.io, "write_pgm", "io.write_pgm", _frame_arg, _after_write),
    (sltrack.io, "write_truth_csv", "io.write_truth_csv", None, None),
    (sltrack.io, "write_estimates_csv", "io.write_estimates_csv", None, None),
    (sltrack.io, "read_estimates_csv", "io.read_estimates_csv", None, None),
    (sltrack.io, "read_truth_csv", "io.read_truth_csv", None, None),
    (sltrack.pipeline, "track_stream", "pipeline.track_stream", None, None),
    (sltrack.pipeline, "track_frame", "pipeline.track_frame", _frame_arg, None),
    (sltrack.pipeline, "detect_feet", "detect.detect_feet", _frame_arg,
     _after_detect),
    (sltrack.pipeline, "triangulate_detection",
     "geometry.triangulate_detection", None, _after_triangulate),
    (sltrack.stream.PositionStreamer, "submit", "stream.submit",
     lambda a, k: a[1].frame_index, None),
]


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, frame]
        self.spans: list[list[Any]] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self._open: list[int] = []

    def _begin(self, name: str, frame: int | None) -> int:
        parent = self._open[-1] if self._open else -1
        if frame is None:
            frame = self.spans[parent][4] if parent >= 0 else NO_FRAME
        idx = len(self.spans)
        self.spans.append([name, 0, 0, parent, frame])
        self._open.append(idx)
        return idx

    def _end(self, idx: int, start: int, end: int) -> None:
        self._open.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def record(self, name: str, start: int, end: int, frame: int) -> None:
        """Add a finished span under the currently open one."""
        idx = self._begin(name, frame)
        self._end(idx, start, end)

    def wrap(self, name: str, fn: Callable, frame_of=None, after=None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._begin(name, frame_of(args, kwargs) if frame_of else None)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx, start, time.perf_counter_ns())
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, frame_of, after in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, frame_of, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "frame")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def durations(self) -> tuple[dict[str, list[int]], dict[str, list[int]], int]:
        """Per-name total and self durations (ns), plus the time layer spans
        cover: the summed length of the spans directly under a root. A root
        is a span without a parent, such as a whole ``cli.main`` command;
        its own time is not attributed to any layer."""
        total: dict[str, list[int]] = collections.defaultdict(list)
        child_ns = [0] * len(self.spans)
        covered = 0
        for name, start, end, parent, _ in self.spans:
            total[name].append(end - start)
            if parent >= 0:
                child_ns[parent] += end - start
                if self.spans[parent][3] < 0:
                    covered += end - start
        own: dict[str, list[int]] = collections.defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name].append(end - start - child_ns[i])
        return total, own, covered


def pct(values, q: float, scale: float = 1.0) -> float:
    """q-th percentile of ``values`` times ``scale``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * scale


def layer_metrics(tracer: Tracer, traced_wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced window."""
    total, own, covered = tracer.durations()
    c = tracer.counts
    us, ms = 1e-3, 1e-6
    calls = len(total["detect.detect_feet"])
    return {
        "detect.detect_feet.p50_us": pct(total["detect.detect_feet"], 50, us),
        "detect.detect_feet.p99_us": pct(total["detect.detect_feet"], 99, us),
        "detect.detect_feet.calls": calls,
        "detect.detections_per_call": c["detect.detections"] / calls if calls else 0.0,
        "synth.render.p50_us": pct(total["synth.render"], 50, us),
        "synth.render.p99_us": pct(total["synth.render"], 99, us),
        "io.read_pgm.p50_us": pct(total["io.read_pgm"], 50, us),
        "io.bytes_read": c["io.bytes_read"],
        "io.write_pgm.p50_us": pct(total["io.write_pgm"], 50, us),
        "io.bytes_written": c["io.bytes_written"],
        "io.write_truth_csv.ms": pct(total["io.write_truth_csv"], 50, ms),
        "io.write_estimates_csv.ms": pct(total["io.write_estimates_csv"], 50, ms),
        "geometry.triangulate_detection.p50_us":
            pct(total["geometry.triangulate_detection"], 50, us),
        "geometry.rejected": c["geometry.rejected"],
        "pipeline.track_frame.self_p50_us": pct(own["pipeline.track_frame"], 50, us),
        "pipeline.evaluate.ms": pct(total["pipeline.evaluate"], 50, ms),
        "pipeline.track_stream.self_ms": pct(own["pipeline.track_stream"], 50, ms),
        "stream.submit.p50_us": pct(total["stream.submit"], 50, us),
        "stream.submit.p99_us": pct(total["stream.submit"], 99, us),
        "trace.unattributed_pct":
            100.0 * (traced_wall_ns - covered) / traced_wall_ns if traced_wall_ns else 0.0,
    }
