"""The three benchmark workloads: replay, simulate and live.

Each workload sets up its inputs (untimed), runs for the requested seconds
and checks every output. With tracing on, the first half of the time runs
untraced and the second half traced, so the two halves give the tracing
overhead. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import select
import socket
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import sltrack
import sltrack.cli
import sltrack.pipeline

import inputs
from spans import Tracer, layer_metrics, pct

# Reference tolerances of the accuracy acceptance check on a noisy stroll
# (tests/test_acceptance.py, criterion 3), plus a loose RMS ceiling.
MIN_DETECTION_RATE = 0.90
MIN_WITHIN_10CM = 0.95
MAX_RMS_CM = 5.0

# Closed-loop timings come from the fastest tenth of passes. On a shared
# host, spells of contention last seconds and slow whole passes, and their
# share of a run varied enough to move the median pass by 20% between runs;
# they never speed a pass up, so the fast passes measure the program.
FAST_PASS_PCT = 10

LIVE_DRAIN_TIMEOUT_S = 2.0
LIVE_SPIN_NS = 200_000  # busy-wait this close to a due time, for an exact release
SO_TIMESTAMPNS = 35     # Linux: kernel receive timestamp as a struct timespec


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    accuracy_ok: bool = True
    notes: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    def check_accuracy(self, rms: float, detection: float, within: float,
                       what: str) -> None:
        self.e2e["rms_error_cm"] = rms
        self.e2e["detection_rate"] = detection
        self.e2e["within_10cm_fraction"] = within
        if not (detection >= MIN_DETECTION_RATE and within >= MIN_WITHIN_10CM
                and rms <= MAX_RMS_CM):
            self.accuracy_ok = False
            self.notes.append(
                f"{what}: accuracy outside tolerance (rms {rms} cm, detection "
                f"{detection}, within 10 cm {within})")

    def check_metrics(self, m: sltrack.Metrics, what: str) -> None:
        self.check_accuracy(m.rms_error, m.detection_rate,
                            m.within_10cm_fraction, what)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return sltrack.cli.main(argv)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# --- closed loops -------------------------------------------------------------

class ClosedLoop:
    """Runs the same CLI commands back to back, each pass as soon as the
    previous one finished, and checks every pass (untimed).

    A workload sets ``commands`` (argv lists) and ``frames`` (per pass) and
    implements ``check``, which returns False to stop the loop.
    """

    commands: list[list[str]]
    frames: int
    digest: str | None = None

    def check(self, out: Outcome) -> bool:
        raise NotImplementedError

    def iterate(self, out: Outcome, seconds: float) -> list[int]:
        """Passes until ``seconds`` of command time have elapsed (at least
        one); returns each pass's wall time in ns."""
        walls: list[int] = []
        while not walls or sum(walls) < seconds * 1e9:
            out.attempted += self.frames
            try:
                start = time.perf_counter_ns()
                codes = [_cli(argv) for argv in self.commands]
                wall = time.perf_counter_ns() - start
            except Exception:  # noqa: BLE001 - a crash is a counted failure
                out.fail(self.frames, traceback.format_exc(limit=3))
                break
            if any(codes):
                out.fail(self.frames, f"exit codes {codes}")
                break
            walls.append(wall)
            if not self.check(out):
                break
        return walls

    def run(self, out: Outcome, seconds: float, trace: bool) -> None:
        self.iterate(out, 0.0)  # warm-up: page cache, lazy imports
        if out.failed:
            return
        if not trace:
            walls = self.iterate(out, seconds)
        else:
            walls = self.iterate(out, seconds / 2)
            out.tracer = Tracer()
            with out.tracer.patched():
                traced = self.iterate(out, seconds / 2)
            out.layer.update(layer_metrics(out.tracer, sum(traced)))
            out.layer["trace.overhead_pct"] = 100.0 * (
                pct(traced, FAST_PASS_PCT) / pct(walls, FAST_PASS_PCT) - 1.0)
        if not walls:
            return
        fast_ms = pct(walls, FAST_PASS_PCT, 1e-6)
        out.samples["passes"] = len(walls)
        out.samples["frames_per_pass"] = self.frames
        out.e2e["frames_per_s"] = self.frames * 1e3 / fast_ms
        out.e2e["latency_ms"] = fast_ms / self.frames
        out.e2e["delivery_ms"] = fast_ms
        out.layer["tail.latency_p99_ms"] = pct(walls, 99, 1e-6) / self.frames
        out.layer["tail.delivery_p99_ms"] = pct(walls, 99, 1e-6)

    def repeat_check(self, out: Outcome, digest: str, what: str) -> bool:
        """Outputs must hash the same on every pass."""
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            out.fail(self.frames, f"{what} differs between repeats")
            return False
        return True


class Replay(ClosedLoop):
    """``sltrack track`` then ``sltrack evaluate`` on the PGM clip of the
    lengthened stroll."""

    def __init__(self, work: Path, seed: int, frames: int | None) -> None:
        self.config = work / "replay.json"
        cfg = inputs.write_config("replay_stroll.json", seed, self.config, frames)
        self.empty = work / "empty.pgm"
        inputs.write_empty_frame(cfg, self.empty)
        cal = work / "cal.txt"
        inputs.write_calibration_file(cfg, cal)
        clip = work / "clip"
        self.frames = inputs.write_clip(cfg, clip)
        self.estimates, self.report = work / "estimates.csv", work / "metrics.json"
        self.commands = [
            ["track", "-c", str(self.config), "--calibration", str(cal), str(clip),
             "-o", str(self.estimates)],
            ["evaluate", str(self.estimates), str(clip / "truth.csv"),
             "--json", str(self.report)],
        ]

    def check(self, out: Outcome) -> bool:
        data = self.estimates.read_bytes()
        rows = data.count(b"\n") - 1
        if rows != self.frames:
            out.fail(abs(self.frames - rows),
                     f"{rows} estimate rows for {self.frames} frames")
            return False
        if not self.repeat_check(out, hashlib.sha256(data).hexdigest(),
                                 "estimates CSV"):
            return False
        r = json.loads(self.report.read_text(encoding="utf-8"))
        if r["frames"] != self.frames:
            out.fail(self.frames, f"evaluate saw {r['frames']} frames")
            return False
        out.check_accuracy(r["rms_error_cm"], r["detection_rate"],
                           r["within_10cm_fraction"], "replay")
        return out.accuracy_ok


class Simulate(ClosedLoop):
    """``sltrack simulate`` then ``sltrack calibrate`` from the stroll config."""

    def __init__(self, work: Path, seed: int, frames: int | None) -> None:
        self.config = work / "simulate.json"
        self.cfg = inputs.write_config("replay_stroll.json", seed, self.config, frames)
        self.frames = len(self.cfg.trajectory.materialize(self.cfg.rig))
        self.empty = work / "empty.pgm"
        inputs.write_empty_frame(self.cfg, self.empty)
        self.out_dir, self.cal = work / "sim", work / "sim_cal.txt"
        self.expected_v_b = round(self.cfg.rig.back_wall_row)
        self.commands = [
            ["simulate", "-c", str(self.config), "-o", str(self.out_dir)],
            ["calibrate", "-c", str(self.config), str(self.empty),
             "-o", str(self.cal)],
        ]

    def check(self, out: Outcome) -> bool:
        pgms = sorted(self.out_dir.glob("*.pgm"))
        if len(pgms) != self.frames:
            out.fail(abs(self.frames - len(pgms)),
                     f"{len(pgms)} PGMs for {self.frames} frames")
            return False
        v_b = self.cal.read_text(encoding="utf-8").strip()
        if v_b != f"v_b={self.expected_v_b}":
            out.fail(self.frames, f"calibrate wrote {v_b!r}, "
                     f"expected v_b={self.expected_v_b}")
            return False
        return self.repeat_check(out, _digest(pgms + [self.out_dir / "truth.csv"]),
                                 "simulated PGM or truth bytes")

    def run(self, out: Outcome, seconds: float, trace: bool) -> None:
        super().run(out, seconds, trace)
        if out.failed:
            return
        # Untimed: the simulated clip must still track to the reference
        # tolerances, which checks the frames' content, not just their bytes.
        frames = [sltrack.read_pgm(str(p)) for p in sorted(self.out_dir.glob("*.pgm"))]
        for i, f in enumerate(frames):
            f.index = i
        cal = sltrack.calibrate(sltrack.read_pgm(str(self.empty)))
        estimates = sltrack.track_stream(frames, self.cfg.rig, cal, self.cfg.detect)
        truth = sltrack.read_truth_csv(str(self.out_dir / "truth.csv"))
        out.check_metrics(sltrack.evaluate(estimates, truth), "simulate")


# --- open loop ----------------------------------------------------------------

def _clock_offset() -> int:
    """time_ns() - perf_counter_ns(), from the tightest of a few brackets."""
    best = None
    for _ in range(5):
        before = time.perf_counter_ns()
        wall = time.time_ns()
        after = time.perf_counter_ns()
        if best is None or after - before < best[0]:
            best = (after - before, wall - (before + after) // 2)
    return best[1]


class Sink:
    """The benchmark's loopback UDP receiver, drained without blocking."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        with contextlib.suppress(OSError):  # else stamp on drain
            self.sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
        self.offset = _clock_offset()
        self.received: dict[int, tuple[int, sltrack.StreamPacket]] = {}
        self.malformed = 0

    @property
    def address(self) -> tuple[str, int]:
        return self.sock.getsockname()

    def drain(self) -> None:
        while True:
            try:
                data, anc, _, _ = self.sock.recvmsg(256, socket.CMSG_SPACE(16))
            except BlockingIOError:
                return
            rx = time.perf_counter_ns()
            for level, kind, blob in anc:
                if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                    sec, nsec = struct.unpack("qq", blob[:16])
                    rx = sec * 1_000_000_000 + nsec - self.offset
            try:
                packet = sltrack.decode(data)
            except ValueError:
                self.malformed += 1
                continue
            self.received[packet.seq] = (rx, packet)

    def wait_until(self, due: int) -> int:
        """Drain arrivals until ``due`` (perf_counter ns); returns the
        release time."""
        now = time.perf_counter_ns()
        while due - now > LIVE_SPIN_NS:
            ready, _, _ = select.select([self.sock], [], [],
                                        (due - now - LIVE_SPIN_NS) / 1e9)
            if ready:
                self.drain()
            now = time.perf_counter_ns()
        while now < due:
            now = time.perf_counter_ns()
        return now

    def close(self) -> None:
        self.sock.close()


@dataclass
class Segment:
    """Per-frame timestamps (perf_counter ns) of one scheduled pass."""

    due: list[int]
    release: list[int]
    resume: list[int]
    received: list[int | None]
    streamer: sltrack.PositionStreamer
    wall_ns: int = 0  # track_stream call to return

    def busy_ns(self) -> list[int]:
        """Per frame, from release to ``submit`` returning."""
        return [r - s for r, s in zip(self.resume, self.release)]


class Live:
    """Open loop: in-memory circle frames released at the config's rate
    (200 Hz) through ``track_stream`` with smoothing, each estimate
    streamed over SLT1 to the benchmark's own sink."""

    def __init__(self, work: Path, seed: int, seconds: float) -> None:
        cfg_path = work / "live.json"
        cfg = inputs.write_config("live_circle.json", seed, cfg_path)
        rate = cfg.trajectory.rate_hz
        self.cfg, self.config, self.empty = cfg, cfg_path, work / "empty.pgm"
        inputs.write_empty_frame(cfg, self.empty)
        self.cal = sltrack.calibrate(inputs.empty_frame(cfg))
        count = max(2, round(seconds * rate))
        self.frames, self.truth = inputs.live_frames(cfg, count)
        self.smoother = sltrack.SmootherConfig(alpha=cfg.smoother.alpha,
                                               enabled=True)
        self.period_ns = round(1e9 / rate)
        self.sink = Sink()

    def _source(self, frames, seg: Segment, tracer: Tracer | None):
        for i, frame in enumerate(frames):
            start = time.perf_counter_ns()
            seg.release[i] = self.sink.wait_until(seg.due[i])
            if tracer is not None:
                tracer.record("live.source", start, seg.release[i], frame.index)
            yield frame
            seg.resume[i] = time.perf_counter_ns()

    def segment(self, lo: int, hi: int, out: Outcome,
                tracer: Tracer | None) -> Segment | None:
        frames, truth = self.frames[lo:hi], self.truth[lo:hi]
        n = len(frames)
        out.attempted += n
        streamer = sltrack.PositionStreamer(self.sink.address)
        t0 = time.perf_counter_ns() + 10 * self.period_ns
        seg = Segment(due=[t0 + i * self.period_ns for i in range(n)],
                      release=[0] * n, resume=[0] * n, received=[None] * n,
                      streamer=streamer)
        self.sink.received.clear()
        try:
            start = time.perf_counter_ns()
            estimates = sltrack.pipeline.track_stream(
                self._source(frames, seg, tracer), self.cfg.rig, self.cal,
                self.cfg.detect, self.smoother, on_estimate=streamer.submit)
            seg.wall_ns = time.perf_counter_ns() - start
        except Exception:  # noqa: BLE001 - a crash is a counted failure
            out.fail(n, traceback.format_exc(limit=3))
            return None
        finally:
            streamer.close()
        deadline = time.monotonic() + LIVE_DRAIN_TIMEOUT_S
        while len(self.sink.received) < n and time.monotonic() < deadline:
            select.select([self.sink.sock], [], [], 0.01)
            self.sink.drain()
        self._check(estimates, truth, seg, out)
        return seg

    def _check(self, estimates, truth, seg: Segment, out: Outcome) -> None:
        n = len(seg.due)
        if len(estimates) != n:
            out.fail(n, f"{len(estimates)} estimates for {n} frames")
            return
        missing = mismatched = 0
        for seq, est in enumerate(estimates):
            got = self.sink.received.get(seq)
            if got is None:
                missing += 1
                continue
            seg.received[seq] = got[0]
            want = sltrack.decode(sltrack.encode(est, seq))
            if got[1] != want:
                mismatched += 1
        if missing:
            out.fail(missing, f"{missing} of {n} SLT1 packets never received "
                     f"(dropped {seg.streamer.dropped}, failed "
                     f"{seg.streamer.send_failures})")
        if mismatched:
            out.fail(mismatched, f"{mismatched} SLT1 packets differ from their estimate")
        if self.sink.malformed:
            out.fail(self.sink.malformed, f"{self.sink.malformed} malformed datagrams")
            self.sink.malformed = 0
        out.check_metrics(sltrack.evaluate(estimates, truth), "live")

    def run(self, out: Outcome, seconds: float, trace: bool) -> None:
        for frame in self.frames[:24]:  # warm-up, untimed and unstreamed
            sltrack.track_frame(frame, self.cfg.rig, self.cal, self.cfg.detect)
        n = len(self.frames)
        try:
            if not trace:
                seg = self.segment(0, n, out, None)
            else:
                seg = self.segment(0, n // 2, out, None)
                out.tracer = Tracer()
                with out.tracer.patched():
                    traced = self.segment(n // 2, n, out, out.tracer)
                if seg is not None and traced is not None:
                    out.layer.update(self._layers(out.tracer, seg, traced))
        finally:
            self.sink.close()
        if seg is None:
            return
        got = [i for i, r in enumerate(seg.received) if r is not None]
        latency = [seg.resume[i] - seg.due[i] for i in range(len(seg.due))]
        delivery = [seg.received[i] - seg.due[i] for i in got]
        out.samples["frames"] = len(seg.due)
        out.samples["packets_received"] = len(got)
        out.e2e["frames_per_s"] = 1e9 / pct(seg.busy_ns(), 50)
        out.e2e["latency_ms"] = pct(latency, 50, 1e-6)
        out.layer["tail.latency_p99_ms"] = pct(latency, 99, 1e-6)
        out.e2e["delivery_ms"] = pct(delivery, 50, 1e-6)
        out.layer["tail.delivery_p99_ms"] = pct(delivery, 99, 1e-6)
        # schedule lateness, over frames whose wait began before they were
        # due; a frame queued behind a slow one is late through no fault of
        # the generator
        lag = [seg.release[i] - seg.due[i] for i in range(len(seg.due))
               if i == 0 or seg.resume[i - 1] < seg.due[i]]
        out.layer["live.generator_lag_p99_ms"] = pct(lag, 99, 1e-6)

    def _layers(self, tracer: Tracer, untraced: Segment,
                traced: Segment) -> dict[str, float]:
        layers = layer_metrics(tracer, traced.wall_ns)
        per_frame = [pct(s.busy_ns(), 50) for s in (untraced, traced)]
        layers["trace.overhead_pct"] = 100.0 * (per_frame[1] / per_frame[0] - 1.0)
        to_sink = [r - s for r, s in zip(traced.received, traced.resume)
                   if r is not None]
        layers["stream.delivery.p50_ms"] = pct(to_sink, 50, 1e-6)
        for name in ("sent", "dropped", "send_failures"):
            layers[f"stream.{name}"] = getattr(traced.streamer, name)
        return layers


def make(name: str, work: Path, seed: int, seconds: float, frames: int | None):
    if name == "replay":
        return Replay(work, seed, frames)
    if name == "simulate":
        return Simulate(work, seed, frames)
    return Live(work, seed, seconds)
