"""SLT1 wire format and the fire-and-forget UDP publisher."""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from sltrack import (PositionEstimate, PositionStreamer, StreamPacket,
                     WorldPosition, decode, encode, resolve_endpoint)


def est(seq_hint, t, x=None, z=None):
    pos = WorldPosition(x, z) if x is not None else None
    return PositionEstimate(frame_index=seq_hint, timestamp_ms=t, pos=pos)


@pytest.fixture
def receiver():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(2.0)
    yield sock
    sock.close()


def drain(sock, expected, timeout=2.0):
    packets = []
    deadline = time.monotonic() + timeout
    while len(packets) < expected and time.monotonic() < deadline:
        try:
            data, _ = sock.recvfrom(256)
        except socket.timeout:
            break
        packets.append(decode(data))
    return packets


# --- wire format -----------------------------------------------------------------

def test_encode_golden_detected():
    e = PositionEstimate(frame_index=7, timestamp_ms=1234,
                         pos=WorldPosition(50.0, 200.0))
    assert encode(e, 7) == b"SLT1 7 1234 1 50.000 200.000\n"


def test_encode_golden_not_detected():
    e = PositionEstimate(frame_index=8, timestamp_ms=1284)
    assert encode(e, 8) == b"SLT1 8 1284 0\n"


def test_encode_single_trailing_newline_and_size():
    e = PositionEstimate(frame_index=0, timestamp_ms=4294967295,
                         pos=WorldPosition(-123.456, 399.999))
    data = encode(e, 2**32 - 1)
    assert data.endswith(b"\n") and not data[:-1].endswith(b"\n")
    assert len(data) <= 128


def test_encode_rejects_out_of_range_seq():
    with pytest.raises(ValueError):
        encode(est(0, 0), 2**32)
    with pytest.raises(ValueError):
        encode(est(0, 0), -1)


def test_decode_round_trip_randomized():
    rng = np.random.default_rng(41)
    for i in range(500):
        if rng.random() < 0.25:
            e = est(i, int(rng.integers(0, 10**9)))
        else:
            x = float(np.round(rng.uniform(-200, 200), 3))
            z = float(np.round(rng.uniform(1, 400), 3))
            e = est(i, int(rng.integers(0, 10**9)), x, z)
        packet = decode(encode(e, i))
        assert packet.seq == i
        assert packet.timestamp_ms == e.timestamp_ms
        if e.pos is None:
            assert packet == StreamPacket(i, e.timestamp_ms, False)
        else:
            assert packet.detected
            assert packet.x_cm == pytest.approx(e.pos.x, abs=5e-4)
            assert packet.z_cm == pytest.approx(e.pos.z, abs=5e-4)


def test_decode_rejects_garbage():
    # every failure quotes the packet, including fields encode never writes:
    # a seq outside [0, 2**32), a non-finite x or z, a non-numeric field
    for bad in (b"", b"NOPE 1 2 3\n", b"SLT1 1 2\n", b"SLT1 1 2 1 5.0\n",
                b"SLT1 1 2 2\n", b"SLT1 -5 -3 0\n", b"SLT1 4294967296 0 0\n",
                b"SLT1 1 2 1 nan inf\n", b"SLT1 1 2 1 0.0 -inf\n",
                b"SLT1 x 0 0\n", b"SLT1 1 2 1 5.0 y\n", b"SLT1 1 2 \xff\n"):
        with pytest.raises(ValueError) as exc_info:
            decode(bad)
        assert str(exc_info.value).endswith(f": {bad!r}")


def test_resolve_endpoint_forms():
    assert resolve_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert resolve_endpoint(("127.0.0.1", 9000)) == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        resolve_endpoint("localhost")  # no port
    with pytest.raises(ValueError):
        resolve_endpoint("no.such.host.invalid:9000")


# --- publisher --------------------------------------------------------------------

def test_serve_loopback_sequences_strictly_increase(receiver):
    port = receiver.getsockname()[1]
    streamer = PositionStreamer(("127.0.0.1", port))
    for i in range(25):
        streamer.submit(est(i, 50 * i, float(i), 200.0 + i))
    streamer.close()
    packets = drain(receiver, 25)
    assert streamer.sent == 25 and streamer.dropped == 0
    assert len(packets) > 0
    seqs = [p.seq for p in packets]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))


def test_packets_carry_positions(receiver):
    port = receiver.getsockname()[1]
    streamer = PositionStreamer(("127.0.0.1", port))
    streamer.submit(est(0, 0, 50.0, 200.0))
    streamer.submit(est(1, 50))
    streamer.close()
    packets = drain(receiver, 2)
    assert packets[0] == StreamPacket(0, 0, True, 50.0, 200.0)
    assert packets[1] == StreamPacket(1, 50, False)


def test_paced_stream_inter_packet_interval(receiver):
    # produce at 20 est/s; consumer should observe ~50 ms mean spacing
    import threading

    port = receiver.getsockname()[1]
    n = 30
    arrivals: list[float] = []

    def consume():
        while len(arrivals) < n:
            try:
                receiver.recvfrom(256)
            except socket.timeout:
                return
            arrivals.append(time.monotonic())

    consumer = threading.Thread(target=consume)
    consumer.start()
    streamer = PositionStreamer(("127.0.0.1", port))
    try:
        next_send = time.monotonic()
        for i in range(n):
            streamer.submit(est(i, 50 * i, 0.0, 200.0))
            next_send += 0.05
            time.sleep(max(0.0, next_send - time.monotonic()))
    finally:
        streamer.close()
    consumer.join(timeout=3.0)

    assert len(arrivals) >= n * 0.9  # loopback may still drop a few
    intervals = np.diff(arrivals) * 1000.0
    assert abs(float(np.mean(intervals)) - 50.0) <= 20.0


def test_bounded_queue_drops_oldest_without_blocking():
    # a stalled network must never back-pressure the pipeline: slow every
    # send down to 5 ms and hammer submits; they must return immediately
    # and overflow the 64-packet queue by dropping the oldest samples
    streamer = PositionStreamer(("127.0.0.1", 1))
    real_sock = streamer._sock

    class SlowSock:
        def sendto(self, data, addr):
            time.sleep(0.005)
            return real_sock.sendto(data, addr)

        def close(self):
            real_sock.close()

    streamer._sock = SlowSock()
    start = time.perf_counter()
    for i in range(200):
        streamer.submit(est(i, i))
    elapsed = time.perf_counter() - start
    streamer.close()
    assert elapsed < 0.5  # submit never waits on the network
    assert streamer.dropped > 0
    assert streamer.sent + streamer.dropped == 200


def test_submit_after_close_is_counted_as_dropped(receiver):
    streamer = PositionStreamer(receiver.getsockname())
    streamer.submit(est(0, 0))
    streamer.close()
    streamer.submit(est(1, 50))  # must not raise into the tracking loop
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (1, 1, 0)
    assert not streamer._queue


def test_close_timeout_leaves_the_socket_to_the_sender(receiver):
    # close() returns after its timeout while sends are still in flight;
    # the sender must finish the queue on a socket nobody closed under it,
    # then close that socket itself
    streamer = PositionStreamer(receiver.getsockname())
    real_sock = streamer._sock
    closes: list[int] = []

    class SlowSock:
        def sendto(self, data, addr):
            time.sleep(0.05)
            return real_sock.sendto(data, addr)

        def close(self):
            closes.append(1)
            real_sock.close()

    streamer._sock = SlowSock()
    for i in range(5):
        streamer.submit(est(i, i))
    streamer.close(timeout=0.01)
    streamer._thread.join(timeout=5.0)
    assert not streamer._thread.is_alive()
    assert streamer.send_failures == 0 and streamer.sent == 5
    assert closes == [1]


def test_throughput_unaffected_by_absent_consumer(rig, quiet, intensity,
                                                  detect_params, receiver):
    """A dead endpoint (nobody listening) must not slow the tracking loop
    compared to streaming to a live consumer: sends are fire-and-forget.

    Checked by what the loop does rather than by wall time, which varies
    by more than any useful gate on a shared host: for a live and a dead
    endpoint alike, the submitting thread never calls ``sendto``, and
    every submitted estimate ends up sent, dropped or failed."""
    import threading

    from sltrack import Calibration, SceneState, render, track_frame

    cal = Calibration(v_b=160, width=320, height=240)
    frames = [render(rig, SceneState(user=WorldPosition(0.0, 150.0 + i)),
                     quiet, intensity, index=i) for i in range(120)]
    passes = 5

    def run(endpoint):
        streamer = PositionStreamer(endpoint)
        real_sock = streamer._sock
        senders: list[int] = []

        class RecordingSock:
            def sendto(self, data, addr):
                senders.append(threading.get_ident())
                return real_sock.sendto(data, addr)

            def close(self):
                real_sock.close()

        streamer._sock = RecordingSock()
        try:
            for _ in range(passes):
                for frame in frames:
                    streamer.submit(track_frame(frame, rig, cal, detect_params))
        finally:
            streamer.close()
        return streamer, senders

    # live consumer draining in the background
    port = receiver.getsockname()[1]
    stop = threading.Event()
    received = 0

    def consume():
        nonlocal received
        receiver.settimeout(0.05)
        while not stop.is_set():
            try:
                receiver.recvfrom(256)
                received += 1
            except socket.timeout:
                pass

    consumer = threading.Thread(target=consume)
    consumer.start()
    try:
        live = run(("127.0.0.1", port))
    finally:
        stop.set()
        consumer.join()
    assert received > 0

    dead = run(("127.0.0.1", 1))  # nothing listens on port 1
    loop_thread = threading.get_ident()
    submitted = passes * len(frames)
    for name, (streamer, senders) in (("live", live), ("dead", dead)):
        assert senders and loop_thread not in senders, (
            f"{name} endpoint: sendto ran on the submitting thread")
        assert len(senders) == streamer.sent + streamer.send_failures, name
        assert (streamer.sent + streamer.dropped + streamer.send_failures
                == submitted), (
            f"{name} endpoint: sent {streamer.sent}, dropped "
            f"{streamer.dropped}, failed {streamer.send_failures} of "
            f"{submitted}")
