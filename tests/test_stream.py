"""SLT1 wire format and the fire-and-forget UDP publisher."""

from __future__ import annotations

import errno
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
    # getaddrinfo would wrap 70000 to 4464, and port 0 fails every send
    for bad in ("127.0.0.1:70000", "127.0.0.1:0", ("127.0.0.1", 70000)):
        with pytest.raises(ValueError, match="port must lie in 1..65535"):
            resolve_endpoint(bad)


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


def test_submit_never_waits_on_the_network():
    # the socket is non-blocking, and a datagram the kernel cannot take at
    # once is dropped and counted rather than waited for
    streamer = PositionStreamer(("127.0.0.1", 1))
    assert streamer._sock.gettimeout() == 0.0
    real_sock = streamer._sock

    class FullSock:
        def sendto(self, data, addr):
            raise BlockingIOError(errno.EAGAIN, "would block")

        def close(self):
            real_sock.close()

    streamer._sock = FullSock()
    for i in range(200):
        streamer.submit(est(i, i))
    streamer.close()
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (0, 200, 0)


def test_close_on_an_idle_streamer_closes_its_socket(receiver):
    streamer = PositionStreamer(receiver.getsockname())
    streamer.close()
    assert streamer._sock.fileno() == -1
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (0, 0, 0)


def test_each_submit_reaches_sendto_before_it_returns():
    streamer = PositionStreamer(("127.0.0.1", 1))
    real_sock = streamer._sock
    seqs: list[int] = []

    class RecordingSock:
        def sendto(self, data, addr):
            seqs.append(decode(data).seq)
            return len(data)

        def close(self):
            real_sock.close()

    streamer._sock = RecordingSock()
    try:
        for i in range(20):
            streamer.submit(est(i, i))
            assert seqs == list(range(i + 1))
    finally:
        streamer.close()
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (20, 0, 0)


def test_concurrent_submits_take_distinct_seqs():
    # four producers, more than the cores, with thread switches forced
    # often; the lock must hand out every seq once and count every send
    import sys
    import threading

    streamer = PositionStreamer(("127.0.0.1", 1))
    real_sock = streamer._sock
    seqs: list[int] = []

    class RecordingSock:
        def sendto(self, data, addr):
            seqs.append(decode(data).seq)
            return len(data)

        def close(self):
            real_sock.close()

    streamer._sock = RecordingSock()

    def produce(worker):
        for i in range(150):
            streamer.submit(est(0, worker * 1000 + i))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=produce, args=(w,)) for w in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        streamer.close()
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(seqs) == list(range(600))
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (600, 0, 0)


def test_submit_after_close_is_counted_as_dropped(receiver):
    streamer = PositionStreamer(receiver.getsockname())
    streamer.submit(est(0, 0))
    streamer.close()
    streamer.submit(est(1, 50))  # must not raise into the tracking loop
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (1, 1, 0)


def test_send_error_is_counted_as_a_failure(caplog):
    streamer = PositionStreamer(("127.0.0.1", 1))
    real_sock = streamer._sock

    class UnreachableSock:
        def sendto(self, data, addr):
            raise OSError(errno.ENETUNREACH, "Network is unreachable")

        def close(self):
            real_sock.close()

    streamer._sock = UnreachableSock()
    streamer.submit(est(0, 0))  # must not raise into the tracking loop
    streamer.close()
    assert (streamer.sent, streamer.dropped, streamer.send_failures) == (0, 0, 1)
    assert "Network is unreachable" in caplog.text


def test_throughput_unaffected_by_absent_consumer(rig, quiet, intensity,
                                                  detect_params, receiver):
    """A dead endpoint (nobody listening) must not slow the tracking loop
    compared to streaming to a live consumer: sends are fire-and-forget.

    Checked by what the loop does rather than by wall time, which varies
    by more than any useful gate on a shared host: for a live and a dead
    endpoint alike, the socket is non-blocking, each submit makes one
    ``sendto``, and every submitted estimate ends up sent, dropped or
    failed."""
    import threading

    from sltrack import Calibration, SceneState, render, track_frame

    cal = Calibration(v_b=160, width=320, height=240)
    frames = [render(rig, SceneState(user=WorldPosition(0.0, 150.0 + i)),
                     quiet, intensity, index=i) for i in range(120)]
    passes = 5

    def run(endpoint):
        streamer = PositionStreamer(endpoint)
        real_sock = streamer._sock
        assert real_sock.gettimeout() == 0.0
        calls: list[bytes] = []

        class RecordingSock:
            def sendto(self, data, addr):
                calls.append(data)
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
        return streamer, calls

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
    submitted = passes * len(frames)
    for name, (streamer, calls) in (("live", live), ("dead", dead)):
        assert (len(calls) == streamer.sent + streamer.dropped
                + streamer.send_failures), name
        assert (streamer.sent + streamer.dropped + streamer.send_failures
                == submitted), (
            f"{name} endpoint: sent {streamer.sent}, dropped "
            f"{streamer.dropped}, failed {streamer.send_failures} of "
            f"{submitted}")
