"""SLT1 wire format and the fire-and-forget UDP publisher."""

from __future__ import annotations

import errno
import re
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltrack import (PositionEstimate, PositionStreamer, StreamPacket,
                     WorldPosition, decode, encode, resolve_endpoint)
from sltrack.stream import _SEQ_LIMIT, PROTOCOL_TAG


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


def test_encode_refuses_a_packet_over_128_bytes():
    e = PositionEstimate(frame_index=0, timestamp_ms=0,
                         pos=WorldPosition(1e110, 200.0))  # 111 digits of x
    with pytest.raises(ValueError, match=r"packet is 1\d\d bytes, limit 128"):
        encode(e, 0)


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
            assert packet == StreamPacket(i, e.timestamp_ms)
        else:
            assert packet.pos is not None
            assert packet.pos == pytest.approx((e.pos.x, e.pos.z), abs=5e-4)


def test_decode_rejects_garbage():
    # every failure quotes the packet, including fields encode never writes:
    # a seq outside [0, 2**32), a non-finite x or z, a non-numeric field, and
    # numbers int() or float() read but encode does not write them so
    for bad in (b"", b"NOPE 1 2 3\n", b"SLT1 1 2\n", b"SLT1 1 2 1 5.0\n",
                b"SLT1 1 2 2\n", b"SLT1 -5 -3 0\n", b"SLT1 4294967296 0 0\n",
                b"SLT1 1 2 1 nan inf\n", b"SLT1 1 2 1 0.0 -inf\n",
                b"SLT1 x 0 0\n", b"SLT1 1 2 1 5.0 y\n", b"SLT1 1 2 \xff\n",
                b"SLT1 1_0 +5 1 1_0.5 2_00\n", b"SLT1 -0 5 0", b"SLT1 +1 5 0\n",
                b"SLT1 1_0 5 0\n", b"SLT1 1 +5 0\n", b"SLT1 1 1_5 0\n",
                b"SLT1 1 - 0\n", b"SLT1 1 -+5 0\n", b"SLT1 1 5 1 1_0.500 2.000\n",
                b"SLT1 1 5 1 1.000 2_00.000\n", b"SLT1 1 5 1 10.5 200.000\n",
                b"SLT1 1 5 1 10.500 2e2\n", b"SLT1 1 5 1 +10.500 200.000\n",
                b"SLT1 1 5 1 .500 200.000\n", b"SLT1 1 5 1 10.5000 200.000\n",
                b"SLT1 1 5 0\n\n",
                # 422 bytes, a 400-digit x: float() reads it as inf
                b"SLT1 1 5 1 " + b"9" * 400 + b".000 2.000\n",
                # past int()'s 4300-digit limit
                b"SLT1 1 " + b"5" * 5000 + b" 0\n"):
        with pytest.raises(ValueError) as exc_info:
            decode(bad)
        assert str(exc_info.value).endswith(f": {bad!r}")


_COORDINATE = re.compile(r"-?[0-9]+\.[0-9]{3}")


def reference_decode(data: bytes) -> StreamPacket:
    """The hand-checked decoder that the one pattern replaced: split on
    spaces, then check each field in turn; it has no length bound."""
    try:
        parts = data.decode("ascii").removesuffix("\n").split(" ")
        if len(parts) < 4 or parts[0] != PROTOCOL_TAG:
            raise ValueError(f"not an {PROTOCOL_TAG} packet")
        # the text is ASCII, so isdigit() means 0-9; int() and float() also
        # take "+5", "1_0", "-0" and "nan"
        if not parts[1].isdigit():
            raise ValueError(f"bad seq {parts[1]!r}")
        if not parts[2].removeprefix("-").isdigit():
            raise ValueError(f"bad timestamp {parts[2]!r}")
        seq, ts, detected = int(parts[1]), int(parts[2]), parts[3]
        if not 0 <= seq < _SEQ_LIMIT:
            raise ValueError("seq outside [0, 2**32)")
        if detected == "1":
            if len(parts) != 6:
                raise ValueError("detected packet needs x and z fields")
            for name, text in ("x", parts[4]), ("z", parts[5]):
                if not _COORDINATE.fullmatch(text):
                    raise ValueError(f"bad {name} {text!r}")
            return StreamPacket(seq, ts, (float(parts[4]), float(parts[5])))
        if detected == "0" and len(parts) == 4:
            return StreamPacket(seq, ts)
        raise ValueError("malformed packet")
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{exc}: {data!r}") from None


def _decoded(decoder, data):
    try:
        return decoder(data)
    except ValueError:
        return None


# random bytes; lines of tokens encode writes, near misses and junk; and
# encoded packets with their newline dropped, doubled or moved
_field = st.one_of(st.sampled_from(["SLT1", "0", "1", "-0", "-5", "4294967295",
                                    "4294967296", "nan", "inf", "-0.000", "12.500",
                                    "1_0", "+5", "", "\xff", "\n", " "]),
                   st.text("0123456789.-+_e\n", max_size=24))
_encoded = st.builds(
    lambda seq, ts, pos: encode(PositionEstimate(
        frame_index=0, timestamp_ms=ts, pos=WorldPosition(*pos) if pos else None), seq),
    st.integers(0, 2**32 - 1), st.integers(-10**12, 10**12),
    st.none() | st.tuples(st.floats(-1e9, 1e9), st.floats(1e-3, 1e9)))
_wire = st.one_of(
    st.binary(max_size=128),
    st.lists(_field, max_size=8).map(lambda parts: " ".join(parts).encode("latin-1")),
    st.tuples(_encoded, st.sampled_from([b"", b"\n", b" ", b"\r\n"])).map(
        lambda pair: pair[0].rstrip(b"\n") + pair[1]),
    st.tuples(_encoded, st.integers(0, 127)).map(
        lambda pair: pair[0][:pair[1]] + b"\n" + pair[0][pair[1]:]),
).filter(lambda data: len(data) <= 128)


@settings(max_examples=1000, deadline=None, database=None)
@given(_wire)
def test_decode_takes_what_the_reference_decoder_takes(data):
    # within the 128-byte bound, the one pattern is the hand checks
    assert _decoded(decode, data) == _decoded(reference_decode, data)


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


@pytest.mark.parametrize("port,message", [
    ("8_0", "non-numeric port '8_0'"),
    ("+80", "non-numeric port '+80'"),
    (" 80", "non-numeric port ' 80'"),
    ("80 ", "non-numeric port '80 '"),
    ("\u0668\u0660", "non-numeric port '\u0668\u0660'"),
    ("", "non-numeric port ''"),
    ("0x50", "non-numeric port '0x50'"),
    ("8" * 5000, "port too large: 5000 digits"),
], ids=["underscore", "plus", "leading-space", "trailing-space",
        "arabic-indic-digits", "empty", "hex", "5000-digits"])
def test_resolve_endpoint_port_is_ascii_digits_only(port, message):
    # int() reads each of the first five as 80
    with pytest.raises(ValueError) as exc_info:
        resolve_endpoint(f"127.0.0.1:{port}")
    assert str(exc_info.value) == message


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
    assert packets[0] == StreamPacket(0, 0, (50.0, 200.0))
    assert packets[1] == StreamPacket(1, 50)


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
