"""Position telemetry over UDP: the SLT1 line protocol.

Datagrams, not a stream socket, on purpose: position samples are
latency-sensitive and loss-tolerant, so a stale retransmitted sample is
worse than a dropped one. Packets are single ASCII lines,

    SLT1 <seq> <timestamp_ms> 1 <x_cm> <z_cm>\\n     (detected)
    SLT1 <seq> <timestamp_ms> 0\\n                   (not detected)

well under the 128-byte budget. The sender never applies backpressure to
the tracking pipeline: hand-off goes through a bounded queue that drops
the oldest sample when full, and drops/failures are only counted.
"""

from __future__ import annotations

import collections
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass

from .pipeline import PositionEstimate

logger = logging.getLogger(__name__)

PROTOCOL_TAG = "SLT1"
MAX_PACKET_BYTES = 128
_SEQ_LIMIT = 2**32


@dataclass(frozen=True)
class StreamPacket:
    """Decoded SLT1 packet; x_cm/z_cm are None when not detected."""

    seq: int
    timestamp_ms: int
    detected: bool
    x_cm: float | None = None
    z_cm: float | None = None


def encode(est: PositionEstimate, seq: int) -> bytes:
    """Encode an estimate as one SLT1 line."""
    if not 0 <= seq < _SEQ_LIMIT:
        raise ValueError("seq: must fit an unsigned 32-bit counter")
    if est.pos is not None:
        line = (f"{PROTOCOL_TAG} {seq} {est.timestamp_ms} 1 "
                f"{est.pos.x:.3f} {est.pos.z:.3f}\n")
    else:
        line = f"{PROTOCOL_TAG} {seq} {est.timestamp_ms} 0\n"
    data = line.encode("ascii")
    if len(data) > MAX_PACKET_BYTES:
        raise ValueError(f"packet is {len(data)} bytes, limit {MAX_PACKET_BYTES}")
    return data


def decode(data: bytes) -> StreamPacket:
    """Parse one SLT1 line back into a packet. A packet that is not SLT1
    ASCII, has a bad field, a seq outside [0, 2**32) or a non-finite x or z
    raises ``ValueError`` quoting the packet."""
    try:
        parts = data.decode("ascii").rstrip("\n").split(" ")
        if len(parts) < 4 or parts[0] != PROTOCOL_TAG:
            raise ValueError(f"not an {PROTOCOL_TAG} packet")
        seq, ts, detected = int(parts[1]), int(parts[2]), parts[3]
        if not 0 <= seq < _SEQ_LIMIT:
            raise ValueError("seq outside [0, 2**32)")
        if detected == "1":
            if len(parts) != 6:
                raise ValueError("detected packet needs x and z fields")
            x, z = float(parts[4]), float(parts[5])
            if not (math.isfinite(x) and math.isfinite(z)):
                raise ValueError("x and z must be finite")
            return StreamPacket(seq, ts, True, x, z)
        if detected == "0" and len(parts) == 4:
            return StreamPacket(seq, ts, False)
        raise ValueError("malformed packet")
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{exc}: {data!r}") from None


def resolve_endpoint(address: str | tuple[str, int]) -> tuple[str, int]:
    """Accept "host:port" or (host, port); resolve to a UDP destination."""
    if isinstance(address, str):
        host, sep, port_text = address.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address {address!r}: want host:port")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"address {address!r}: bad port") from None
    else:
        host, port = address
    try:
        info = socket.getaddrinfo(host, port, socket.AF_INET, socket.SOCK_DGRAM)
    except socket.gaierror as exc:
        raise ValueError(f"cannot resolve {host}:{port}: {exc}") from None
    return info[0][4][:2]


class PositionStreamer:
    """Fire-and-forget UDP publisher running beside the pipeline.

    ``submit`` is wait-free for the caller: estimates go into a bounded
    deque and a daemon thread encodes and sends them in submission order.
    When the deque is full the oldest estimate is discarded and counted.
    Sequence numbers are assigned at submission, so receivers can spot
    drops as gaps.
    """

    # Idle poll period of the sender thread. Polling instead of a per-packet
    # wakeup keeps submit() down to a lock + append: waking the sender from
    # the pipeline thread costs a context switch per packet, which measurably
    # slows the tracking loop on small frames. 4 ms adds at most ~4 ms of
    # send latency and lets bursts batch into one drain pass.
    _POLL_S = 0.004
    _QUEUE_SIZE = 64

    def __init__(self, address: str | tuple[str, int]) -> None:
        self.endpoint = resolve_endpoint(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._queue: collections.deque[bytes] = collections.deque()
        self._lock = threading.Lock()
        self._closing = False
        self._seq = 0
        self.sent = 0
        self.dropped = 0
        self.send_failures = 0
        self._thread = threading.Thread(target=self._drain, daemon=True,
                                        name="sltrack-streamer")
        self._thread.start()

    def submit(self, est: PositionEstimate) -> None:
        """Queue an estimate for sending; never blocks on the network.
        After :meth:`close` the estimate is counted as dropped instead."""
        with self._lock:
            if self._closing:
                self.dropped += 1
                return
            packet = encode(est, self._seq % _SEQ_LIMIT)
            self._seq += 1
            if len(self._queue) >= self._QUEUE_SIZE:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(packet)

    def _drain(self) -> None:
        # the socket belongs to this thread: it is closed here, after the
        # last send, never from close() while a send may be in flight
        try:
            while True:
                with self._lock:
                    batch = list(self._queue)
                    self._queue.clear()
                    closing = self._closing
                if not batch:
                    if closing:
                        return
                    time.sleep(self._POLL_S)
                    continue
                sent = failed = 0
                for packet in batch:
                    try:
                        self._sock.sendto(packet, self.endpoint)
                        sent += 1
                    except OSError as exc:
                        failed += 1
                        logger.warning("send to %s failed: %s", self.endpoint, exc)
                with self._lock:
                    self.sent += sent
                    self.send_failures += failed
        finally:
            self._sock.close()

    def close(self, timeout: float = 5.0) -> None:
        """Ask the sender thread to flush the queue and stop, and wait up to
        ``timeout`` seconds for it. A sender still busy after that finishes
        the queue, then closes its socket, on its own."""
        with self._lock:
            self._closing = True
        self._thread.join(timeout)
