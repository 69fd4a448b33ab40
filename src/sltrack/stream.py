"""Position telemetry over UDP: the SLT1 line protocol.

Datagrams, not a stream socket, on purpose: position samples are
latency-sensitive and loss-tolerant, so a stale retransmitted sample is
worse than a dropped one. Packets are single ASCII lines,

    SLT1 <seq> <timestamp_ms> 1 <x_cm> <z_cm>\\n     (detected)
    SLT1 <seq> <timestamp_ms> 0\\n                   (not detected)

well under the 128-byte budget. Sending never applies backpressure to
the tracking pipeline: each packet goes out on a non-blocking socket, a
datagram the kernel cannot take at once is dropped, and drops/failures are
only counted.
"""

from __future__ import annotations

import logging
import math
import socket
import threading
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
    """Accept "host:port" or (host, port) with a port in 1..65535; resolve
    to a UDP destination."""
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
    if not 1 <= port <= 65535:
        raise ValueError(f"address {host}:{port}: port must lie in 1..65535")
    try:
        info = socket.getaddrinfo(host, port, socket.AF_INET, socket.SOCK_DGRAM)
    except socket.gaierror as exc:
        raise ValueError(f"cannot resolve {host}:{port}: {exc}") from None
    return info[0][4][:2]


class PositionStreamer:
    """Fire-and-forget UDP publisher for the tracking loop.

    ``submit`` encodes the estimate and sends it at once on a non-blocking
    socket, so it never waits on the network. A datagram the kernel cannot
    take now is counted as dropped, any other send error as a failure.
    Sequence numbers are assigned at submission, so receivers can spot
    drops as gaps. A lock keeps seqs and counts exact when several threads
    submit.
    """

    def __init__(self, address: str | tuple[str, int]) -> None:
        self.endpoint = resolve_endpoint(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        self._lock = threading.Lock()
        self._closed = False
        self._seq = 0
        self.sent = 0
        self.dropped = 0
        self.send_failures = 0

    def submit(self, est: PositionEstimate) -> None:
        """Send an estimate; never blocks on the network. After
        :meth:`close` the estimate is counted as dropped instead."""
        with self._lock:
            if self._closed:
                self.dropped += 1
                return
            packet = encode(est, self._seq % _SEQ_LIMIT)
            self._seq += 1
            try:
                self._sock.sendto(packet, self.endpoint)
                self.sent += 1
            except BlockingIOError:
                self.dropped += 1
            except OSError as exc:
                self.send_failures += 1
                logger.warning("send to %s failed: %s", self.endpoint, exc)

    def close(self) -> None:
        """Close the socket; later submits are counted as dropped."""
        with self._lock:
            self._closed = True
            self._sock.close()
