"""Position telemetry over UDP: the SLT1 line protocol.

Datagrams, not a stream socket, on purpose: position samples are
latency-sensitive and loss-tolerant, so a stale retransmitted sample is
worse than a dropped one. Packets are single ASCII lines,

    SLT1 <seq> <timestamp_ms> 1 <x_cm> <z_cm>\\n     (detected)
    SLT1 <seq> <timestamp_ms> 0\\n                   (not detected)

at most 128 bytes; :func:`decode` refuses anything else. Sending never
applies backpressure to the tracking pipeline: each packet goes out on a
non-blocking socket, a datagram the kernel cannot take at once is
dropped, and drops/failures are only counted.
"""

from __future__ import annotations

import logging
import re
import socket
import threading
from dataclasses import dataclass

from .io import whole_number
from .pipeline import PositionEstimate

logger = logging.getLogger(__name__)

PROTOCOL_TAG = "SLT1"
MAX_PACKET_BYTES = 128
_SEQ_LIMIT = 2**32
# a whole packet as encode writes it; x and z are ":.3f" of a finite number
_PACKET = re.compile(PROTOCOL_TAG.encode("ascii") + rb" ([0-9]+) (-?[0-9]+) "
                     rb"(?:0|1 (-?[0-9]+\.[0-9]{3}) (-?[0-9]+\.[0-9]{3}))\n?")


@dataclass(frozen=True)
class StreamPacket:
    """Decoded SLT1 packet; ``pos`` is ``(x_cm, z_cm)``, None when nothing
    was detected. A plain pair, not a ``WorldPosition``: :func:`decode`
    takes a depth of 0.000 or below, which ``WorldPosition`` refuses."""

    seq: int
    timestamp_ms: int
    pos: tuple[float, float] | None = None


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
    """Parse one SLT1 line back into a packet. Only what :func:`encode`
    writes is taken: at most 128 bytes of ``SLT1 <seq> <timestamp_ms> 0``
    or ``SLT1 <seq> <timestamp_ms> 1 <x_cm> <z_cm>``, fields split by one
    space, then one optional newline. seq is ASCII digits below 2**32, the
    timestamp ASCII digits after an optional ``-``, x and z the same with
    three decimals. Anything else raises ``ValueError`` quoting the
    packet."""
    # the length bound keeps every number short: int() stays under its
    # digit limit and float() finite
    match = _PACKET.fullmatch(data) if len(data) <= MAX_PACKET_BYTES else None
    if match is None or int(match[1]) >= _SEQ_LIMIT:
        raise ValueError(f"not an {PROTOCOL_TAG} packet as encode writes it: {data!r}")
    seq, ts, x, z = match.groups()
    if x is None:
        return StreamPacket(int(seq), int(ts))
    return StreamPacket(int(seq), int(ts), (float(x), float(z)))


def resolve_endpoint(address: str | tuple[str, int]) -> tuple[str, int]:
    """Accept "host:port" or (host, port) with a port in 1..65535; resolve
    to a UDP destination."""
    if isinstance(address, str):
        host, sep, port_text = address.rpartition(":")
        if not sep or not host:
            raise ValueError(f"address {address!r}: want host:port")
        port = whole_number(port_text, "port")
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
    take now is counted as dropped, any other send error as a failure;
    only the first failure is logged. Sequence numbers are assigned at
    submission, so receivers can spot drops as gaps. A lock keeps seqs and
    counts exact when several threads submit.
    """

    def __init__(self, address: str | tuple[str, int]) -> None:
        self.endpoint = resolve_endpoint(address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        self._lock = threading.Lock()
        self._seq = 0
        self.sent = 0
        self.dropped = 0
        self.send_failures = 0

    def submit(self, est: PositionEstimate) -> None:
        """Send an estimate; never blocks on the network. After
        :meth:`close` the send fails, and is counted as a send failure."""
        with self._lock:
            packet = encode(est, self._seq % _SEQ_LIMIT)
            self._seq += 1
            try:
                self._sock.sendto(packet, self.endpoint)
                self.sent += 1
            except BlockingIOError:
                self.dropped += 1
            except OSError as exc:
                # a link that stays down would log every frame
                self.send_failures += 1
                if self.send_failures == 1:
                    logger.warning("send to %s failed: %s; later failures are "
                                   "only counted", self.endpoint, exc)

    def close(self) -> None:
        """Close the socket; later submits are counted as send failures."""
        with self._lock:
            self._sock.close()
