"""Length-prefixed pickle framing for the fleet transport.

One frame = an 8-byte big-endian payload length followed by the pickled
payload.  Both sides of every fleet socket (coordinator worker-links and
the worker loop) speak only in frames, so partial reads can never tear a
message apart and a closed peer is always detected as a clean
:class:`ConnectionClosed` at a frame boundary.

The payloads are plain dicts (``{"type": ..., ...}``) — see
:mod:`repro.execution.fleet.server` for the coordinator-to-worker message
set and :mod:`repro.execution.fleet.worker` for the replies.  Pickle is the
serializer because the payloads *are* the existing backend task payloads
(chunk tuples, trial dataclasses, ``StreamSlice`` recipes, ndarrays) and
those already carry the repo-wide picklability contract.  The transport is
therefore only suitable for trusted fleets (the same trust boundary as
``MultiprocessBackend``'s pickled task stream).

This module is numpy-free: the transport moves opaque payload bytes,
never array contents.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Tuple

__all__ = [
    "ConnectionClosed",
    "FleetProtocolError",
    "MAX_FRAME_BYTES",
    "parse_address",
    "format_address",
    "recv_frame",
    "send_frame",
]

#: Hard ceiling on one frame's payload, a corruption guard: a garbled
#: length prefix would otherwise be interpreted as a multi-terabyte
#: allocation.  2 GiB comfortably holds any real artifact push (the paper's
#: full eval set is tens of megabytes).
MAX_FRAME_BYTES = 2 << 30

_LENGTH = struct.Struct(">Q")


class ConnectionClosed(ConnectionError):
    """The peer closed the socket at (or inside) a frame boundary."""


class FleetProtocolError(RuntimeError):
    """A frame violated the protocol (bad length prefix, bad payload)."""


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"HOST:PORT"`` into its parts (IPv4/hostname transport)."""
    host, separator, port = str(address).rpartition(":")
    if not separator or not host:
        raise ValueError(f"fleet address must look like HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"fleet address has a non-numeric port: {address!r}") from None


def format_address(host: str, port: int) -> str:
    return f"{host}:{int(port)}"


def send_frame(sock: socket.socket, payload: Any) -> int:
    """Pickle ``payload`` and send it as one frame; returns bytes on the wire."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:  # pragma: no cover - guards pathological payloads
        raise FleetProtocolError(f"frame payload of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(_LENGTH.pack(len(data)) + data)
    return _LENGTH.size + len(data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes, raising :class:`ConnectionClosed` on EOF."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one frame and unpickle its payload.

    Raises :class:`ConnectionClosed` when the peer hangs up cleanly and
    :class:`FleetProtocolError` on a corrupt length prefix.  A
    ``socket.timeout`` from a timed-out socket propagates unchanged so
    callers can poll (the coordinator's worker links do, to bound how long
    a dead worker can stall a request).
    """
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FleetProtocolError(f"frame announces {length} bytes (corrupt stream?)")
    return pickle.loads(_recv_exact(sock, int(length)))
