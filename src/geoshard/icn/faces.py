"""Faces: channels attaching nodes to each other.

Two transports: synchronous in-process pairs, and TCP for multi-process
runs. A face delivers packets to whoever set its ``on_receive`` callback (a
forwarder, consumer or producer).

Every stream socket in the package (TCP faces and the engines' bulk-insert
stream) carries frames of a u32 big-endian length followed by that many
bytes: :func:`frame` writes one and :func:`read_frame` reads one, refusing
lengths above :data:`MAX_FRAME`.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
from typing import Callable, Optional

from geoshard.icn.packets import Packet, decode_packet, encode_packet

log = logging.getLogger(__name__)


class Face:
    """One endpoint of a bidirectional link."""

    def __init__(self, label: str = ""):
        self.label = label
        self.on_receive: Optional[Callable[[Packet], None]] = None
        self.peer: Optional["Face"] = None
        self.loss: Optional[Callable[[Packet], bool]] = None
        self.sent = 0
        self.received = 0

    def send(self, pkt: Packet) -> None:
        self.sent += 1
        if self.peer is not None:
            self.peer._deliver(pkt)

    def _deliver(self, pkt: Packet) -> None:
        if self.loss is not None and self.loss(pkt):
            return
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(pkt)

    def close(self) -> None:
        self.peer = None

    def __repr__(self):
        return f"Face({self.label!r})"


def face_pair(
    label: str = "",
    loss_to_a: Callable[[Packet], bool] | None = None,
    loss_to_b: Callable[[Packet], bool] | None = None,
) -> tuple[Face, Face]:
    """A connected in-process face pair (a <-> b)."""
    a, b = Face(label + ":a"), Face(label + ":b")
    a.peer, b.peer = b, a
    a.loss, b.loss = loss_to_a, loss_to_b
    return a, b


# --- length-framed streams ---------------------------------------------------

_HDR = struct.Struct("!I")
MAX_FRAME = 32 * 1024 * 1024


class FrameTooLarge(ConnectionError):
    """The peer announced a frame longer than MAX_FRAME."""


def frame(data: bytes) -> bytes:
    return _HDR.pack(len(data)) + data


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            return None
        got += k
    return bytes(buf)


def read_frame(sock: socket.socket) -> bytes | None:
    """The body of the next frame; None when the peer closed the stream.

    Raises FrameTooLarge before allocating for a length above MAX_FRAME.
    """
    hdr = _recv_exact(sock, _HDR.size)
    if hdr is None:
        return None
    (length,) = _HDR.unpack(hdr)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return _recv_exact(sock, length)


# --- TCP transport ----------------------------------------------------------


class TcpFace(Face):
    """Face carried over a TCP socket; a reader thread feeds on_receive.

    The reader starts with `start`, once on_receive is wired, so that no
    packet arrives before anyone listens.
    """

    def __init__(self, sock: socket.socket, label: str = "tcp"):
        super().__init__(label)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    def start(self) -> "TcpFace":
        threading.Thread(target=self._read_loop, daemon=True).start()
        return self

    def send(self, pkt: Packet) -> None:
        raw = encode_packet(pkt)
        try:
            with self._send_lock:
                self._sock.sendall(frame(raw))
            self.sent += 1
        except OSError:
            self.close()

    def _read_loop(self) -> None:
        while not self._closed:
            try:
                raw = read_frame(self._sock)
            except FrameTooLarge as exc:
                log.warning("%s: %s, closing", self.label, exc)
                break
            except OSError:
                break
            if raw is None:
                break
            try:
                pkt = decode_packet(raw)
            except ValueError as exc:
                log.warning("%s: dropping undecodable frame: %s", self.label, exc)
                continue
            self.received += 1
            if self.on_receive is not None:
                self.on_receive(pkt)
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class TcpFaceServer:
    """Accepts TCP connections and hands each one to `on_face` as a TcpFace,
    whose reader starts when `on_face` returns."""

    def __init__(self, host: str, port: int, on_face: Callable[[TcpFace], None]):
        self._srv = socket.create_server((host, port))
        self.address = self._srv.getsockname()[:2]
        self._on_face = on_face
        self._closed = False
        self._faces: list[TcpFace] = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, addr = self._srv.accept()
            except OSError:
                break
            face = TcpFace(sock, label=f"tcp<{addr[0]}:{addr[1]}")
            self._faces.append(face)
            self._on_face(face)
            face.start()

    def close(self) -> None:
        self._closed = True
        try:
            self._srv.close()
        except OSError:
            pass
        for face in self._faces:
            face.close()


def tcp_connect(host: str, port: int, label: str = "tcp") -> TcpFace:
    """A started TcpFace to a server; the client speaks first."""
    return TcpFace(socket.create_connection((host, port), timeout=10), label=label).start()
