"""Consumer side: express Interests, fetch and reassemble segmented content."""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from geoshard.icn.faces import Face
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DEFAULT_LIFETIME_MS,
    DataPacket,
    InterestPacket,
    Packet,
    reassemble,
    segment_name,
)

DEFAULT_RETRIES = 3
DEFAULT_WINDOW = 8

InterestSigner = Callable[[InterestPacket], InterestPacket]
DataValidator = Callable[[DataPacket], None]


class GetTimeoutError(TimeoutError):
    def __init__(self, name: Name, attempts: int):
        super().__init__(f"no data for {name} after {attempts} attempts")
        self.name = name


class _Waiter:
    __slots__ = ("event", "packet")

    def __init__(self):
        self.event = threading.Event()
        self.packet: DataPacket | None = None


class Consumer:
    """Blocking fetch API over a single face.

    Retransmission is consumer-side: a fixed interval equal to the Interest
    lifetime, `retries` additional attempts with fresh nonces. Every fetch
    runs on the caller's thread.
    """

    def __init__(self, face: Face, label: str = "consumer"):
        self.face = face
        self.label = label
        self._lock = threading.Lock()
        self._pending: dict[Name, list[_Waiter]] = {}
        face.on_receive = self._on_packet

    def _on_packet(self, pkt: Packet) -> None:
        if not isinstance(pkt, DataPacket):
            return
        with self._lock:
            waiters = self._pending.pop(pkt.name, [])
        for w in waiters:
            w.packet = pkt
            w.event.set()

    def _send(self, interest: InterestPacket) -> _Waiter:
        waiter = _Waiter()
        with self._lock:
            self._pending.setdefault(interest.name, []).append(waiter)
        self.face.send(interest)
        return waiter

    def _forget(self, name: Name, waiter: _Waiter) -> None:
        with self._lock:
            waiters = self._pending.get(name)
            if waiters and waiter in waiters:
                waiters.remove(waiter)
                if not waiters:
                    del self._pending[name]

    def _await(
        self,
        interest: InterestPacket,
        waiter: _Waiter,
        retries: int,
        validate: DataValidator | None,
    ) -> DataPacket:
        """The Data answering `interest`, already sent to `waiter`; each
        timeout retransmits it with a fresh nonce, `retries` times at most."""
        for attempt in range(retries + 1):
            if attempt:
                waiter = self._send(interest.with_new_nonce())
            if waiter.event.wait(interest.lifetime_ms / 1000.0):
                if validate is not None:
                    validate(waiter.packet)  # raises on failure
                return waiter.packet
            self._forget(interest.name, waiter)
        raise GetTimeoutError(interest.name, retries + 1)

    def express_interest(
        self,
        interest: InterestPacket,
        retries: int = DEFAULT_RETRIES,
        validate: DataValidator | None = None,
    ) -> DataPacket:
        return self._await(interest, self._send(interest), retries, validate)

    def get(
        self,
        name: Name,
        *,
        lifetime_ms: int = DEFAULT_LIFETIME_MS,
        retries: int = DEFAULT_RETRIES,
        sign: InterestSigner | None = None,
        app_params: bytes | None = None,
        validate: DataValidator | None = None,
        window: int = DEFAULT_WINDOW,
    ) -> bytes:
        """Fetch a (possibly segmented) content object by name.

        Fetches segment 0 and reads the final-segment marker. The caller's
        thread then keeps up to `window` Interests for the remaining
        segments outstanding, waits on the oldest (retransmitting it on
        timeout), and reassembles the payload in order.
        """

        def interest(index: int) -> InterestPacket:
            pkt = InterestPacket(
                segment_name(name, index), lifetime_ms=lifetime_ms, app_params=app_params
            )
            return pkt if sign is None else sign(pkt)

        first = self.express_interest(interest(0), retries=retries, validate=validate)
        final = first.final_segment or 0
        segments = [first]
        outstanding: deque[tuple[InterestPacket, _Waiter]] = deque()
        try:
            for index in range(1, final + 1):
                if len(outstanding) >= window:
                    segments.append(self._await(*outstanding.popleft(), retries, validate))
                pkt = interest(index)
                outstanding.append((pkt, self._send(pkt)))
            while outstanding:
                segments.append(self._await(*outstanding.popleft(), retries, validate))
        finally:
            for pkt, waiter in outstanding:
                self._forget(pkt.name, waiter)
        return reassemble(segments)

    def get_packet(
        self,
        name: Name,
        *,
        lifetime_ms: int = DEFAULT_LIFETIME_MS,
        retries: int = DEFAULT_RETRIES,
        sign: InterestSigner | None = None,
        app_params: bytes | None = None,
        validate: DataValidator | None = None,
    ) -> DataPacket:
        """Single-segment fetch returning the raw first Data packet."""
        interest = InterestPacket(
            segment_name(name, 0), lifetime_ms=lifetime_ms, app_params=app_params
        )
        if sign is not None:
            interest = sign(interest)
        return self.express_interest(interest, retries=retries, validate=validate)
