"""Producer side: serve named content under registered prefixes."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Union

from geoshard.icn.faces import Face
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DEFAULT_MAX_PAYLOAD,
    DataPacket,
    InterestPacket,
    Packet,
    segment,
    split_segment_name,
)


@dataclass
class ProducerReply:
    """Payload to publish in response to an Interest."""

    payload: bytes
    freshness_ms: int = 0
    sign: Callable[[DataPacket], DataPacket] | None = None
    max_payload: int = DEFAULT_MAX_PAYLOAD

    def segments(self, name: Name) -> "SignOnRead":
        """The reply's segments under `name`, each signed only when it is read."""
        unsigned = segment(
            name, self.payload, max_payload=self.max_payload, freshness_ms=self.freshness_ms
        )
        return SignOnRead(unsigned, self.sign)


class SignOnRead(Sequence[DataPacket]):
    """Segments signed one at a time, as each is read.

    A reply built per Interest is sent one segment per Interest, so signing
    the segments nobody asked for would be wasted.
    """

    def __init__(self, segments: list[DataPacket], sign: Callable[[DataPacket], DataPacket] | None):
        self._segments = segments
        self._sign = sign

    def __len__(self) -> int:
        return len(self._segments)

    def __getitem__(self, index: int) -> DataPacket:  # type: ignore[override]
        pkt = self._segments[index]
        return self._sign(pkt) if self._sign is not None else pkt


# A handler returns None to drop the Interest (no reply), a ProducerReply to
# have the producer segment it and sign the segment it sends, or a segment
# sequence, such as the one `ProducerReply.segments` returns.
Handler = Callable[[Name, InterestPacket], Union[ProducerReply, Sequence[DataPacket], None]]


class Producer:
    def __init__(self, face: Face, label: str = "producer"):
        self.face = face
        self.label = label
        self._routes: list[tuple[Name, Handler]] = []
        face.on_receive = self._on_packet

    def serve(self, prefix: Name, handler: Handler) -> None:
        self._routes.append((prefix, handler))
        self._routes.sort(key=lambda rh: -len(rh[0]))  # longest prefix first

    def _on_packet(self, pkt: Packet) -> None:
        if not isinstance(pkt, InterestPacket):
            return
        base, seg_index = split_segment_name(pkt.name)
        seg_index = seg_index or 0
        for prefix, handler in self._routes:
            if prefix.is_prefix_of(base):
                reply = handler(base, pkt)
                break
        else:
            return
        if reply is None:
            return
        segments = reply.segments(base) if isinstance(reply, ProducerReply) else reply
        if seg_index < len(segments):
            self.face.send(segments[seg_index])
