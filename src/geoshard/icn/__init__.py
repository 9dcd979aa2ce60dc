"""Minimal information-centric networking layer.

Hierarchical names, Interest/Data packets with a length-prefixed binary TLV
encoding, forwarders (FIB longest-prefix match, PIT aggregation/multicast,
freshness-bounded content store), in-process faces with optional loss
hooks, TCP faces over u32 length-framed streams, and blocking
consumer/producer endpoints with content segmentation. Routes are added
with :meth:`Forwarder.advertise`.
"""

from geoshard.icn.clock import ManualClock, system_clock
from geoshard.icn.consumer import Consumer, GetTimeoutError
from geoshard.icn.fabric import Fabric
from geoshard.icn.faces import Face, TcpFace, TcpFaceServer, face_pair, tcp_connect
from geoshard.icn.forwarder import Forwarder, ForwarderStats, longest_prefix_match
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DataPacket,
    InterestPacket,
    WireFormatError,
    decode_packet,
    encode_packet,
    reassemble,
    segment,
    segment_name,
    split_segment_name,
)
from geoshard.icn.producer import Producer, ProducerReply

__all__ = [
    "Consumer",
    "DataPacket",
    "Fabric",
    "Face",
    "Forwarder",
    "ForwarderStats",
    "GetTimeoutError",
    "InterestPacket",
    "ManualClock",
    "Name",
    "Producer",
    "ProducerReply",
    "TcpFace",
    "TcpFaceServer",
    "WireFormatError",
    "decode_packet",
    "encode_packet",
    "face_pair",
    "longest_prefix_match",
    "reassemble",
    "segment",
    "segment_name",
    "split_segment_name",
    "system_clock",
    "tcp_connect",
]
