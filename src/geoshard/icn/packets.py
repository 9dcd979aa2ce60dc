"""Interest/Data packets, the wire TLV codec, and content segmentation.

Wire layout (all integers big-endian):

  packet   := type:u8 body                  types: 0x01 Interest, 0x02 Data
  name     := count:u16 (len:u16 bytes)*    components are UTF-8
  Interest := name nonce:u32 lifetime_ms:u32 flags:u8
              [params_len:u32 params]                 (flag 0x02)
              [key_locator:name scheme:u8 sig_len:u16 sig]   (flag 0x01)
  Data     := name freshness_ms:u32 flags:u8
              [segment:u32 final_segment:u32]                (flag 0x02)
              [key_locator:name scheme:u8 sig_len:u16 sig]   (flag 0x01)
              payload_len:u32 payload

Signatures cover the name, application parameters and key locator for
Interests (so retransmissions with fresh nonces stay valid), and the name,
freshness, segment fields, key locator and payload for Data.

The decoder reads fields at offsets into the buffer it is given; the items
of a stream are decoded in place, without copying them out first. Every
malformed input - truncated, with trailing bytes, or with an empty, ``/``
-bearing or non-UTF-8 name component - raises WireFormatError.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable

from geoshard.icn.names import Name

TYPE_INTEREST = 0x01
TYPE_DATA = 0x02

_FLAG_SIGNED = 0x01
_FLAG_EXTRA = 0x02

DEFAULT_LIFETIME_MS = 4000
DEFAULT_MAX_PAYLOAD = 8192

_SEG_PREFIX = "seg="

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_INTEREST_HEAD = struct.Struct("!IIB")  # nonce, lifetime_ms, flags
_DATA_HEAD = struct.Struct("!IB")  # freshness_ms, flags
_SEGMENTS = struct.Struct("!II")  # segment, final_segment
_SIG_HEAD = struct.Struct("!BH")  # scheme, sig_len


class WireFormatError(ValueError):
    """Malformed packet bytes."""


def _new_nonce() -> int:
    return random.getrandbits(32)


@dataclass(frozen=True, slots=True)
class InterestPacket:
    name: Name
    nonce: int = field(default_factory=_new_nonce)
    lifetime_ms: int = DEFAULT_LIFETIME_MS
    app_params: bytes | None = None
    key_locator: Name | None = None
    sig_scheme: int = 0
    signature: bytes | None = None

    def with_new_nonce(self) -> "InterestPacket":
        return replace(self, nonce=_new_nonce())


@dataclass(frozen=True, slots=True)
class DataPacket:
    name: Name
    payload: bytes = b""
    freshness_ms: int = 0
    key_locator: Name | None = None
    sig_scheme: int = 0
    signature: bytes | None = None
    segment: int | None = None
    final_segment: int | None = None


Packet = InterestPacket | DataPacket


# --- encoding ---------------------------------------------------------------


def _encode_name(name: Name) -> bytes:
    comps = name.components
    parts = [_U16.pack(len(comps))]
    for comp in comps:
        raw = comp.encode()
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _encode_sig(key_locator: Name, scheme: int, sig: bytes) -> bytes:
    return _encode_name(key_locator) + _SIG_HEAD.pack(scheme, len(sig)) + sig


def encode_packet(pkt: Packet) -> bytes:
    if isinstance(pkt, InterestPacket):
        flags = (_FLAG_SIGNED if pkt.signature is not None else 0) | (
            _FLAG_EXTRA if pkt.app_params is not None else 0
        )
        out = [bytes([TYPE_INTEREST]), _encode_name(pkt.name)]
        out.append(_INTEREST_HEAD.pack(pkt.nonce & 0xFFFFFFFF, pkt.lifetime_ms, flags))
        if pkt.app_params is not None:
            out.append(_U32.pack(len(pkt.app_params)))
            out.append(pkt.app_params)
        if pkt.signature is not None:
            out.append(_encode_sig(pkt.key_locator or Name(), pkt.sig_scheme, pkt.signature))
        return b"".join(out)
    if isinstance(pkt, DataPacket):
        flags = (_FLAG_SIGNED if pkt.signature is not None else 0) | (
            _FLAG_EXTRA if pkt.segment is not None else 0
        )
        out = [bytes([TYPE_DATA]), _encode_name(pkt.name)]
        out.append(_DATA_HEAD.pack(pkt.freshness_ms, flags))
        if pkt.segment is not None:
            out.append(_SEGMENTS.pack(pkt.segment, pkt.final_segment or 0))
        if pkt.signature is not None:
            out.append(_encode_sig(pkt.key_locator or Name(), pkt.sig_scheme, pkt.signature))
        out.append(_U32.pack(len(pkt.payload)))
        out.append(pkt.payload)
        return b"".join(out)
    raise TypeError(f"not a packet: {pkt!r}")


def _decode_name(buf: bytes, pos: int, end: int) -> tuple[Name, int]:
    """The name at `pos` and the offset after it; each component checked once."""
    if pos + 2 > end:
        raise WireFormatError("truncated packet")
    (count,) = _U16.unpack_from(buf, pos)
    pos += 2
    comps = []
    for _ in range(count):
        if pos + 2 > end:
            raise WireFormatError("truncated packet")
        (length,) = _U16.unpack_from(buf, pos)
        start = pos + 2
        pos = start + length
        if pos > end:
            raise WireFormatError("truncated packet")
        try:
            comp = buf[start:pos].decode()
        except UnicodeDecodeError as exc:
            raise WireFormatError(str(exc)) from None
        if not comp or "/" in comp:
            raise WireFormatError(f"invalid name component: {comp!r}")
        comps.append(comp)
    return Name._of(tuple(comps)), pos


def _blob(buf: bytes, pos: int, end: int, head: struct.Struct) -> tuple[bytes, int]:
    """The bytes behind the length field `head` at `pos`, and the offset after them."""
    start = pos + head.size
    if start > end:
        raise WireFormatError("truncated packet")
    stop = start + head.unpack_from(buf, pos)[0]
    if stop > end:
        raise WireFormatError("truncated packet")
    return buf[start:stop], stop


def _decode_sig(buf: bytes, pos: int, end: int) -> tuple[Name | None, int, bytes, int]:
    """(key locator, scheme, signature, offset after them)."""
    kl, pos = _decode_name(buf, pos, end)
    if pos >= end:
        raise WireFormatError("truncated packet")
    sig, stop = _blob(buf, pos + 1, end, _U16)
    return kl or None, buf[pos], sig, stop


def _decode_at(buf: bytes, pos: int, end: int) -> Packet:
    """The packet that fills buf[pos:end] exactly, decoded in place."""
    if pos >= end:
        raise WireFormatError("truncated packet")
    ptype = buf[pos]
    kl, scheme, sig = None, 0, None
    if ptype == TYPE_INTEREST:
        name, pos = _decode_name(buf, pos + 1, end)
        if pos + _INTEREST_HEAD.size > end:
            raise WireFormatError("truncated packet")
        nonce, lifetime, flags = _INTEREST_HEAD.unpack_from(buf, pos)
        pos += _INTEREST_HEAD.size
        params = None
        if flags & _FLAG_EXTRA:
            params, pos = _blob(buf, pos, end, _U32)
        if flags & _FLAG_SIGNED:
            kl, scheme, sig, pos = _decode_sig(buf, pos, end)
        pkt: Packet = InterestPacket(name, nonce, lifetime, params, kl, scheme, sig)
    elif ptype == TYPE_DATA:
        name, pos = _decode_name(buf, pos + 1, end)
        if pos + _DATA_HEAD.size > end:
            raise WireFormatError("truncated packet")
        freshness, flags = _DATA_HEAD.unpack_from(buf, pos)
        pos += _DATA_HEAD.size
        segment = final = None
        if flags & _FLAG_EXTRA:
            if pos + _SEGMENTS.size > end:
                raise WireFormatError("truncated packet")
            segment, final = _SEGMENTS.unpack_from(buf, pos)
            pos += _SEGMENTS.size
        if flags & _FLAG_SIGNED:
            kl, scheme, sig, pos = _decode_sig(buf, pos, end)
        payload, pos = _blob(buf, pos, end, _U32)
        pkt = DataPacket(name, payload, freshness, kl, scheme, sig, segment, final)
    else:
        raise WireFormatError(f"unknown packet type 0x{ptype:02x}")
    if pos != end:
        raise WireFormatError("trailing bytes after packet")
    return pkt


def decode_packet(raw: bytes) -> Packet:
    return _decode_at(raw, 0, len(raw))


def encode_packet_stream(packets: Iterable[Packet]) -> bytes:
    """Concatenation of length-prefixed packets (tile containers, bulk pushes)."""
    out = []
    for pkt in packets:
        raw = encode_packet(pkt)
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


def decode_packet_stream(raw: bytes) -> list[Packet]:
    """The packets of a stream, each decoded in place."""
    out = []
    pos, size = 0, len(raw)
    while pos < size:
        if pos + 4 > size:
            raise WireFormatError("truncated stream header")
        start = pos + 4
        pos = start + _U32.unpack_from(raw, pos)[0]
        if pos > size:
            raise WireFormatError("truncated stream item")
        out.append(_decode_at(raw, start, pos))
    return out


# --- signing input ----------------------------------------------------------


def interest_signing_bytes(pkt: InterestPacket) -> bytes:
    kl = _encode_name(pkt.key_locator or Name())
    params = pkt.app_params or b""
    return b"I" + _encode_name(pkt.name) + _U32.pack(len(params)) + params + kl


def data_signing_bytes(pkt: DataPacket) -> bytes:
    kl = _encode_name(pkt.key_locator or Name())
    seg = _SEGMENTS.pack(pkt.segment or 0, pkt.final_segment or 0)
    return (
        b"D"
        + _encode_name(pkt.name)
        + _U32.pack(pkt.freshness_ms)
        + seg
        + kl
        + pkt.payload
    )


# --- segmentation -----------------------------------------------------------


def segment_name(base: Name, index: int) -> Name:
    return base / f"{_SEG_PREFIX}{index}"


def split_segment_name(name: Name) -> tuple[Name, int | None]:
    """(base name, segment index); index is None for unsegmented names."""
    if len(name) and name[-1].startswith(_SEG_PREFIX):
        try:
            return name[:-1], int(name[-1][len(_SEG_PREFIX):])
        except ValueError:
            pass
    return name, None


def segment(
    name: Name,
    payload: bytes,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    freshness_ms: int = 0,
) -> list[DataPacket]:
    """Split a payload into ceil(len/max_payload) Data packets (at least one)."""
    if max_payload < 1:
        raise ValueError("max_payload must be >= 1")
    count = max(1, math.ceil(len(payload) / max_payload))
    return [
        DataPacket(
            name=segment_name(name, i),
            payload=payload[i * max_payload : (i + 1) * max_payload],
            freshness_ms=freshness_ms,
            segment=i,
            final_segment=count - 1,
        )
        for i in range(count)
    ]


def reassemble(packets: Iterable[DataPacket]) -> bytes:
    """Inverse of :func:`segment`; validates indices and the final markers.

    Every segment must carry the same final marker: segments of two builds
    of a reply that changed size between them are refused, not joined.
    """
    pkts = sorted(packets, key=lambda p: p.segment or 0)
    if not pkts:
        raise ValueError("no segments")
    final = pkts[-1].final_segment
    if any(p.final_segment != final for p in pkts):
        raise ValueError("segments disagree on the final segment")
    if final is None or [p.segment for p in pkts] != list(range(final + 1)):
        raise ValueError("segment set is not contiguous")
    return b"".join(p.payload for p in pkts)
