"""Stored-object payloads and level-replication packaging.

A stored object is a signed Data packet named
``ndn:/<tile-prefix>/DATA/<tid>/<cid>/<uid>/<oid>``. The single master copy
carries the GeoJSON bytes; every other intersecting tile, at every level,
holds a reference. The payload header also carries the optional validity
interval so engines can filter temporal sub-queries without parsing GeoJSON.

A reference body is the fixed 56-byte record ``!ddddii16s``: the object's
extent (west, south, east, north), the level-2 tile indices of its master
and the master's digest, the first 16 bytes of sha256 over the owner-signed
master's wire encoding (:func:`master_digest`). The master's name is that
tile plus the reference's own (tid, cid, uid, oid), so a reference cannot
point at another object; the digest pins the one packet it points at, so a
reader that already holds a master with that name and digest can use it
without fetching it again, and a master rewritten under the same name has
another digest. The extent lets a reader test the spatial predicate on a
reference before checking its signature or fetching its master: include is
exact on it, intersect is a necessary condition. For Point/MultiPoint it is
the min/max of the points themselves, not ``Geometry.bbox``, whose max
corner a single point nudges outwards.

The spatial and temporal predicates of a range query live here, so that
an engine filtering the rows it sends and a front-end filtering the rows
it receives run the same functions on the same numbers.

An engine keeps each row as the framed wire bytes of its signed packet,
made once at insert: a reply is the join of its rows' bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable

from geoshard.geogrid import (
    LEVELS,
    BBox,
    Feature,
    Geometry,
    GeometryKind,
    TileId,
    intersecting_tiles,
    parse_feature,
)
from geoshard.icn.names import Name
from geoshard.icn.packets import DataPacket, decode_packet_stream, encode_packet
from geoshard.naming import Predicate, object_name, parse_object_name, tile_prefix

_FLAG_REFERENCE = 0x01
_FLAG_INTERVAL = 0x02
_REFERENCE = struct.Struct("!ddddii16s")
_EXTENT = struct.Struct("!dddd")  # the head of a reference record
_UNREADABLE = ()  # the extent of a stored master whose GeoJSON does not parse

Extent = tuple[float, float, float, float]  # west, south, east, north


class ObjectFormatError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ObjectPayload:
    is_reference: bool
    valid_time: tuple[int, int] | None
    body: bytes  # GeoJSON bytes for masters, the reference record for references

    def reference(self) -> tuple[Extent, TileId, bytes]:
        """(object extent, master's level-2 tile, master's digest) of a reference."""
        if not self.is_reference:
            raise ObjectFormatError("masters carry data, not a reference")
        west, south, east, north, i, j, digest = _REFERENCE.unpack(self.body)
        return (west, south, east, north), TileId(max(LEVELS), i, j), digest


def master_digest(raw: bytes) -> bytes:
    """The digest a reference pins its master by, over the master's wire bytes."""
    return sha256(raw).digest()[:16]


def encode_object_payload(
    is_reference: bool, valid_time: tuple[int, int] | None, body: bytes
) -> bytes:
    flags = (_FLAG_REFERENCE if is_reference else 0) | (_FLAG_INTERVAL if valid_time else 0)
    head = bytes([flags])
    if valid_time:
        head += struct.pack("!qq", valid_time[0], valid_time[1])
    return head + body


def decode_object_payload(raw: bytes) -> ObjectPayload:
    if not raw:
        raise ObjectFormatError("empty object payload")
    flags = raw[0]
    pos = 1
    valid_time = None
    if flags & _FLAG_INTERVAL:
        if len(raw) < pos + 16:
            raise ObjectFormatError("truncated validity interval")
        valid_time = struct.unpack_from("!qq", raw, pos)
        pos += 16
    is_reference = bool(flags & _FLAG_REFERENCE)
    if is_reference and len(raw) - pos != _REFERENCE.size:
        raise ObjectFormatError("reference body is not one reference record")
    return ObjectPayload(is_reference, valid_time, raw[pos:])


def geometry_extent(g: Geometry) -> Extent:
    """(west, south, east, north): the points' own min/max, else the bbox."""
    if g.kind is GeometryKind.OTHER:
        return g.bbox.min.lng, g.bbox.min.lat, g.bbox.max.lng, g.bbox.max.lat
    lngs = [p.lng for p in g.points]
    lats = [p.lat for p in g.points]
    return min(lngs), min(lats), max(lngs), max(lats)


def spatial_match(geometry: Geometry, bbox: BBox, mode: str) -> bool:
    """Intersect: any point inside (closed); include: the whole geometry inside.

    Geometries without native points are judged on their bounding box.
    """
    if geometry.kind is GeometryKind.OTHER:
        return extent_match(geometry_extent(geometry), bbox, mode)
    inside = (bbox.contains(p) for p in geometry.points)
    return all(inside) if mode == "include" else any(inside)


def extent_match(extent: Extent, bbox: BBox, mode: str) -> bool:
    """Spatial test on an object's extent (west, south, east, north).

    Implied by `spatial_match` on the object's geometry; equal to it for
    include on points, and its definition for other kinds.
    """
    west, south, east, north = extent
    if mode == "include":
        return (
            bbox.min.lng <= west
            and bbox.min.lat <= south
            and east <= bbox.max.lng
            and north <= bbox.max.lat
        )
    return (
        west <= bbox.max.lng
        and bbox.min.lng <= east
        and south <= bbox.max.lat
        and bbox.min.lat <= north
    )


def temporal_match(valid_time: tuple[int, int] | None, interval: tuple[int, int] | None) -> bool:
    """Closed-interval overlap; objects without a validity are always valid."""
    if interval is None or valid_time is None:
        return True
    a, b = valid_time
    return a <= interval[1] and b >= interval[0]


def replication_tiles(feature: Feature) -> list[TileId]:
    """Every intersecting tile at every level (level-replication)."""
    tiles: list[TileId] = []
    for level in LEVELS:
        tiles.extend(sorted(intersecting_tiles(feature.geometry, level)))
    return tiles


def master_tile(feature: Feature) -> TileId:
    """The lexicographically smallest intersecting level-2 tile hosts the master."""
    candidates = intersecting_tiles(feature.geometry, max(LEVELS))
    return min(candidates, key=lambda t: tile_prefix(t).components)


def build_object_packets(
    feature: Feature,
    sign: Callable[[DataPacket], DataPacket],
    freshness_ms: int = 3_600_000,
) -> list[tuple[TileId, DataPacket]]:
    """One signed packet per intersecting tile: one master, the rest references.

    The master is signed first, so that its references can pin its digest.
    """
    m_tile = master_tile(feature)
    m_name = object_name(m_tile, feature.tid, feature.cid, feature.uid, feature.oid)
    master_body = encode_object_payload(False, feature.valid_time, feature.to_json_bytes())
    master = sign(DataPacket(name=m_name, payload=master_body, freshness_ms=freshness_ms))
    record = _REFERENCE.pack(
        *geometry_extent(feature.geometry),
        m_tile.lng_idx,
        m_tile.lat_idx,
        master_digest(encode_packet(master)),
    )
    ref_body = encode_object_payload(True, feature.valid_time, record)
    out = []
    for tile in replication_tiles(feature):
        name = object_name(tile, feature.tid, feature.cid, feature.uid, feature.oid)
        if name == m_name:
            out.append((tile, master))
        else:
            ref = DataPacket(name=name, payload=ref_body, freshness_ms=freshness_ms)
            out.append((tile, sign(ref)))
    return out


@dataclass(slots=True, eq=False)
class StoredObject:
    """Engine-side row: the parsed identity plus the signed packet's wire
    bytes, framed as one item of a packet stream."""

    name: Name
    tile: TileId
    tid: str
    cid: str
    uid: str
    oid: str
    is_reference: bool
    valid_time: tuple[int, int] | None
    wire: bytes
    _extent: Extent | tuple[()] | None = None  # a master's, from its GeoJSON on first read

    @classmethod
    def from_packet(cls, pkt: DataPacket, wire: bytes) -> "StoredObject":
        """The row of `pkt`, whose framed wire bytes are `wire`."""
        info = parse_object_name(pkt.name)
        payload = decode_object_payload(pkt.payload)
        return cls(
            pkt.name,
            info.tile,
            info.tid,
            info.cid,
            info.uid,
            info.oid,
            payload.is_reference,
            payload.valid_time,
            wire,
        )

    @property
    def packet(self) -> DataPacket:
        """The stored packet, decoded from its wire bytes."""
        return decode_packet_stream(self.wire)[0]

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The object's identity (tid, cid, uid, oid), shared by all its rows."""
        return self.tid, self.cid, self.uid, self.oid

    def extent(self) -> Extent | None:
        """A reference's extent is the head of its record, the last bytes of
        its wire encoding; a master's is that of its geometry, None when its
        GeoJSON does not parse."""
        if self.is_reference:
            return _EXTENT.unpack_from(self.wire, len(self.wire) - _REFERENCE.size)
        if self._extent is None:
            try:
                body = decode_object_payload(self.packet.payload).body
                self._extent = geometry_extent(parse_feature(body).geometry)
            except ValueError:
                self._extent = _UNREADABLE
        return None if self._extent == _UNREADABLE else self._extent

    def can_match(self, predicate: Predicate) -> bool:
        """The post-filter's tests that run before its exact match: validity
        against the interval, extent against the box. A row that fails them
        cannot be part of the query's result; a master whose extent cannot
        be read is left for the front-end to judge."""
        if not temporal_match(self.valid_time, predicate.interval):
            return False
        extent = self.extent()
        return extent is None or extent_match(extent, predicate.box, predicate.mode)
