import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshard.frontend import RangeQuery, _matches
from geoshard.geogrid import BBox, Feature, Geometry, GeometryKind, TileId, parse_feature
from geoshard.icn.packets import DataPacket, encode_packet, encode_packet_stream
from geoshard.naming import Predicate, object_name
from geoshard.objects import (
    ObjectFormatError,
    StoredObject,
    build_object_packets,
    decode_object_payload,
    encode_object_payload,
    extent_match,
    geometry_extent,
    master_digest,
    master_tile,
    spatial_match,
)
from geoshard.trust import SCHEME_HMAC, data_signer, make_anchor

MODES = ("intersect", "include")


def _grid(level: int):
    side = 10**level
    return st.integers(12 * side, 14 * side).map(lambda i: i / side)


COORD = st.one_of(_grid(0), _grid(1), _grid(2), st.floats(12.0, 14.0))


@st.composite
def boxes(draw, coord=COORD):
    a = draw(coord)
    b = draw(coord.filter(lambda v: v != a))
    c = draw(coord)
    d = draw(coord.filter(lambda v: v != c))
    return BBox.of(min(a, b), min(c, d), max(a, b), max(c, d))


def _near(edges: tuple[float, ...]):
    """Box edges, the floats right next to them, grid lines and any value."""
    exact = st.sampled_from(edges)
    beside = st.tuples(exact, st.sampled_from((-math.inf, math.inf))).map(
        lambda e: math.nextafter(*e)
    )
    return st.one_of(exact, exact, beside, COORD)


@st.composite
def box_and_geometry(draw, coord=COORD):
    box = draw(boxes(coord))
    lng = _near((box.min.lng, box.max.lng))
    lat = _near((box.min.lat, box.max.lat))
    points = draw(st.lists(st.tuples(lng, lat), min_size=1, max_size=5))
    kind = draw(st.sampled_from(GeometryKind))
    if kind is GeometryKind.POINT:
        return box, Geometry.point(*points[0])
    if kind is GeometryKind.MULTIPOINT:
        return box, Geometry.multipoint(points)
    (x0, y0), (x1, y1) = points[0], draw(st.tuples(lng, lat))
    if x0 == x1 or y0 == y1:
        x1, y1 = x0 + 0.01, y0 + 0.01
    return box, Geometry.other(BBox.of(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)))


@settings(max_examples=300, deadline=None)
@given(box_and_geometry(), st.sampled_from(MODES))
def test_extent_prefilter_never_drops_a_match(case, mode):
    box, geometry = case
    exact = spatial_match(geometry, box, mode)
    by_extent = extent_match(geometry_extent(geometry), box, mode)
    assert by_extent or not exact
    if mode == "include" or geometry.kind is GeometryKind.OTHER:
        assert by_extent == exact


def _geojson(geometry: Geometry) -> dict:
    """The GeoJSON geometry that parses back to `geometry`'s points, or for
    other kinds to a polygon over its box."""
    if geometry.kind is GeometryKind.POINT:
        (p,) = geometry.points
        return {"type": "Point", "coordinates": [p.lng, p.lat]}
    if geometry.kind is GeometryKind.MULTIPOINT:
        return {"type": "MultiPoint", "coordinates": [[p.lng, p.lat] for p in geometry.points]}
    lo, hi = geometry.bbox.min, geometry.bbox.max
    ring = [[lo.lng, lo.lat], [hi.lng, lo.lat], [hi.lng, hi.lat], [lo.lng, hi.lat], [lo.lng, lo.lat]]
    return {"type": "Polygon", "coordinates": [ring]}


MINUTE = st.integers(0, 200).map(lambda m: 60 * m)
SECOND = st.one_of(MINUTE, MINUTE.map(lambda s: s + 1), MINUTE.map(lambda s: s - 1),
                   st.integers(-60, 12_060))


def _span(bound):
    return st.tuples(bound, bound).map(sorted).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    box_and_geometry(st.one_of(_grid(2), _grid(2), COORD)),
    st.sampled_from(MODES),
    st.one_of(st.none(), _span(MINUTE)),
    st.one_of(st.none(), _span(SECOND)),
)
def test_engine_row_filter_never_drops_a_match(case, mode, interval, valid_time):
    box, geometry = case
    raw = {
        "type": "Feature",
        "geometry": _geojson(geometry),
        "properties": {"oid": "o", "tid": "Foo", "uid": "u1", "cid": "poi"},
    }
    if valid_time is not None:
        raw["temporalExtent"] = {"validTime": {"type": "interval", "value": list(valid_time)}}
    feature = parse_feature(raw)
    # a master and a reference of the object, as an engine stores them
    tile = TileId(2, 1200, 4100)
    record = struct.pack("!ddddii16s", *geometry_extent(feature.geometry), 1200, 4100, bytes(16))
    packets = [
        DataPacket(object_name(tile, "Foo", "poi", "u1", "o"),
                   encode_object_payload(False, feature.valid_time, feature.to_json_bytes())),
        DataPacket(object_name(TileId(1, 120, 410), "Foo", "poi", "u1", "o"),
                   encode_object_payload(True, feature.valid_time, record)),
    ]
    rows = [StoredObject.from_packet(pkt, encode_packet_stream([pkt])) for pkt in packets]
    predicate = Predicate(box, mode, interval)
    if _matches(feature, RangeQuery(box, "Foo", "poi", mode=mode, interval=interval)):
        # every row of the object shares its extent and validity
        assert all(row.can_match(predicate) for row in rows)
    # a reference reads its extent from its wire bytes, a master from its GeoJSON
    assert {row.extent() for row in rows} == {geometry_extent(feature.geometry)}


@st.composite
def small_geometries(draw):
    """A geometry of any kind within 0.2 degrees, its corner often on a grid line."""
    lng, lat = draw(COORD), draw(COORD)
    offset = st.one_of(st.sampled_from((0.0, 0.01, 0.1)), st.floats(0.0, 0.2))
    points = [
        (lng + dx, lat + dy)
        for dx, dy in draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=4))
    ]
    kind = draw(st.sampled_from(GeometryKind))
    if kind is GeometryKind.POINT:
        return Geometry.point(*points[0])
    if kind is GeometryKind.MULTIPOINT:
        return Geometry.multipoint(points)
    lngs, lats = [p[0] for p in points], [p[1] for p in points]
    return Geometry.other(BBox.of(min(lngs), min(lats), max(lngs) + 0.01, max(lats) + 0.01))


VALIDITY = st.one_of(
    st.none(), st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)).map(sorted).map(tuple)
)


@settings(max_examples=100, deadline=None)
@given(small_geometries(), VALIDITY)
def test_every_reference_pins_the_master_built_alongside_it(geometry, valid_time):
    feature = Feature("o", "Foo", "u1", "poi", geometry, valid_time, {}, {"oid": "o"})
    packets = build_object_packets(feature, data_signer(make_anchor(scheme=SCHEME_HMAC)))
    m_tile = master_tile(feature)
    (master,) = [p for _, p in packets if not decode_object_payload(p.payload).is_reference]
    assert master.name == object_name(m_tile, "Foo", "poi", "u1", "o")
    pinned = (geometry_extent(geometry), m_tile, master_digest(encode_packet(master)))
    for _, pkt in packets:
        if pkt.name == master.name:
            continue
        payload = decode_object_payload(pkt.payload)
        assert payload.valid_time == valid_time
        assert payload.reference() == pinned
        with pytest.raises(ObjectFormatError):  # a record without its digest
            decode_object_payload(pkt.payload[:-16])


def test_reference_carries_extent_and_master_tile():
    feature = parse_feature(
        {
            "type": "Feature",
            "geometry": {"type": "MultiPoint", "coordinates": [[12.5, 41.2], [13.75, 41.99]]},
            "properties": {"oid": "m", "tid": "Foo", "uid": "u1", "cid": "poi"},
            "temporalExtent": {"validTime": {"type": "interval", "value": [5, 9]}},
        }
    )
    packets = build_object_packets(feature, lambda pkt: pkt)
    m_tile = master_tile(feature)
    master = object_name(m_tile, "Foo", "poi", "u1", "m")
    (master_pkt,) = [pkt for _, pkt in packets if pkt.name == master]
    digest = master_digest(encode_packet(master_pkt))
    for tile, pkt in packets:
        payload = decode_object_payload(pkt.payload)
        assert payload.valid_time == (5, 9)
        if pkt.name == master:
            assert not payload.is_reference
            continue
        assert payload.is_reference
        assert len(payload.body) == 56  # fixed record, independent of the names
        assert payload.reference() == ((12.5, 41.2, 13.75, 41.99), m_tile, digest)


def test_malformed_reference_rejected():
    with pytest.raises(ObjectFormatError):
        decode_object_payload(encode_object_payload(True, None, b"ndn:/OGB/12/41/DATA"))
    with pytest.raises(ObjectFormatError):
        decode_object_payload(encode_object_payload(False, None, b"{}")).reference()
