import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshard.frontend import extent_match, spatial_match
from geoshard.geogrid import BBox, Feature, Geometry, GeometryKind, parse_feature
from geoshard.icn.packets import encode_packet
from geoshard.naming import object_name
from geoshard.objects import (
    ObjectFormatError,
    build_object_packets,
    decode_object_payload,
    encode_object_payload,
    geometry_extent,
    master_digest,
    master_tile,
)
from geoshard.trust import SCHEME_HMAC, data_signer, make_anchor

MODES = ("intersect", "include")


def _grid(level: int):
    side = 10**level
    return st.integers(12 * side, 14 * side).map(lambda i: i / side)


COORD = st.one_of(_grid(0), _grid(1), _grid(2), st.floats(12.0, 14.0))


@st.composite
def boxes(draw):
    a = draw(COORD)
    b = draw(COORD.filter(lambda v: v != a))
    c = draw(COORD)
    d = draw(COORD.filter(lambda v: v != c))
    return BBox.of(min(a, b), min(c, d), max(a, b), max(c, d))


def _near(edges: tuple[float, ...]):
    """Box edges, the floats right next to them, grid lines and any value."""
    exact = st.sampled_from(edges)
    beside = st.tuples(exact, st.sampled_from((-math.inf, math.inf))).map(
        lambda e: math.nextafter(*e)
    )
    return st.one_of(exact, exact, beside, COORD)


@st.composite
def box_and_geometry(draw):
    box = draw(boxes())
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
