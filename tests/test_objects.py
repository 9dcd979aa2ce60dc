import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshard.frontend import extent_match, spatial_match
from geoshard.geogrid import BBox, Geometry, GeometryKind, parse_feature
from geoshard.naming import object_name
from geoshard.objects import (
    ObjectFormatError,
    build_object_packets,
    decode_object_payload,
    encode_object_payload,
    geometry_extent,
    master_tile,
)

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
    for tile, pkt in packets:
        payload = decode_object_payload(pkt.payload)
        assert payload.valid_time == (5, 9)
        if pkt.name == master:
            assert not payload.is_reference
            continue
        assert payload.is_reference
        assert len(payload.body) == 40  # fixed record, independent of the names
        assert payload.reference() == ((12.5, 41.2, 13.75, 41.99), m_tile)


def test_malformed_reference_rejected():
    with pytest.raises(ObjectFormatError):
        decode_object_payload(encode_object_payload(True, None, b"ndn:/OGB/12/41/DATA"))
    with pytest.raises(ObjectFormatError):
        decode_object_payload(encode_object_payload(False, None, b"{}")).reference()
