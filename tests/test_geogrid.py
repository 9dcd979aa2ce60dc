import random

import pytest

from geoshard.geogrid import (
    BBox,
    FeatureError,
    GeoCoord,
    Geometry,
    GridError,
    TileId,
    children,
    intersecting_tiles,
    parent,
    parse_feature,
    parse_tile_prefix,
    tile_of,
    tile_prefix,
    tile_span,
    tiles_overlapping_box,
)
from geoshard.icn.names import Name
from geoshard.tessellate import constrained_tessellation
from grid_reference import tile_bbox


def test_tile_of_reference_point():
    t = tile_of(GeoCoord(12.51133, 41.8919), 2)
    assert t == TileId.at(2, 12.51, 41.89)


def test_tile_of_grid_aligned_point():
    assert tile_of(GeoCoord(12.0, 41.0), 0) == TileId.at(0, 12, 41)


def test_tile_of_negative_coordinates():
    assert tile_of(GeoCoord(-0.37, 51.52), 1) == TileId.at(1, -0.4, 51.5)


def test_tile_of_boundary_value_snaps_onto_grid():
    # 41.9 is not exactly representable; the point still lands in its own tile
    t = tile_of(GeoCoord(12.0, 41.9), 1)
    assert (t.lng_idx, t.lat_idx) == (120, 419)


def test_tile_of_rejects_open_boundary():
    with pytest.raises(GridError):
        tile_of(GeoCoord(180.0, 0.0), 0)
    with pytest.raises(GridError):
        tile_of(GeoCoord(0.0, 90.0), 1)


def test_tile_prefix_reference_rendering():
    name = tile_prefix(TileId.at(2, 12.51, 41.89))
    assert name.to_uri() == "ndn:/OGB/12/41/58/19/GPS-ID"


def test_tile_prefix_level0():
    assert tile_prefix(TileId.at(0, 12, 41)).to_uri() == "ndn:/OGB/12/41/GPS-ID"


def test_tile_prefix_negative_sw():
    assert tile_prefix(TileId.at(1, -0.4, 51.5)).to_uri() == "ndn:/OGB/-1/51/65/GPS-ID"


def test_parse_tile_prefix_inverse():
    assert parse_tile_prefix(Name.parse("ndn:/OGB/12/41/58/19/GPS-ID")) == TileId.at(2, 12.51, 41.89)
    assert parse_tile_prefix(Name.parse("ndn:/OGB/12/41/GPS-ID")) == TileId.at(0, 12, 41)


@pytest.mark.parametrize(
    "bad",
    [
        "ndn:/OGB/12/41/5/GPS-ID",  # one-digit decimal component
        "ndn:/OGB/12/41/5a/GPS-ID",
        "ndn:/OGB/12/41/58/19",  # missing GPS-ID
        "ndn:/XYZ/12/41/GPS-ID",
        "ndn:/OGB/1.2/41/GPS-ID",
        "ndn:/OGB/12/41/58/19/00/GPS-ID",  # too deep
    ],
)
def test_parse_tile_prefix_malformed(bad):
    with pytest.raises(GridError):
        parse_tile_prefix(Name.parse(bad))


def test_roundtrip_random_tiles():
    rng = random.Random(7)
    for _ in range(500):
        level = rng.choice((0, 1, 2))
        s = 10 ** level
        t = TileId(level, rng.randrange(-180 * s, 180 * s), rng.randrange(-90 * s, 90 * s))
        assert parse_tile_prefix(tile_prefix(t)) == t


def test_containment_random_points():
    rng = random.Random(11)
    for _ in range(500):
        c = GeoCoord(rng.uniform(-179.99, 179.99), rng.uniform(-89.99, 89.99))
        level = rng.choice((0, 1, 2))
        box = tile_bbox(tile_of(c, level))
        assert box.min.lng <= c.lng < box.max.lng + 1e-9
        assert box.min.lat <= c.lat < box.max.lat + 1e-9


def test_prefix_hierarchy():
    rng = random.Random(13)
    for _ in range(200):
        s = 100
        t = TileId(2, rng.randrange(-180 * s, 180 * s), rng.randrange(-90 * s, 90 * s))
        p = parent(t)
        assert tile_prefix(p).components[:-1] == tile_prefix(t).components[: len(tile_prefix(p)) - 1]
        assert tile_prefix(p)[:-1].is_prefix_of(tile_prefix(t)[:-1])


def test_tile_bbox_values():
    assert tile_bbox(TileId.at(0, 12, 41)) == BBox.of(12, 41, 13, 42)
    assert tile_bbox(TileId.at(2, 12.51, 41.89)) == BBox.of(12.51, 41.89, 12.52, 41.9)
    b = tile_bbox(TileId.at(1, -0.4, 51.5))
    assert abs(b.min.lng - -0.4) < 1e-12 and abs(b.max.lng - -0.3) < 1e-12


def test_children_partition_and_parent_inverse():
    t = TileId.at(0, 12, 41)
    kids = children(t)
    assert len(kids) == 100
    assert len(set(kids)) == 100
    sws = {(k.lng_idx, k.lat_idx) for k in kids}
    assert sws == {(120 + a, 410 + b) for a in range(10) for b in range(10)}
    for k in kids:
        assert parent(k) == t


def test_parent_paper_examples():
    assert parent(TileId.at(2, 12.51, 41.89)) == TileId.at(1, 12.5, 41.8)
    assert parent(TileId.at(1, 12.5, 41.8)) == TileId.at(0, 12, 41)


def test_level_bounds_errors():
    with pytest.raises(GridError):
        children(TileId.at(2, 12.51, 41.89))
    with pytest.raises(GridError):
        parent(TileId.at(0, 12, 41))


def test_intersecting_tiles_point():
    g = Geometry.point(12.51133, 41.8919)
    assert intersecting_tiles(g, 2) == {TileId.at(2, 12.51, 41.89)}


def test_intersecting_tiles_multipoint_single_tile():
    g = Geometry.multipoint([(12.511, 41.891), (12.519, 41.899)])
    assert intersecting_tiles(g, 2) == {TileId.at(2, 12.51, 41.89)}


def test_intersecting_tiles_multipoint_two_tiles():
    g = Geometry.multipoint([(12.511, 41.891), (13.2, 41.1)])
    assert intersecting_tiles(g, 0) == {TileId.at(0, 12, 41), TileId.at(0, 13, 41)}


def test_intersecting_tiles_other_uses_bbox():
    g = Geometry.other(BBox.of(12.505, 41.895, 12.515, 41.905))
    assert len(intersecting_tiles(g, 2)) == 4


def test_tile_span_is_closed_over_half_open_tiles():
    assert tile_span(12.05, 12.25, 10) == (120, 122)
    # an upper edge on a grid line meets the tile beyond it, where a point on
    # the edge is stored
    assert tile_span(12.0, 12.3, 10) == (120, 123)
    assert tile_span(12.0, 12.3, 10)[1] == tile_of(GeoCoord(12.3, 41.0), 1).lng_idx
    # within GRID_EPS of a line counts as on it, as for tile_of
    assert tile_span(12.0, 12.3 - 1e-12, 10) == (120, 123)
    assert tile_span(11.999999999999998, 12.0, 100) == (1200, 1200)
    # a lower edge on a line starts at the tile it owns
    assert tile_span(12.1, 12.15, 10) == (121, 121)


def test_tile_span_is_clamped_at_the_grid_edge():
    assert tile_span(179.5, 180.0, 10, 180.0) == (1795, 1799)
    assert tile_span(179.99999999999, 180.0, 100, 180.0) == (17999, 17999)
    assert tile_span(89.9, 90.0, 1, 90.0) == (89, 89)


def test_box_reaching_lng_180_and_lat_90_covers():
    box = BBox.of(179.9, 89.9, 180.0, 90.0)
    for level in (0, 1, 2):
        tiles = tiles_overlapping_box(box, level)
        assert max(tiles).lng_idx == 180 * 10**level - 1
        assert max(t.lat_idx for t in tiles) == 90 * 10**level - 1
    for k in (1, 5, 50):
        t = constrained_tessellation(box, k)
        assert t.tiles and t.constraint_respected


def test_box_geometry_below_a_line_by_rounding_has_tiles_at_every_level():
    # its south edge snaps onto 12.0, which is also its north edge
    g = Geometry.other(BBox.of(12.0, 11.999999999999998, 12.01, 12.0))
    assert intersecting_tiles(g, 2) == {TileId(2, 1200, 1200), TileId(2, 1201, 1200)}
    assert intersecting_tiles(g, 0) == {TileId(0, 12, 12)}


def test_intersecting_tiles_other_meets_the_tiles_beyond_its_edges():
    g = Geometry.other(BBox.of(12.5, 41.8, 12.6, 41.9))
    assert intersecting_tiles(g, 1) == {
        TileId.at(1, 12.5, 41.8), TileId.at(1, 12.6, 41.8),
        TileId.at(1, 12.5, 41.9), TileId.at(1, 12.6, 41.9),
    }
    assert len(intersecting_tiles(g, 2)) == 11 * 11


def test_bbox_rejects_reversed_and_antimeridian():
    with pytest.raises(GridError):
        BBox.of(10, 10, 9, 11)
    with pytest.raises(GridError):
        # a box "crossing" the antimeridian would need min.lng > max.lng
        BBox.of(179.5, 0, -179.5, 1)


FEATURE = {
    "type": "Feature",
    "geometry": {"type": "Point", "coordinates": [12.51133, 41.8919]},
    "properties": {"oid": "o1", "tid": "Foo", "uid": "u1", "cid": "poi", "name": "Starbucks"},
    "temporalExtent": {"validTime": {"type": "interval", "value": [24807931, 24807931]}},
}


def test_parse_feature_roundtrip():
    f = parse_feature(FEATURE)
    assert (f.oid, f.tid, f.uid, f.cid) == ("o1", "Foo", "u1", "poi")
    assert f.valid_time == (24807931, 24807931)
    assert f.geometry.points[0] == GeoCoord(12.51133, 41.8919)
    f2 = parse_feature(f.to_json_bytes())
    assert f2.oid == f.oid and f2.geometry == f.geometry


def test_parse_feature_multipoint_and_other():
    mp = parse_feature(
        {
            "type": "Feature",
            "geometry": {"type": "MultiPoint", "coordinates": [[1.0, 2.0], [3.0, 4.0]]},
            "properties": {"oid": "a", "tid": "t", "uid": "u", "cid": "c"},
        }
    )
    assert len(mp.geometry.points) == 2
    poly = parse_feature(
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]],
            },
            "properties": {"oid": "p", "tid": "t", "uid": "u", "cid": "c"},
        }
    )
    assert poly.geometry.kind.value == "Other"
    assert poly.geometry.bbox.max.lng == 2.0


@pytest.mark.parametrize("missing", ["oid", "tid", "uid", "cid"])
def test_parse_feature_missing_property(missing):
    obj = {k: (dict(v) if isinstance(v, dict) else v) for k, v in FEATURE.items()}
    obj["properties"] = {k: v for k, v in FEATURE["properties"].items() if k != missing}
    with pytest.raises(FeatureError):
        parse_feature(obj)


def test_parse_feature_rejects_garbage():
    with pytest.raises(FeatureError):
        parse_feature("not json at all")
    with pytest.raises(FeatureError):
        parse_feature({"type": "FeatureCollection"})
