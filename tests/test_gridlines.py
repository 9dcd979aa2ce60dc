"""Range queries whose points, box edges and interval ends lie on grid lines.

Every query here must return exactly what the linear-scan oracle of
``test_frontend`` returns. The property test draws from the grid's own
lines, so its inputs land where the closed query box meets the half-open
tiles; run it with ``--hypothesis-profile=ci`` for a larger example budget.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshard.cluster import Cluster
from geoshard.frontend import RangeQuery
from geoshard.geogrid import BBox, TileId, parse_feature
from test_frontend import _oracle, feature_dict, make_spec

MODES = ("intersect", "include")

# each point lies on the north-east corner of its box or on one of its edges;
# the last box holds all three
POINTS = {"ne": (12.6, 41.9), "engine-edge": (13.0, 41.5), "north": (12.5, 42.0)}
REPROS = [
    (BBox.of(12.5, 41.8, 12.6, 41.9), {"ne"}),
    (BBox.of(12.9, 41.4, 13.0, 41.5), {"engine-edge"}),  # where e1 meets e2
    (BBox.of(12.4, 41.9, 12.5, 42.0), {"north"}),
    (BBox.of(12.4, 41.5, 13.0, 42.0), set(POINTS)),
]


@pytest.fixture(scope="module")
def repro_cluster():
    cluster = Cluster(make_spec())
    fe = cluster.frontend_as("Foo", "poi", "u1")
    features = [feature_dict(oid, point) for oid, point in POINTS.items()]
    for obj in features:
        assert fe.insert(obj).ok
    yield fe, features
    cluster.close()


@pytest.mark.parametrize("use_bf", [False, True])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 5, 50])
@pytest.mark.parametrize("case", range(len(REPROS)))
def test_point_on_a_grid_line_at_the_box_edge_is_returned(repro_cluster, case, k, mode, use_bf):
    fe, features = repro_cluster
    box, expected = REPROS[case]
    q = RangeQuery(box, "Foo", "poi", mode=mode, k=k, use_bf=use_bf)
    assert _oracle(features, q) == expected
    assert fe.range_query(q).oids == expected


def test_feature_below_a_grid_line_by_rounding_is_stored_and_returned():
    # the extent's south edge is one rounding step below 12 N, its north edge
    # on it: both lie in the level-2 row at 12.00
    cluster = Cluster(make_spec(engines={"e1": [TileId.at(0, 12, 11)], "e2": [TileId.at(0, 12, 12)]}))
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        (x0, y0), (x1, y1) = (12.0, 11.999999999999998), (12.01, 12.0)
        geometry = {"type": "Polygon", "coordinates": [
            [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
        ]}
        obj = feature_dict("sliver", (0, 0))
        obj["geometry"] = geometry
        assert parse_feature(obj).geometry.bbox == BBox.of(x0, y0, x1, y1)
        assert fe.insert(obj).ok
        q = RangeQuery(BBox.of(12.001, 11.995, 12.005, 12.005), "Foo", "poi", k=5)
        assert fe.range_query(q).oids == {"sliver"}
    finally:
        cluster.close()


# --- the property suite ---------------------------------------------------------

# The make_spec() cluster serves 12..14 E x 41..43 N; points and box edges stay
# inside it, so no query reaches a tile without an engine.
def _lines(lo: int, hi: int, level: int):
    side = 10**level
    return st.integers(lo * side, hi * side - 1).map(lambda i: i / side)


def _axis(lo: int, hi: int):
    lines = st.one_of(*(_lines(lo, hi, level) for level in (0, 1, 2)))
    beside = st.tuples(lines, st.sampled_from((-math.inf, math.inf))).map(
        lambda e: math.nextafter(*e)
    )
    # a value within GRID_EPS below `hi` lies on it, outside the served area
    return st.one_of(lines, lines, beside, st.floats(lo, hi)).filter(lambda v: lo <= v < hi - 1e-6)


LNG, LAT = _axis(12, 14), _axis(41, 43)
POINT = st.tuples(LNG, LAT)
# a point across the engines' boundary at 13 E or 42 N from another
STRADDLE = st.tuples(
    st.sampled_from((12.99, 12.999999, 13.0, 13.01)), st.sampled_from((41.99, 41.999999, 42.0, 42.01))
)
MINUTE = st.integers(0, 300).map(lambda m: 60 * m)
SECOND = st.one_of(MINUTE, MINUTE.map(lambda s: s + 1), MINUTE.map(lambda s: s - 1),
                   st.integers(0, 18_000))


@st.composite
def grid_features(draw):
    points = draw(st.lists(st.one_of(POINT, POINT, STRADDLE), min_size=1, max_size=4))
    obj = feature_dict("", points, multi=True) if len(points) > 1 else feature_dict("", points[0])
    valid = draw(st.none() | st.tuples(SECOND, SECOND).map(sorted))
    if valid is not None:
        obj["temporalExtent"] = {"validTime": {"type": "interval", "value": list(valid)}}
    return obj


@st.composite
def grid_queries(draw, near: list[tuple[float, float]]):
    """A query whose edges lie on grid lines or on the drawn features' points."""
    lng = st.one_of(LNG, st.sampled_from([p[0] for p in near]))
    lat = st.one_of(LAT, st.sampled_from([p[1] for p in near]))
    x0, x1 = sorted((draw(lng), draw(lng)))
    y0, y1 = sorted((draw(lat), draw(lat)))
    if x0 == x1 or y0 == y1:
        x1, y1 = max(x1, x0 + 0.01), max(y1, y0 + 0.01)
    start = draw(MINUTE)
    interval = draw(st.none() | st.sampled_from([
        (start, start + 60), (start, start + 600), (start + 1, start + 3_599), (start, start + 7_200)
    ]))
    return RangeQuery(
        BBox.of(x0, y0, min(x1, 13.999999), min(y1, 42.999999)),
        "Foo",
        "poi",
        mode=draw(st.sampled_from(MODES)),
        interval=interval,
        k=draw(st.integers(1, 60)),
        use_bf=draw(st.booleans()),
    )


def _coordinates(obj: dict) -> list:
    geometry = obj["geometry"]
    return [geometry["coordinates"]] if geometry["type"] == "Point" else geometry["coordinates"]


@pytest.fixture(scope="module")
def property_cluster():
    cluster = Cluster(make_spec())
    yield cluster.frontend_as("Foo", "poi", "u1"), []
    cluster.close()


@settings(deadline=None)  # the budget comes from the profile (tests/conftest.py)
@given(data=st.data())
def test_grid_line_queries_match_the_oracle(property_cluster, data):
    fe, stored = property_cluster
    drawn = data.draw(st.lists(grid_features(), min_size=1, max_size=3))
    for obj in drawn:
        obj["properties"]["oid"] = f"g{len(stored)}"
        assert fe.insert(obj).ok
        stored.append(obj)
    near = [tuple(p) for obj in drawn for p in _coordinates(obj)]
    q = data.draw(grid_queries(near))
    assert fe.range_query(q).oids == _oracle(stored, q)
