import hashlib
import json

from geoshard.geogrid import BBox
from geoshard.perfbench import dense_lab_features, sparse_features
from grid_reference import contains_box


def test_dense_lab_counts():
    feats = list(dense_lab_features(degrees=1))
    assert len(feats) == 10_000
    f = feats[0]
    assert f["properties"]["tid"] == "Lab"
    x, y = f["geometry"]["coordinates"]
    assert 12 <= x < 13 and 41 <= y < 42


def test_sparse_features_density():
    region = BBox.of(12, 41, 14, 43)
    feats = sparse_features(200, region, nonvoid_fraction=0.01, seed=3)
    assert len(feats) == 200
    cells = set()
    for f in feats:
        for x, y in f["geometry"]["coordinates"]:
            assert contains_box(region, BBox.of(x, y, x + 1e-9, y + 1e-9))
            cells.add((int(x * 100), int(y * 100)))
    total = (2 * 100) ** 2
    assert len(cells) <= 0.011 * total  # points stay in the chosen cells


def _transit(seed, count):
    """The benchmark's transit data set: 1-6 points per feature over 12-14 E x 41-43 N."""
    region = BBox.of(12, 41, 14, 43)
    return sparse_features(
        count, region, points_per_feature=(1, 6), tid="Gtfs", uid="bench", cid="stops",
        seed=seed, with_intervals=True,
    )


def test_sparse_features_stay_off_the_north_and_east_edges():
    # each of these seeds draws one point that rounds onto the region's edge
    for seed, count in ((8, 3500), (26, 1000), (30, 600)):
        for f in _transit(seed, count):
            for x, y in f["geometry"]["coordinates"]:
                assert 12 <= x < 14 and 41 <= y < 43


def test_sparse_features_unchanged_off_the_edges():
    # digest of the data before edge points were clamped, with those points
    # replaced by their clamped values (13.999999 or 42.999999)
    digest = hashlib.sha256()
    for seed in range(1, 61):
        digest.update(json.dumps(_transit(seed, 1000)).encode())
    assert digest.hexdigest() == "ce39cc3349342c63019ce35eeffce3a5eda227a27a03ca25928af5bc286d3504"
