"""Workload generators: the feature sets the benchmark stores and queries."""

from __future__ import annotations

import random
from typing import Iterator

from geoshard.geogrid import BBox


def dense_lab_features(
    base_lng: int = 12,
    base_lat: int = 41,
    degrees: int = 4,
    tid: str = "Lab",
    uid: str = "bench",
    cid: str = "grid",
) -> Iterator[dict]:
    """One point feature per level-2 tile over a degrees x degrees region."""
    n = degrees * 100
    for i in range(n):
        for j in range(n):
            lng = base_lng + (i + 0.5) / 100.0
            lat = base_lat + (j + 0.5) / 100.0
            yield {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [round(lng, 4), round(lat, 4)]},
                "properties": {"oid": f"d{i}-{j}", "tid": tid, "uid": uid, "cid": cid},
            }


def _below(value: float, edge: float) -> float:
    """A rounded coordinate kept inside the half-open region below `edge`."""
    return value if value < edge else round(edge - 1e-6, 6)


def sparse_features(
    count: int,
    region: BBox,
    nonvoid_fraction: float = 0.02,
    points_per_feature: tuple[int, int] = (2, 30),
    tid: str = "Gtfs",
    uid: str = "bench",
    cid: str = "stops",
    seed: int = 0,
    with_intervals: bool = False,
) -> list[dict]:
    """Synthetic stand-in for the transit data set: multipoint features whose
    points cluster in a small fraction of the level-2 tiles."""
    rng = random.Random(seed)
    lng_tiles = int((region.max.lng - region.min.lng) * 100)
    lat_tiles = int((region.max.lat - region.min.lat) * 100)
    total_tiles = lng_tiles * lat_tiles
    n_nonvoid = max(1, int(total_tiles * nonvoid_fraction))
    cells = rng.sample(range(total_tiles), min(n_nonvoid, total_tiles))
    out = []
    for f in range(count):
        npts = rng.randint(*points_per_feature)
        pts = []
        for _ in range(npts):
            cell = rng.choice(cells)
            ci, cj = divmod(cell, lat_tiles)
            pts.append(
                [
                    _below(round(region.min.lng + (ci + rng.random()) / 100.0, 6), region.max.lng),
                    _below(round(region.min.lat + (cj + rng.random()) / 100.0, 6), region.max.lat),
                ]
            )
        feature = {
            "type": "Feature",
            "geometry": {"type": "MultiPoint", "coordinates": pts},
            "properties": {"oid": f"s{f}", "tid": tid, "uid": uid, "cid": cid,
                           "URL": f"https://transit.example/{f}.zip"},
        }
        if with_intervals:
            a = rng.randrange(0, 86_400)
            feature["temporalExtent"] = {
                "validTime": {"type": "interval", "value": [a, a + rng.randrange(300, 7200)]}
            }
        out.append(feature)
    return out
