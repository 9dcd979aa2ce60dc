"""The benchmark's workloads: cluster, data set and seeded operation stream.

All three run on the same four-engine cluster over 12-14 E x 41-43 N, one
level-0 tile per engine. Inputs come from the `geoshard.perfbench`
generators and depend only on the workload and the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from geoshard.cluster import ClusterSpec, UserSpec
from geoshard.geogrid import BBox, TileId
from geoshard.perfbench import dense_lab_features, sparse_features
from geoshard.trust import SCHEME_ED25519, SCHEME_HMAC

from geobench.oracle import LiveSet

REGION = BBox.of(12.0, 41.0, 14.0, 43.0)
# straddles 13 E / 42 N, the corner where all four engines' tiles meet
LAB_WINDOW = BBox.of(12.8, 41.8, 13.2, 42.2)
ENGINES = {
    "e1": [TileId.at(0, 12, 41)],
    "e2": [TileId.at(0, 13, 41)],
    "e3": [TileId.at(0, 12, 42)],
    "e4": [TileId.at(0, 13, 42)],
}
USER = "bench"  # the generators' default owner
K = 50  # tile budget of every range query's tessellation
# R3 low-discrepancy sequence: x^4 = x + 1 gives three mutually irrational steps
_R3 = 1.2207440846057596
R3_STEPS = (1 / _R3, 1 / _R3**2, 1 / _R3**3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: str  # "transit" (sparse multipoints) or "lab" (dense point grid)
    scheme: int
    tid: str
    cid: str
    preload: int  # features loaded before timing (lab: capped by the window)
    query_region: BBox
    side: tuple[float, float]  # square query side, degrees
    use_bf: bool
    intervals: bool  # every other pair of queries carries a time interval
    query_every: int  # 1: read-only; n: one op in n is a query, the rest are writes
    insert_pool: int = 0  # new features available to the write ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="transit_query",
            data="transit",
            why="Ed25519 range queries on sparse multipoints; post-filter, master fetches and Bloom pruning do the work",
            scheme=SCHEME_ED25519,
            tid="Gtfs",
            cid="stops",
            preload=1500,
            query_region=REGION,
            side=(0.05, 0.25),
            use_bf=True,
            intervals=True,
            query_every=1,
        ),
        Workload(
            name="lab_grid",
            data="lab",
            why="HMAC small boxes on a dense grid at the four-engine corner; fan-out, forwarding and codec do the work, no masters or Bloom",
            scheme=SCHEME_HMAC,
            tid="Lab",
            cid="grid",
            preload=1600,
            query_region=LAB_WINDOW,
            side=(0.02, 0.06),
            use_bf=False,
            intervals=False,
            query_every=1,
        ),
        Workload(
            name="transit_churn",
            data="transit",
            why="Ed25519 inserts and deletes beside one query in ten; bulk insert, Bloom publishes and cache invalidation do the work",
            scheme=SCHEME_ED25519,
            tid="Gtfs",
            cid="stops",
            preload=1500,
            query_region=REGION,
            side=(0.05, 0.25),
            use_bf=True,
            intervals=True,
            query_every=10,
            insert_pool=4_000,
        ),
    )
}


def cluster_spec(w: Workload) -> ClusterSpec:
    return ClusterSpec(
        engines={node: list(tiles) for node, tiles in ENGINES.items()},
        tenants={w.tid: [w.cid]},
        users=[UserSpec(w.tid, w.cid, USER, "rw")],
        scheme=w.scheme,
    )


def features(w: Workload, seed: int) -> tuple[list[dict], list[dict]]:
    """(preload, insert pool) feature dicts for the workload and seed."""
    if w.data == "lab":
        box = LAB_WINDOW
        grid = [
            f
            for f in dense_lab_features(12, 41, 2, tid=w.tid, uid=USER, cid=w.cid)
            if box.min.lng <= f["geometry"]["coordinates"][0] <= box.max.lng
            and box.min.lat <= f["geometry"]["coordinates"][1] <= box.max.lat
        ]
        return grid[: w.preload], []
    # transit-like: 2% of level-2 tiles non-void, 1-6 points per feature,
    # half the features with a validity interval
    feats = sparse_features(
        w.preload + w.insert_pool,
        REGION,
        points_per_feature=(1, 6),
        tid=w.tid,
        uid=USER,
        cid=w.cid,
        seed=seed,
        with_intervals=True,
    )
    for i, f in enumerate(feats):
        if i % 2:
            del f["temporalExtent"]
    return feats[: w.preload], feats[w.preload :]


@dataclass(frozen=True)
class QueryOp:
    box: BBox
    mode: str
    interval: tuple[int, int] | None


@dataclass(frozen=True)
class InsertOp:
    feature: dict


@dataclass(frozen=True)
class DeleteOp:
    oid: str


def operations(w: Workload, seed: int, live: LiveSet, pool: list[dict]) -> Iterator:
    """Endless seeded op stream; deletes pick from the live set as it stands.

    Query squares (west edge, south edge, side) follow the R3 sequence from a
    seeded start, so every run covers positions and sizes evenly; iid
    centres (`perfbench.square_queries`) spread twice as much from seed to
    seed in the work per query.
    """
    rng = random.Random(f"{w.name}/{seed}")
    origin = [rng.random() for _ in R3_STEPS]
    region = w.query_region
    inserts = iter(pool)
    queries = 0
    for i in itertools.count():
        if (i + 1) % w.query_every == 0:
            u = [(o + (queries + 1) * a) % 1.0 for o, a in zip(origin, R3_STEPS)]
            side = w.side[0] + (w.side[1] - w.side[0]) * u[2]
            west = region.min.lng + (region.max.lng - region.min.lng - side) * u[0]
            south = region.min.lat + (region.max.lat - region.min.lat - side) * u[1]
            box = BBox.of(west, south, west + side, south + side)
            interval = None
            if w.intervals and queries % 4 >= 2:
                begin = rng.randrange(0, 86_400)
                interval = (begin, begin + rng.randrange(1_800, 21_600))
            mode = "intersect" if queries % 2 == 0 else "include"
            queries += 1
            yield QueryOp(box, mode, interval)
        elif rng.random() < 0.5 or not live:
            feature = next(inserts, None)
            if feature is None:
                raise RuntimeError(f"{w.name}: insert pool of {len(pool)} features exhausted")
            yield InsertOp(feature)
        else:
            yield DeleteOp(live.pick(rng))
