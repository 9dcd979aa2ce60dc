"""Analytical batch model, constant fitting, workload generators, runners.

The per-query processing model is ``TQp = C1 + C2 * Ni``; a batch of Nq
tile-queries spread over Ndb engines with cache-hit probability H lasts

    TB = C3 + Nq * ((1-H) * Pdb/Ndb + Pqh) * TQp + Nq * Ni * Ds / Bw

The in-process batch runner realizes that structure in two phases: a fetch
phase (per-engine sequential streams; the engine sleeps its injected share
of TQp per miss, responses pass the shared token-bucket link) and a serial
decode/verify phase that pays the query-handler share. Desk-scale absolute
milliseconds are not meaningful; the fitted constants and the model shape
are.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from geoshard.cluster import Cluster
from geoshard.engine import CostModel
from geoshard.frontend import Frontend
from geoshard.geogrid import BBox, TileId
from geoshard.icn.packets import DataPacket, decode_packet_stream
from geoshard.naming import tile_query_name

KM_PER_DEGREE = 100.0  # benchmark axis labeling only


# --- the analytical model ------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    c1_ms: float = 3.0
    c2_ms: float = 0.008
    c3_ms: float = 20.0
    p_db: float = 0.85
    p_qh: float = 0.15
    d_s_bytes: float = 55.0
    b_w_bps: float = 200e6
    h: float = 0.0
    n_db: int = 1
    n_q: int = 1
    n_i: float = 1.0

    def __post_init__(self):
        if abs(self.p_db + self.p_qh - 1.0) > 1e-9:
            raise ValueError("p_db + p_qh must equal 1")
        if not (0.0 <= self.h <= 1.0):
            raise ValueError("h must be in [0, 1]")
        if min(self.c1_ms, self.c2_ms, self.c3_ms, self.d_s_bytes, self.n_i) < 0:
            raise ValueError("negative model parameter")
        if self.n_db < 1 or self.n_q < 1 or self.b_w_bps <= 0:
            raise ValueError("bad model parameter")

    @classmethod
    def of(cls, p_db: float = 0.85, **kw) -> "ModelParams":
        return cls(p_db=p_db, p_qh=1.0 - p_db, **kw)


def model_tq(p: ModelParams) -> float:
    """Single tile-query processing time, ms."""
    return p.c1_ms + p.c2_ms * p.n_i


def model_tb(p: ModelParams) -> float:
    """Total batch duration, ms."""
    coef = (1.0 - p.h) * p.p_db / p.n_db + p.p_qh
    transmission_ms = p.n_q * p.n_i * p.d_s_bytes * 8.0 / p.b_w_bps * 1000.0
    return p.c3_ms + p.n_q * coef * model_tq(p) + transmission_ms


# --- fitting ---------------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    n_q: int
    n_i: float
    n_db: int
    h: float
    d_s_bytes: float
    b_w_bps: float
    tb_ms: float


@dataclass(frozen=True)
class FittedModel:
    c1_ms: float
    c2_ms: float
    c3_ms: float
    p_db: float
    r_squared: float

    @property
    def p_qh(self) -> float:
        return 1.0 - self.p_db

    def params(self, m: Measurement) -> ModelParams:
        return ModelParams(
            self.c1_ms, self.c2_ms, self.c3_ms, self.p_db, self.p_qh,
            m.d_s_bytes, m.b_w_bps, m.h, m.n_db, m.n_q, m.n_i,
        )

    def predict(self, m: Measurement) -> float:
        return model_tb(self.params(m))


def fit_constants(measurements: Sequence[Measurement]) -> FittedModel:
    """Least-squares fit of C1, C2, C3 and the processing split.

    Linear in the products (C3, Pdb*C1, Pdb*C2, Pqh*C1, Pqh*C2); the split
    is recovered algebraically, so the fit is exact on noiseless model data.
    Raises on designs that cannot identify the parameters.
    """
    if len(measurements) < 3:
        raise ValueError("need at least 3 measurements")
    rows, rhs = [], []
    for m in measurements:
        db_load = m.n_q * (1.0 - m.h) / m.n_db
        rows.append([1.0, db_load, db_load * m.n_i, m.n_q, m.n_q * m.n_i])
        tx = m.n_q * m.n_i * m.d_s_bytes * 8.0 / m.b_w_bps * 1000.0
        rhs.append(m.tb_ms - tx)
    a = np.asarray(rows)
    y = np.asarray(rhs)
    if np.linalg.matrix_rank(a) < 5:
        raise ValueError("rank-deficient design matrix: vary n_q, n_i, n_db or h")
    # weight rows by 1/TB: measurement noise is proportional to the duration
    w = 1.0 / np.maximum(np.asarray([m.tb_ms for m in measurements]), 1e-9)
    coef, *_ = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)
    c3, pa, pb, qa, qb = coef
    c1 = pa + qa
    c2 = pb + qb
    mean_ni = float(np.mean([m.n_i for m in measurements]))
    denom = c1 + c2 * mean_ni
    p_db = float((pa + pb * mean_ni) / denom) if denom else 0.0
    p_db = min(max(p_db, 0.0), 1.0)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FittedModel(float(c1), float(c2), float(c3), p_db, r2)


# --- workload generators -----------------------------------------------------------


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


def dense_lab_count(degrees: int = 4) -> int:
    return (degrees * 100) ** 2


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


def uniform_tile_batch(
    region: BBox, level: int, count: int, seed: int = 0, distinct: bool = False
) -> list[TileId]:
    """Uniformly distributed tile-queries over the region.

    With ``distinct`` the tiles are sampled without replacement so every
    query in the batch names a different tile.
    """
    rng = random.Random(seed)
    scale = 10 ** level
    i0, i1 = int(region.min.lng * scale), int(region.max.lng * scale) - 1
    j0, j1 = int(region.min.lat * scale), int(region.max.lat * scale) - 1
    if distinct:
        cols, rows = i1 - i0 + 1, j1 - j0 + 1
        if count > cols * rows:
            raise ValueError(f"only {cols * rows} distinct tiles available")
        cells = rng.sample(range(cols * rows), count)
        return [TileId(level, i0 + c // rows, j0 + c % rows) for c in cells]
    return [
        TileId(level, rng.randint(i0, i1), rng.randint(j0, j1)) for _ in range(count)
    ]


def square_queries(
    region: BBox, area_km2: float, count: int, seed: int = 0
) -> list[BBox]:
    """Randomly centered square boxes of the given area, inside the region."""
    rng = random.Random(seed)
    side = math.sqrt(area_km2) / KM_PER_DEGREE
    out = []
    for _ in range(count):
        cx = rng.uniform(region.min.lng + side / 2, region.max.lng - side / 2)
        cy = rng.uniform(region.min.lat + side / 2, region.max.lat - side / 2)
        out.append(BBox.of(cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2))
    return out


def poisson_arrivals(rate_hz: float, count: int, seed: int = 0) -> list[float]:
    """Cumulative arrival instants with exponential inter-arrival gaps."""
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate_hz)
        out.append(t)
    return out


# --- batch runner -------------------------------------------------------------------


@dataclass
class BatchResult:
    n_q: int
    n_db: int
    h: float
    n_i_mean: float
    d_s_mean: float
    wall_ms: float
    fetch_ms: float
    process_ms: float
    items: int

    def to_measurement(self, b_w_bps: float) -> Measurement:
        return Measurement(
            self.n_q, self.n_i_mean, self.n_db, self.h, self.d_s_mean, b_w_bps, self.wall_ms
        )


def _owning_engine(cluster: Cluster, tile: TileId) -> str:
    l0 = tile
    while l0.level > 0:
        l0 = TileId(l0.level - 1, l0.lng_idx // 10, l0.lat_idx // 10)
    for node, tiles in cluster.spec.engines.items():
        if l0 in tiles:
            return node
    raise ValueError(f"no engine owns {tile}")


def run_tile_batch(
    cluster: Cluster,
    frontend: Frontend,
    tiles: Sequence[TileId],
    tid: str,
    cid: str,
    *,
    warm_fraction: float = 0.0,
    c3_ms: float | None = None,
    verify: bool = True,
) -> BatchResult:
    """Fetch-then-process tile-query batch against the running cluster.

    Warm phase: the first `warm_fraction` of the batch names is queried once
    so the engine-side content stores hold them (requires a non-zero query
    freshness in the cluster spec). Timed phase: per-engine sequential fetch
    streams, then one serial decode/verify pass over all responses.
    """
    cost = cluster.spec.cost
    names = [tile_query_name(t, tid, cid) for t in tiles]
    by_engine: dict[str, list] = {}
    for tile, name in zip(tiles, names):
        by_engine.setdefault(_owning_engine(cluster, tile), []).append(name)

    sign = frontend._sign_interest
    consumer = frontend.consumer

    def fetch_stream(engine_names: list) -> list[bytes]:
        return [
            consumer.get(n, lifetime_ms=frontend.lifetime_ms, retries=frontend.retries, sign=sign)
            for n in engine_names
        ]

    n_warm = int(round(warm_fraction * len(names)))
    if n_warm:
        warm_by_engine: dict[str, list] = {}
        for tile, name in zip(tiles[:n_warm], names[:n_warm]):
            warm_by_engine.setdefault(_owning_engine(cluster, tile), []).append(name)
        with ThreadPoolExecutor(max_workers=max(1, len(warm_by_engine))) as pool:
            list(pool.map(fetch_stream, warm_by_engine.values()))

    import gc

    gc.collect()  # keep collector pauses out of the timed window
    t0 = time.perf_counter()
    if c3_ms is None and cost is not None:
        c3_ms = cost.c3_ms
    if c3_ms:
        time.sleep(c3_ms / 1000.0)
    with ThreadPoolExecutor(max_workers=max(1, len(by_engine))) as pool:
        streams = list(pool.map(fetch_stream, by_engine.values()))
    t1 = time.perf_counter()

    # serial query-handler phase: decode, verify, pay the qh share
    items = 0
    transported_bytes = 0
    validator = frontend.validator
    for stream in streams:
        for raw in stream:
            transported_bytes += len(raw)
            packets = decode_packet_stream(raw)
            items += len(packets)
            if verify:
                for pkt in packets:
                    if isinstance(pkt, DataPacket):
                        validator.verify_data(pkt)
            if cost is not None:
                time.sleep(cost.query_ms(len(packets)) * cost.p_qh / 1000.0)
    t2 = time.perf_counter()

    n_q = len(names)
    return BatchResult(
        n_q=n_q,
        n_db=len(cluster.spec.engines),
        h=warm_fraction,
        n_i_mean=items / n_q if n_q else 0.0,
        d_s_mean=transported_bytes / items if items else 0.0,
        wall_ms=(t2 - t0) * 1000.0,
        fetch_ms=(t1 - t0) * 1000.0,
        process_ms=(t2 - t1) * 1000.0,
        items=items,
    )


def clear_engine_caches(cluster: Cluster) -> None:
    for node in cluster.engines.values():
        node.forwarder.cs_clear()


# --- stability test and max-rate search -----------------------------------------------


def mann_kendall_rising(samples: Sequence[float], alpha: float = 0.05) -> bool:
    """True when the series shows a statistically significant rising trend."""
    n = len(samples)
    if n < 8:
        return False
    s = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            diff = samples[j] - samples[i]
            s += (diff > 0) - (diff < 0)
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if var == 0:
        return False
    z = (s - 1) / math.sqrt(var) if s > 0 else (s + 1) / math.sqrt(var)
    p_one_sided = 0.5 * math.erfc(z / math.sqrt(2.0))
    return s > 0 and p_one_sided < alpha


def run_open_loop(
    call: Callable[[int], None],
    count: int,
    rate_hz: float,
    workers: int = 16,
    seed: int = 0,
) -> list[float]:
    """Issue `count` calls at Poisson arrivals; returns latencies (seconds)
    measured from the scheduled arrival, in arrival order."""
    arrivals = poisson_arrivals(rate_hz, count, seed)
    latencies = [0.0] * count
    start = time.perf_counter()

    def one(idx: int) -> None:
        target = start + arrivals[idx]
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        call(idx)
        latencies[idx] = time.perf_counter() - target

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(one, range(count)))
    return latencies


@dataclass
class RateSearchResult:
    max_stable_rate_hz: float
    lowest_unstable_rate_hz: float
    probes: list[tuple[float, bool]] = field(default_factory=list)


def max_rate_search(
    probe: Callable[[float], Sequence[float]],
    start_rate_hz: float,
    resolution: float = 0.25,
    alpha: float = 0.05,
    max_doublings: int = 12,
) -> RateSearchResult:
    """Bisection for the highest rate with stable (non-rising) latency.

    `probe(rate)` runs a window at that rate and returns latencies in
    arrival order; stability is the Mann-Kendall trend test at `alpha`.
    """
    probes: list[tuple[float, bool]] = []

    def stable(rate: float) -> bool:
        ok = not mann_kendall_rising(list(probe(rate)), alpha)
        probes.append((rate, ok))
        return ok

    lo = start_rate_hz
    if not stable(lo):
        # walk down until stable
        for _ in range(max_doublings):
            lo /= 2.0
            if stable(lo):
                break
        else:
            return RateSearchResult(0.0, start_rate_hz, probes)
        hi = lo * 2.0
    else:
        hi = lo * 2.0
        for _ in range(max_doublings):
            if not stable(hi):
                break
            lo, hi = hi, hi * 2.0
        else:
            return RateSearchResult(lo, math.inf, probes)
    while (hi - lo) / lo > resolution:
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return RateSearchResult(lo, hi, probes)


# --- CSV helpers ------------------------------------------------------------------------


def write_csv(path_or_file, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import csv

    close = False
    if isinstance(path_or_file, str):
        fh = open(path_or_file, "w", newline="")
        close = True
    else:
        fh = path_or_file
    try:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if close:
            fh.close()
