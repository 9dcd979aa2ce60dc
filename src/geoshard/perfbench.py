"""The paper's analytic batch model, constant fitting, workload generators,
and an open-loop load runner with a stability search.

The per-query processing model is ``TQp = C1 + C2 * Ni``; a batch of Nq
tile-queries spread over Ndb engines with cache-hit probability H lasts

    TB = C3 + Nq * ((1-H) * Pdb/Ndb + Pqh) * TQp + Nq * Ni * Ds / Bw

This is the paper's model, kept as an analytic reference: `fit_constants`
recovers its constants from measurements that follow it, and nothing in
the package fits it to measured runs of the engines. It does not describe
them: a least-squares fit of TQp = C1 + C2 * Ni over 3,169 tile queries
that missed the engine cache in the benchmark's ``transit_query`` workload
gave r^2 = 0.001.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from geoshard.geogrid import BBox, TileId

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
