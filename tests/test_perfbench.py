import hashlib
import json
import math
import random
import time

import pytest

from geoshard.geogrid import BBox
from geoshard.perfbench import (
    FittedModel,
    Measurement,
    ModelParams,
    dense_lab_count,
    dense_lab_features,
    fit_constants,
    mann_kendall_rising,
    max_rate_search,
    model_tb,
    model_tq,
    poisson_arrivals,
    run_open_loop,
    sparse_features,
    square_queries,
    uniform_tile_batch,
)

PAPER = dict(c1_ms=3.0, c2_ms=0.008, c3_ms=20.0)


def test_model_tq_values():
    assert model_tq(ModelParams.of(n_i=1, **PAPER)) == pytest.approx(3.008)
    assert model_tq(ModelParams.of(n_i=0, **PAPER)) == pytest.approx(3.0)
    assert model_tq(ModelParams.of(n_i=100, **PAPER)) == pytest.approx(3.8)


def test_model_tb_reference_point():
    p = ModelParams.of(
        p_db=0.85, n_q=500, h=0.0, n_db=4, n_i=100, d_s_bytes=55, b_w_bps=200e6, **PAPER
    )
    # 20 + 500*0.3625*3.8 + 500*(100*55*8/2e8)*1000
    assert model_tb(p) == pytest.approx(818.75)


def test_model_tb_limit_cases():
    # full cache hit with no query-handler share: constant plus transmission
    p = ModelParams.of(p_db=1.0, n_q=100, h=1.0, n_db=2, n_i=10, d_s_bytes=100, **PAPER)
    assert model_tb(p) == pytest.approx(20.0 + 100 * 10 * 100 * 8 / 200e6 * 1000)
    # many engines: only the query-handler term remains
    p_inf = ModelParams.of(p_db=0.85, n_q=100, n_db=10_000_000, n_i=1, d_s_bytes=0.001, **PAPER)
    floor = 20.0 + 100 * 0.15 * 3.008
    assert model_tb(p_inf) == pytest.approx(floor, rel=1e-3)


def test_model_monotonicity():
    base = dict(p_db=0.85, n_q=500, n_db=2, n_i=50, d_s_bytes=55, **PAPER)
    hs = [model_tb(ModelParams.of(h=h, **base)) for h in (0, 0.25, 0.5, 0.75, 1.0)]
    assert hs == sorted(hs, reverse=True)
    dbs = [model_tb(ModelParams.of(**{**base, "n_db": n})) for n in (1, 2, 4, 8)]
    assert dbs == sorted(dbs, reverse=True)
    nqs = [model_tb(ModelParams.of(**{**base, "n_q": n})) for n in (100, 200, 400)]
    assert nqs == sorted(nqs)
    nis = [model_tb(ModelParams.of(**{**base, "n_i": n})) for n in (1, 10, 100)]
    assert nis == sorted(nis)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p_db=0.9, p_qh=0.2)
    with pytest.raises(ValueError):
        ModelParams.of(h=1.5)


def _sweep_measurements(noise=0.0, seed=0, reps=1):
    rng = random.Random(seed)
    out = []
    for _ in range(reps):
        for n_q in (100, 300, 600, 1000):
            for n_i in (1, 100):
                for n_db in (1, 4):
                    for h in (0.0, 0.5, 1.0):
                        p = ModelParams.of(
                            p_db=0.85, n_q=n_q, n_i=n_i, n_db=n_db, h=h,
                            d_s_bytes=55, b_w_bps=200e6, **PAPER
                        )
                        tb = model_tb(p) * (1.0 + noise * rng.gauss(0, 1))
                        out.append(Measurement(n_q, n_i, n_db, h, 55, 200e6, tb))
    return out


def test_fit_exact_roundtrip():
    fit = fit_constants(_sweep_measurements())
    assert fit.c1_ms == pytest.approx(3.0, abs=1e-9)
    assert fit.c2_ms == pytest.approx(0.008, abs=1e-9)
    assert fit.c3_ms == pytest.approx(20.0, abs=1e-7)
    assert fit.p_db == pytest.approx(0.85, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_with_noise_recovers_params():
    fit = fit_constants(_sweep_measurements(noise=0.05, seed=11, reps=5))
    assert fit.c1_ms == pytest.approx(3.0, rel=0.15)
    assert fit.c2_ms == pytest.approx(0.008, rel=0.15)
    assert fit.c3_ms == pytest.approx(20.0, rel=0.15)
    assert fit.p_db == pytest.approx(0.85, rel=0.15)
    assert fit.r_squared > 0.95


def test_fit_rank_deficient_raises():
    ms = [Measurement(100, 1, 1, 0.0, 55, 200e6, 500.0) for _ in range(10)]
    with pytest.raises(ValueError):
        fit_constants(ms)
    with pytest.raises(ValueError):
        fit_constants(ms[:2])


def test_dense_lab_counts():
    assert dense_lab_count(4) == 160_000
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
            assert region.contains_box(BBox.of(x, y, x + 1e-9, y + 1e-9))
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


def test_square_queries_geometry():
    region = BBox.of(0, 40, 10, 50)
    boxes = square_queries(region, 2500.0, 50, seed=1)  # 2500 km^2 -> 0.5 degrees
    for b in boxes:
        assert b.max.lng - b.min.lng == pytest.approx(0.5)
        assert region.contains_box(b)


def test_uniform_tile_batch_in_region():
    region = BBox.of(12, 41, 14, 43)
    tiles = uniform_tile_batch(region, 1, 500, seed=2)
    assert len(tiles) == 500
    for t in tiles:
        assert 120 <= t.lng_idx < 140 and 410 <= t.lat_idx < 430


def test_poisson_interarrival_mean():
    rate = 50.0
    arrivals = poisson_arrivals(rate, 10_000, seed=9)
    gaps = [b - a for a, b in zip([0.0] + arrivals[:-1], arrivals)]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1.0 / rate, rel=0.05)


def test_mann_kendall_detects_ramp_not_noise():
    rng = random.Random(4)
    flat = [1.0 + rng.gauss(0, 0.05) for _ in range(100)]
    ramp = [1.0 + 0.02 * i + rng.gauss(0, 0.05) for i in range(100)]
    assert not mann_kendall_rising(flat)
    assert mann_kendall_rising(ramp)


def test_max_rate_search_brackets_capacity():
    capacity = 40.0
    rng = random.Random(6)

    def probe(rate):
        if rate <= capacity:
            return [0.01 + rng.gauss(0, 0.001) for _ in range(60)]
        # overloaded: backlog grows linearly
        return [0.01 + 0.002 * i * (rate / capacity - 1) + rng.gauss(0, 0.001) for i in range(60)]

    result = max_rate_search(probe, start_rate_hz=5.0, resolution=0.25)
    assert result.max_stable_rate_hz <= capacity * 1.3
    assert result.lowest_unstable_rate_hz >= capacity * 0.7
    assert result.max_stable_rate_hz < result.lowest_unstable_rate_hz


def test_open_loop_overload_shows_rising_latency():
    # one worker, each call takes ~4 ms: capacity ~250/s
    def call(idx):
        time.sleep(0.004)

    # a stable service: latencies jitter around the service time, no trend;
    # seeded rather than measured, because at alpha 0.05 real jitter alone
    # shows a trend in about one stable run in twenty
    rng = random.Random(1)
    stable = [0.004 + rng.expovariate(1 / 0.0005) for _ in range(80)]
    overloaded = run_open_loop(call, 80, rate_hz=2000.0, workers=1, seed=1)
    assert not mann_kendall_rising(stable)
    assert mann_kendall_rising(overloaded)
