import random

import pytest

from geoshard.geogrid import BBox, TileId, tiles_overlapping_box
from geoshard.tessellate import (
    GEO_GRID,
    PERIOD_GRID,
    PeriodSet,
    constrained_tessellation,
    temporal_decompose,
)
from geoshard.tessellate.core import BoxRegion, GridSpec, constrained_cover
from grid_reference import (
    CellSetRegion,
    IndexTree,
    InstanceTooLarge,
    brute_force_cover,
    intersects_box,
    mst_cover,
    stretch,
    tile_area,
    tile_bbox,
)
from grid_reference import tile_stretch as core_tile_stretch


def _region(q: BBox) -> BoxRegion:
    return BoxRegion(GEO_GRID, (q.min.lng, q.min.lat), (q.max.lng, q.max.lat))


def _geo(tiles) -> tuple[TileId, ...]:
    return tuple(TileId(level, i, j) for level, (i, j) in tiles)


def min_stretch(q: BBox) -> tuple[TileId, ...]:
    """All level-2 tiles meeting the box."""
    return tuple(sorted(tiles_overlapping_box(q, 2)))


def build_index_tree(tiles) -> IndexTree:
    return IndexTree.from_leaves(GEO_GRID, ((t.level, (t.lng_idx, t.lat_idx)) for t in tiles))


def geo_stretch(q: BBox, tiles) -> float:
    return stretch(_region(q), ((t.level, (t.lng_idx, t.lat_idx)) for t in tiles))


def tile_stretch(tile: TileId, q: BBox) -> float:
    return core_tile_stretch(_region(q), (tile.level, (tile.lng_idx, tile.lat_idx)))


# ---------------------------------------------------------------------------
# minimum stretch


def test_min_stretch_50km_square():
    # 0.5 x 0.5 degrees, grid aligned: the closed box also meets the tiles
    # beyond its east and north edges, 51 x 51 smallest tiles
    tiles = min_stretch(BBox.of(12.0, 41.0, 12.5, 41.5))
    assert len(tiles) == 2601
    assert all(tile.level == 2 for tile in tiles)
    assert TileId.at(2, 12.5, 41.5) in tiles


def test_min_stretch_single_tile():
    q = tile_bbox(TileId.at(2, 12.51, 41.89))
    assert min_stretch(q) == (
        TileId.at(2, 12.51, 41.89),
        TileId.at(2, 12.51, 41.9),
        TileId.at(2, 12.52, 41.89),
        TileId.at(2, 12.52, 41.9),
    )
    assert geo_stretch(q, min_stretch(q)) == pytest.approx(4.0)


def test_min_stretch_offset_quad():
    q = BBox.of(12.505, 41.895, 12.515, 41.905)
    tiles = min_stretch(q)
    assert len(tiles) == 4
    assert geo_stretch(q, tiles) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# minimum stretch-and-tiles reduction


def test_mst_reduce_full_complement():
    tiles = [TileId(2, 125 * 10 + a, 418 * 10 + b) for a in range(10) for b in range(10)]
    tree = build_index_tree(tiles)
    reduced = tree.copy().reduce()
    assert reduced.leaf_tiles() == [(1, (125, 418))]
    # original tree untouched
    assert len(tree.leaves) == 100


def test_mst_reduce_99_children_unchanged():
    tiles = [TileId(2, 1250 + a, 4180 + b) for a in range(10) for b in range(10)][:-1]
    reduced = build_index_tree(tiles).reduce()
    assert len(reduced.leaf_tiles()) == 99


def test_mst_reduce_recursive_aligned_degree():
    # the degree collapses to its level-0 tile; the level-2 tiles beyond its
    # east and north edges, which the closed box meets, stay as they are
    leaves = _geo(_region(BBox.of(12.0, 41.0, 13.0, 42.0)).mst_leaves())
    assert [t for t in leaves if t.level < 2] == [TileId.at(0, 12, 41)]
    assert len(leaves) == 1 + 2 * 101 - 1
    assert all(t.lng_idx == 1300 or t.lat_idx == 4200 for t in leaves[1:])


def test_mst_leaves_match_tree_reduction_on_random_boxes():
    rng = random.Random(23)
    for _ in range(25):
        lo_x = rng.uniform(-5, 5)
        lo_y = rng.uniform(40, 45)
        q = BBox.of(lo_x, lo_y, lo_x + rng.uniform(0.01, 0.3), lo_y + rng.uniform(0.01, 0.3))
        fast = set(_geo(_region(q).mst_leaves()))
        slow = build_index_tree(min_stretch(q)).reduce().leaf_tiles()
        assert fast == set(_geo(slow))
        assert geo_stretch(q, fast) == pytest.approx(geo_stretch(q, min_stretch(q)))


# ---------------------------------------------------------------------------
# tile stretch


def test_tile_stretch_values():
    q = BBox.of(12.0, 41.0, 12.5, 41.5)
    assert tile_stretch(TileId.at(2, 12.11, 41.11), q) == pytest.approx(1.0)
    # level-1 tile with one quarter inside the query
    q2 = BBox.of(12.0, 41.0, 12.55, 41.55)
    assert tile_stretch(TileId.at(1, 12.5, 41.5), q2) == pytest.approx(4.0)


def test_tile_stretch_disjoint_tile_rejected():
    with pytest.raises(ValueError):
        tile_stretch(TileId.at(0, 50, 50), BBox.of(12, 41, 13, 42))


# ---------------------------------------------------------------------------
# the ratio-4 worked instance: three levels, 2x2 children, 20 cells, k=6

RATIO4 = GridSpec(levels=3, branch=2, dims=2, cell0=1.0)

WORKED_CELLS = (
    # 11 cells inside the level-0 tile at (0,0): two full 2x2 blocks + 3 cells
    [(x, y) for x in range(4) for y in range(2)]
    + [(0, 2), (1, 2), (0, 3)]
    # 6 cells in the level-0 tile at (1,0): one full block + 2 cells
    + [(x, y) for x in (4, 5) for y in (0, 1)]
    + [(4, 2), (5, 2)]
    # 3 cells in the level-0 tile at (0,1)
    + [(0, 4), (1, 4), (2, 4)]
)


def test_worked_instance_reconstruction_sanity():
    region = CellSetRegion(RATIO4, WORKED_CELLS)
    assert len(region.cells) == 20
    # MST tree of the instance has 11 leaves
    assert len(mst_cover(region).tiles) == 11
    # the best level-0 candidate has tile-stretch 16/11 (displayed as 1.45)
    assert round(core_tile_stretch(region, (0, (0, 0))), 2) == 1.45
    # the two runner-up level-1 candidates are tied at tile-stretch 2
    assert core_tile_stretch(region, (1, (2, 1))) == pytest.approx(2.0)
    assert core_tile_stretch(region, (1, (0, 2))) == pytest.approx(2.0)


def test_worked_instance_constrained_k6():
    region = CellSetRegion(RATIO4, WORKED_CELLS)
    result = constrained_cover(region, 6)
    assert result.constraint_respected
    assert len(result.tiles) == 6
    assert (0, (0, 0)) in result.tiles
    assert stretch(region, result.tiles) == pytest.approx(27 / 20)


def test_worked_instance_is_deterministic():
    region = CellSetRegion(RATIO4, WORKED_CELLS)
    a = constrained_cover(region, 6)
    b = constrained_cover(region, 6)
    assert a.tiles == b.tiles


# ---------------------------------------------------------------------------
# constrained tessellation on the production grid


def test_constrained_single_tile_k1():
    # the closed tile box meets four level-2 tiles across the level-1 line
    # at 41.9, so one tile covering it is their level-0 ancestor
    q = tile_bbox(TileId.at(2, 12.51, 41.89))
    t = constrained_tessellation(q, 1)
    assert t.tiles == (TileId.at(0, 12, 41),)
    assert t.constraint_respected
    t4 = constrained_tessellation(q, 4)
    assert t4.tiles == min_stretch(q)
    assert t4.constraint_respected


def test_constrained_fallback_level0_cover():
    # 12 level-0 tiles needed but k=5: fall back, flagged
    q = BBox.of(10.2, 40.2, 13.5, 42.5)
    t = constrained_tessellation(q, 5)
    assert not t.constraint_respected
    assert len(t.tiles) == 12
    assert all(tile.level == 0 for tile in t.tiles)


def _check_cover(t, q):
    # exact interval arithmetic: every tile disjoint from the others and the
    # union must contain the box
    area = 0.0
    for i, a in enumerate(t.tiles):
        box_a = tile_bbox(a)
        area += (box_a.max.lng - box_a.min.lng) * (box_a.max.lat - box_a.min.lat)
        for b in t.tiles[i + 1:]:
            assert not intersects_box(box_a, tile_bbox(b)), (a, b)
    # coverage by point sampling plus corner checks
    rng = random.Random(1)
    pts = [(q.min.lng + 1e-9, q.min.lat + 1e-9), (q.max.lng - 1e-9, q.max.lat - 1e-9)]
    pts += [
        (rng.uniform(q.min.lng, q.max.lng), rng.uniform(q.min.lat, q.max.lat)) for _ in range(40)
    ]
    for x, y in pts:
        assert any(
            tb.min.lng - 1e-9 <= x < tb.max.lng + 1e-9 and tb.min.lat - 1e-9 <= y < tb.max.lat + 1e-9
            for tb in map(tile_bbox, t.tiles)
        ), (x, y)


def test_constrained_random_boxes_properties():
    rng = random.Random(99)
    for _ in range(40):
        x = rng.uniform(-10, 10)
        y = rng.uniform(35, 50)
        w = rng.uniform(0.02, 1.8)
        h = rng.uniform(0.02, 1.8)
        q = BBox.of(x, y, x + w, y + h)
        k = rng.choice((5, 19, 50))
        t = constrained_tessellation(q, k)
        base = min_stretch(q)
        if t.constraint_respected:
            assert len(t.tiles) <= k
        assert len(t.tiles) <= len(base)
        assert geo_stretch(q, t.tiles) >= 1.0 - 1e-9
        _check_cover(t, q)
        # no tile is an ancestor or descendant of another
        levels = {}
        for tile in t.tiles:
            key = tile
            while key.level > 0:
                key = TileId(key.level - 1, key.lng_idx // 10, key.lat_idx // 10)
                assert key not in set(t.tiles)


def test_constrained_never_beats_bruteforce_and_mostly_matches():
    rng = random.Random(5)
    total = 0
    matches = 0
    for _ in range(120):
        x = rng.uniform(-3, 3)
        y = rng.uniform(40, 44)
        w = rng.uniform(0.01, 0.06)
        h = rng.uniform(0.01, 0.06)
        q = BBox.of(x, y, x + w, y + h)
        k = rng.choice((2, 3, 4, 6))
        greedy = constrained_tessellation(q, k)
        if not greedy.constraint_respected:
            continue
        try:
            opt = brute_force_cover(_region(q), k, cell_bound=64)
        except InstanceTooLarge:
            continue
        total += 1
        greedy_stretch = geo_stretch(q, greedy.tiles)
        assert greedy_stretch >= opt.stretch - 1e-9
        if abs(greedy_stretch - opt.stretch) < 1e-9:
            matches += 1
    assert total > 60
    assert matches / total >= 0.9


def test_bruteforce_examples():
    # a tile box meets four level-2 tiles; across the level-1 line at 41.9
    q = tile_bbox(TileId.at(2, 12.51, 41.89))
    t = brute_force_cover(_region(q), 4)
    assert _geo(t.tiles) == min_stretch(q)
    assert _geo(brute_force_cover(_region(q), 1).tiles) == (TileId.at(0, 12, 41),)

    # 2x2 level-2 block inside one level-1 tile, k=1: the level-1 parent wins
    q2 = BBox.of(12.52, 41.82, 12.54, 41.84)
    t2 = brute_force_cover(_region(q2), 1)
    assert _geo(t2.tiles) == (TileId.at(1, 12.5, 41.8),)
    assert t2.stretch == pytest.approx(100 / 4)

    # aligned level-1 box with a large budget: the tile itself, plus the 21
    # level-2 tiles beyond its east and north edges
    q3 = tile_bbox(TileId.at(1, 12.5, 41.8))
    t3 = brute_force_cover(_region(q3), 100, cell_bound=128)
    assert TileId.at(1, 12.5, 41.8) in _geo(t3.tiles)
    assert len(t3.tiles) == 22
    assert t3.stretch == pytest.approx(1.21)


def test_bruteforce_instance_guard():
    with pytest.raises(InstanceTooLarge):
        brute_force_cover(_region(BBox.of(12, 41, 12.2, 41.2)), 10, cell_bound=64)


def test_constrained_k_larger_than_mst_returns_mst():
    q = BBox.of(12.0, 41.0, 12.5, 41.5)
    t = constrained_tessellation(q, 10_000)
    assert set(t.tiles) == set(_geo(_region(q).mst_leaves()))


# ---------------------------------------------------------------------------
# temporal decomposition


def test_temporal_single_aligned_period():
    ps = temporal_decompose((600, 1200))  # exactly one 10-minute period
    assert ps.periods == ((10, 10),)
    assert ps.constraint_respected


def test_temporal_one_hour():
    ps = temporal_decompose((0, 3600))
    assert ps.constraint_respected
    assert len(ps.periods) <= 5
    _check_period_cover(ps)


def test_temporal_fallback_70000_minutes():
    ps = temporal_decompose((0, 70_000 * 60))
    assert not ps.constraint_respected
    assert len(ps.periods) == 7
    assert all(size == 10_000 for _, size in ps.periods)
    _check_period_cover(ps)


def _check_period_cover(ps: PeriodSet):
    segs = sorted((start * 60, (start + size) * 60) for start, size in ps.periods)
    for (s0, e0), (s1, e1) in zip(segs, segs[1:]):
        assert e0 <= s1  # disjoint
    start, end = ps.query_interval
    assert segs[0][0] <= start
    assert segs[-1][1] >= end
    # no gaps inside the query interval
    cursor = segs[0][0]
    for s, e in segs:
        assert s <= cursor
        cursor = max(cursor, e)
    assert cursor >= end
    for s, e in segs:
        size_min = (e - s) // 60
        assert size_min in (1, 10, 100, 1000, 10000)
        assert (s // 60) % size_min == 0  # grid aligned


def test_temporal_random_intervals_against_bruteforce():
    rng = random.Random(51)
    for _ in range(60):
        start = rng.randrange(0, 10_000_000)
        length = rng.randrange(60, 7_200)
        ps = temporal_decompose((start, start + length))
        _check_period_cover(ps)
        if ps.constraint_respected:
            assert len(ps.periods) <= 5
            # oracle: exhaustive cover over the same 1-D hierarchy
            end = start + length
            region = BoxRegion(PERIOD_GRID, (start / 60.0,), (end / 60.0,), ((end - 1) / 60.0,))
            try:
                opt = brute_force_cover(region, 5, cell_bound=64)
            except InstanceTooLarge:
                continue
            greedy_len = sum(size for _, size in ps.periods)
            opt_len = sum(tile_area(PERIOD_GRID, t[0]) for t in opt.tiles)
            assert greedy_len >= opt_len - 1e-9


def test_temporal_rejects_empty_interval():
    with pytest.raises(ValueError):
        temporal_decompose((100, 100))
