"""Tessellation of range queries: a box into a disjoint multi-level tile
cover, a time interval into grid-aligned periods.

Both are the greedy constrained cover of :mod:`geoshard.tessellate.core`,
bounded by a tile count. A box is covered by every tile that meets it as a
closed box (:func:`geoshard.geogrid.tile_span`).

A time interval [start, end] of epoch seconds is closed too. A period
sub-query returns the rows valid at any second from the period's first
second to its end second, both included, since the engine's period test
(:func:`geoshard.objects.temporal_match`) is closed; rows are not split by
period. So the periods holding the seconds start..end-1 also serve the end
second: when `end` falls on a period boundary, the period ending there
accepts it, and no period starting at `end` is asked. Periods are
10000/1000/100/10/1 minutes long.
"""

from __future__ import annotations

from dataclasses import dataclass

from geoshard.geogrid import AXIS_FACTOR, GRID_END, LEVELS, BBox, TileId
from geoshard.tessellate.core import BoxRegion, GridSpec, constrained_cover

GEO_GRID = GridSpec(levels=len(LEVELS), branch=AXIS_FACTOR, dims=2, cell0=1.0, end=GRID_END)

# Period hierarchy: 10000/1000/100/10/1 minutes.
PERIOD_GRID = GridSpec(levels=5, branch=10, dims=1, cell0=10000.0)
PERIOD_SIZES_MINUTES = (10000, 1000, 100, 10, 1)
MAX_PERIODS = 5

__all__ = [
    "PeriodSet",
    "Tessellation",
    "constrained_tessellation",
    "temporal_decompose",
]


@dataclass(frozen=True, slots=True)
class Tessellation:
    """Disjoint multi-level tile cover of a query box."""

    tiles: tuple[TileId, ...]
    query: BBox
    constraint_respected: bool

    def __len__(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True, slots=True)
class PeriodSet:
    """Disjoint grid-aligned periods covering a query time interval."""

    periods: tuple[tuple[int, int], ...]  # (start, size), both in minutes
    query_interval: tuple[int, int]  # epoch seconds
    constraint_respected: bool


def constrained_tessellation(q: BBox, k: int) -> Tessellation:
    """Greedy cover with at most `k` tiles (level-0 fallback flagged)."""
    region = BoxRegion(GEO_GRID, (q.min.lng, q.min.lat), (q.max.lng, q.max.lat))
    result = constrained_cover(region, k)
    tiles = tuple(TileId(level, i, j) for level, (i, j) in result.tiles)
    return Tessellation(tiles, q, result.constraint_respected)


def temporal_decompose(interval: tuple[int, int], max_periods: int = MAX_PERIODS) -> PeriodSet:
    """Cover an epoch-second interval with at most `max_periods` aligned periods.

    Same greedy contract as :func:`constrained_tessellation`, in one
    dimension; when even the 10000-minute cover exceeds the budget it is
    returned with ``constraint_respected`` false.
    """
    start_s, end_s = int(interval[0]), int(interval[1])
    if start_s >= end_s:
        raise ValueError(f"empty time interval: {interval}")
    region = BoxRegion(PERIOD_GRID, (start_s / 60.0,), (end_s / 60.0,), reach=((end_s - 1) / 60.0,))
    result = constrained_cover(region, max_periods)
    periods = []
    for level, (i,) in result.tiles:
        size = PERIOD_SIZES_MINUTES[level]
        periods.append((i * size, size))
    periods.sort()
    return PeriodSet(tuple(periods), (start_s, end_s), result.constraint_respected)
