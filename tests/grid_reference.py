"""Reference code the tests compare the grid and the tessellation against.

None of it is on the program's path: box predicates and tile boxes for the
geographic grid, an explicit tessellation tree, a cell-set region for small
verification grids, and an exhaustive minimum-stretch cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from geoshard.geogrid import BBox, GeoCoord, TileId
from geoshard.tessellate.core import BoxRegion, GridSpec, Tile


# --- the geographic grid ------------------------------------------------------


def tile_bbox(t: TileId) -> BBox:
    s = 10 ** t.level
    return BBox(
        GeoCoord(t.lng_idx / s, t.lat_idx / s),
        GeoCoord((t.lng_idx + 1) / s, (t.lat_idx + 1) / s),
    )


def contains_box(outer: BBox, inner: BBox) -> bool:
    return (
        outer.min.lng <= inner.min.lng
        and outer.min.lat <= inner.min.lat
        and inner.max.lng <= outer.max.lng
        and inner.max.lat <= outer.max.lat
    )


def intersects_box(a: BBox, b: BBox) -> bool:
    """Positive-area overlap."""
    return (
        a.min.lng < b.max.lng
        and b.min.lng < a.max.lng
        and a.min.lat < b.max.lat
        and b.min.lat < a.max.lat
    )


# --- covers on an abstract grid ---------------------------------------------------


class InstanceTooLarge(ValueError):
    """Raised when an exhaustive search would exceed its size guard."""


def tile_area(grid: GridSpec, level: int) -> float:
    return grid.side(level) ** grid.dims


def covers(grid: GridSpec, outer: Tile, inner: Tile) -> bool:
    """True when `inner` lies inside `outer` (equality included)."""
    return outer[0] <= inner[0] and grid.ancestor(inner, outer[0]) == outer


def region_area(region) -> float:
    if isinstance(region, CellSetRegion):
        return len(region.cells) * tile_area(region.grid, region.grid.finest)
    assert isinstance(region, BoxRegion)
    return math.prod(b - a for a, b in zip(region.lo, region.hi))


def stretch(region, tiles: Iterable[Tile]) -> float:
    """Covered area over region area; 1 for an exact cover."""
    return sum(tile_area(region.grid, t[0]) for t in tiles) / region_area(region)


def tile_stretch(region, tile: Tile) -> float:
    """Ratio of the tile area to its intersection with the region (>= 1)."""
    inter = region.intersection_area(tile)
    if inter <= 0:
        raise ValueError(f"tile {tile} does not intersect the region")
    return tile_area(region.grid, tile[0]) / inter


@dataclass(frozen=True)
class Cover:
    tiles: tuple[Tile, ...]
    stretch: float


def mst_cover(region) -> Cover:
    """The minimum stretch-and-tiles cover."""
    tiles = tuple(sorted(region.mst_leaves()))
    return Cover(tiles, stretch(region, tiles))


class IndexTree:
    """Explicit tessellation tree: leaves are the current cover.

    Every non-root node's parent is present; leaves are pairwise disjoint and
    their union covers the query cells the tree was built from.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.children: dict[Tile, set[Tile]] = {}
        self.leaves: set[Tile] = set()

    @classmethod
    def from_leaves(cls, grid: GridSpec, leaves: Iterable[Tile]) -> "IndexTree":
        tree = cls(grid)
        for leaf in leaves:
            tree.leaves.add(leaf)
            node = leaf
            while node[0] > 0:
                parent = grid.ancestor(node, node[0] - 1)
                kids = tree.children.setdefault(parent, set())
                if node in kids:
                    break
                kids.add(node)
                node = parent
        return tree

    def leaf_tiles(self) -> list[Tile]:
        return sorted(self.leaves)

    def reduce(self) -> "IndexTree":
        """Minimum stretch-and-tiles reduction (in place, returns self).

        Repeatedly replaces any full complement of children that are all
        leaves with their parent, deepest parents first so collapses cascade.
        """
        full = self.grid.branch ** self.grid.dims
        for level in range(self.grid.finest - 1, -1, -1):
            for node, kids in list(self.children.items()):
                if node[0] != level:
                    continue
                if len(kids) == full and kids <= self.leaves:
                    self.leaves -= kids
                    self.leaves.add(node)
                    del self.children[node]
        return self

    def copy(self) -> "IndexTree":
        dup = IndexTree(self.grid)
        dup.children = {k: set(v) for k, v in self.children.items()}
        dup.leaves = set(self.leaves)
        return dup


class CellSetRegion:
    """Region given as an explicit set of finest-level cells.

    Intended for small instances: verification grids and the exhaustive
    oracle. Intersections are counted exactly (whole cells).
    """

    def __init__(self, grid: GridSpec, cells: Iterable[tuple[int, ...]]):
        self.grid = grid
        self.cells = {tuple(c) for c in cells}
        if not self.cells:
            raise ValueError("empty cell set")
        # cells-per-ancestor counts, all levels
        self._counts: dict[Tile, int] = {}
        for c in self.cells:
            for level in range(grid.levels):
                anc = grid.ancestor((grid.finest, c), level)
                self._counts[anc] = self._counts.get(anc, 0) + 1

    def intersection_area(self, tile: Tile) -> float:
        return self._counts.get(tile, 0) * tile_area(self.grid, self.grid.finest)

    def tiles_overlapping(self, level: int) -> list[Tile]:
        return sorted(t for t in self._counts if t[0] == level)

    def mst_leaves(self) -> list[Tile]:
        tree = IndexTree.from_leaves(self.grid, ((self.grid.finest, c) for c in self.cells))
        return tree.reduce().leaf_tiles()


def brute_force_cover(region, k: int, cell_bound: int = 64) -> Cover:
    """Exhaustive minimum-stretch disjoint cover with at most k tiles.

    Independent of the greedy path: branches over which ancestor covers the
    first uncovered cell. Rejects instances with more than `cell_bound`
    finest cells.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = region.grid
    cells = sorted(region.tiles_overlapping(grid.finest))
    if len(cells) > cell_bound:
        raise InstanceTooLarge(f"{len(cells)} cells exceeds the bound {cell_bound}")

    best: dict[str, object] = {"area": math.inf, "tiles": None}

    def first_uncovered(chosen: list[Tile]) -> Tile | None:
        for c in cells:
            if not any(covers(grid, t, c) for t in chosen):
                return c
        return None

    def search(chosen: list[Tile], area: float) -> None:
        if area >= best["area"]:
            return
        cell = first_uncovered(chosen)
        if cell is None:
            best["area"] = area
            best["tiles"] = tuple(chosen)
            return
        if len(chosen) >= k:
            return
        for level in range(grid.levels):
            cand = grid.ancestor(cell, level)
            if any(covers(grid, cand, t) for t in chosen):
                continue  # would swallow an already chosen tile
            chosen.append(cand)
            search(chosen, area + tile_area(grid, level))
            chosen.pop()

    search([], 0.0)
    if best["tiles"] is None:
        raise InstanceTooLarge(f"no cover with at most {k} tiles exists")
    tiles = tuple(sorted(best["tiles"]))
    return Cover(tiles, stretch(region, tiles))
