"""The greedy constrained cover behind the tessellation API.

Everything here works on abstract tiles ``(level, idx)`` where ``idx`` is a
tuple of integers, one per dimension: two for the geographic grid, one for
the period ladder. Level 0 is the coarsest; each tile splits into
``branch`` children per axis. Both grids are instances of :class:`GridSpec`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from geoshard.geogrid import tile_span

Tile = tuple[int, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A hierarchical grid: `levels` levels, `branch` children per axis.

    `end` is, per axis, the grid's open upper edge, where spans are clamped.
    """

    levels: int
    branch: int
    dims: int
    cell0: float = 1.0
    end: tuple[float, ...] = (math.inf,)

    @property
    def finest(self) -> int:
        return self.levels - 1

    def side(self, level: int) -> float:
        return self.cell0 / self.branch ** level

    def ancestor(self, tile: Tile, level: int) -> Tile:
        tl, idx = tile
        if level > tl:
            raise ValueError(f"level {level} deeper than tile level {tl}")
        div = self.branch ** (tl - level)
        return (level, tuple(i // div for i in idx))

    def tile_bounds(self, tile: Tile) -> tuple[tuple[float, float], ...]:
        s = self.side(tile[0])
        return tuple((i * s, (i + 1) * s) for i in tile[1])


class BoxRegion:
    """Axis-aligned box [lo, hi]; all tile bookkeeping is index arithmetic.

    The cover holds every tile meeting the closed box [lo, reach], by
    :func:`geoshard.geogrid.tile_span`; `reach` is `hi` unless given.
    Tile-stretch is measured on [lo, hi]. The minimum-stretch-and-tiles leaf
    set is enumerated in O(boundary) rather than O(area), which is what
    keeps large constrained tessellations affordable.
    """

    def __init__(
        self,
        grid: GridSpec,
        lo: Sequence[float],
        hi: Sequence[float],
        reach: Sequence[float] | None = None,
    ):
        if len(lo) != grid.dims or len(hi) != grid.dims:
            raise ValueError("box dimensionality does not match the grid")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"degenerate box: {lo} .. {hi}")
        self.grid = grid
        self.lo = tuple(float(v) for v in lo)
        self.hi = tuple(float(v) for v in hi)
        self.reach = self.hi if reach is None else tuple(float(v) for v in reach)

    def _span(self, level: int) -> list[tuple[int, int]]:
        """Inclusive index range of the tiles meeting the box, per dimension."""
        scale = self.grid.branch ** level / self.grid.cell0
        return [tile_span(a, b, scale, end) for a, b, end in zip(self.lo, self.reach, self.grid.end)]

    def intersection_area(self, tile: Tile) -> float:
        prod = 1.0
        for (a, b), (ta, tb) in zip(zip(self.lo, self.hi), self.grid.tile_bounds(tile)):
            w = min(b, tb) - max(a, ta)
            if w <= 0:
                return 0.0
            prod *= w
        return prod

    def tiles_overlapping(self, level: int) -> list[Tile]:
        ranges = [range(i0, i1 + 1) for i0, i1 in self._span(level)]
        return [(level, idx) for idx in itertools.product(*ranges)]

    def _full_spans(self) -> list[list[tuple[int, int]] | None]:
        """Per level, the index box of tiles that collapse in the reduction.

        A tile collapses when all of its children are present; at the finest
        level "collapses" just means "meets the box". Empty boxes are None.
        """
        spans: list[list[tuple[int, int]] | None] = [None] * self.grid.levels
        spans[self.grid.finest] = self._span(self.grid.finest)
        b = self.grid.branch
        for level in range(self.grid.finest - 1, -1, -1):
            below = spans[level + 1]
            if below is None:
                break
            cur = []
            for i0, i1 in below:
                lo = -((-i0) // b)  # ceil div
                hi = (i1 + 1) // b - 1
                if lo > hi:
                    cur = None
                    break
                cur.append((lo, hi))
            spans[level] = cur
            if cur is None:
                break
        return spans

    def mst_leaves(self) -> list[Tile]:
        """Leaves of the minimum stretch-and-tiles reduction."""
        spans = self._full_spans()
        leaves: list[Tile] = []
        b = self.grid.branch
        for level in range(self.grid.levels):
            outer = spans[level]
            if outer is None:
                continue
            inner = spans[level - 1] if level > 0 else None
            if inner is not None:
                inner = [(i0 * b, i1 * b + b - 1) for i0, i1 in inner]
            leaves.extend((level, idx) for idx in _box_difference(outer, inner))
        return leaves


def _box_difference(
    outer: list[tuple[int, int]], inner: list[tuple[int, int]] | None
) -> Iterator[tuple[int, ...]]:
    """Cells of the one- or two-dimensional `outer` index box not inside
    `inner` (output-sensitive)."""
    if inner is None:
        yield from itertools.product(*(range(a, b + 1) for a, b in outer))
        return
    if len(outer) == 1:
        (a, b), (ia, ib) = outer[0], inner[0]
        for i in itertools.chain(range(a, ia), range(ib + 1, b + 1)):
            yield (i,)
        return
    (a0, b0), (a1, b1) = outer
    (ia0, ib0), (ia1, ib1) = inner
    for i in itertools.chain(range(a0, ia0), range(ib0 + 1, b0 + 1)):
        for j in range(a1, b1 + 1):
            yield (i, j)
    for i in range(max(a0, ia0), min(b0, ib0) + 1):
        for j in itertools.chain(range(a1, ia1), range(ib1 + 1, b1 + 1)):
            yield (i, j)


@dataclass(frozen=True, slots=True)
class CoverResult:
    """Disjoint tile cover of a region."""

    tiles: tuple[Tile, ...]
    constraint_respected: bool


class _GreedyState:
    """Incremental leaf bookkeeping for the constrained greedy.

    Tracks, per level m, the map from each level-m ancestor tile to the set
    of current leaves strictly deeper than m below it, so both the necessity
    count and the candidate scan avoid full passes over the leaf set.
    """

    def __init__(self, region: BoxRegion):
        self.region = region
        self.grid = region.grid
        self.leaves: set[Tile] = set()
        self.level_count = [0] * self.grid.levels
        self.members: list[dict[Tile, set[Tile]]] = [dict() for _ in range(self.grid.levels)]
        self._areas: dict[Tile, float] = {}

    def area_of(self, tile: Tile) -> float:
        a = self._areas.get(tile)
        if a is None:
            a = self.region.intersection_area(tile)
            self._areas[tile] = a
        return a

    def add(self, leaf: Tile) -> None:
        self.leaves.add(leaf)
        self.level_count[leaf[0]] += 1
        for m in range(leaf[0]):
            anc = self.grid.ancestor(leaf, m)
            self.members[m].setdefault(anc, set()).add(leaf)

    def remove(self, leaf: Tile) -> None:
        self.leaves.discard(leaf)
        self.level_count[leaf[0]] -= 1
        for m in range(leaf[0]):
            anc = self.grid.ancestor(leaf, m)
            group = self.members[m][anc]
            group.discard(leaf)
            if not group:
                del self.members[m][anc]

    def completion_count(self, level: int) -> int:
        """Leaf count if every deeper leaf were aggregated at `level`."""
        return sum(self.level_count[: level + 1]) + len(self.members[level])

    def aggregate_best(self, level: int) -> bool:
        """Replace the min-tile-stretch level-`level` candidate's leaves by it."""
        groups = self.members[level]
        if not groups:
            return False
        best = min(groups, key=lambda c: (-self.area_of(c), c))
        for leaf in list(groups[best]):
            self.remove(leaf)
        self.add(best)
        return True


def constrained_cover(region: BoxRegion, k: int) -> CoverResult:
    """Greedy constrained tessellation.

    Starts from the reduced tree and, while over budget, inserts the
    necessary shallowest aggregation with minimum tile-stretch. A level-i
    tile is necessary when completing the cover with all remaining
    level-(i+1) tiles still exceeds k. When even the complete level-0 cover
    exceeds k, that cover is returned with the constraint flagged as not
    respected. Ties break on the lexicographically smallest tile.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = region.grid
    level0 = region.tiles_overlapping(0)
    if len(level0) > k:
        return CoverResult(tuple(sorted(level0)), False)

    state = _GreedyState(region)
    for leaf in region.mst_leaves():
        state.add(leaf)
    while len(state.leaves) > k:
        aggregated = False
        for i in range(grid.levels - 1):
            if state.completion_count(i + 1) <= k:
                continue  # level-(i+1) completion fits: level-i not necessary
            if state.aggregate_best(i):
                aggregated = True
                break
        if not aggregated:  # all leaves already level-0; guarded by the fallback
            break
    return CoverResult(tuple(sorted(state.leaves)), len(state.leaves) <= k)
