"""Pure geometry and naming for the three-level geographic grid.

Levels 0/1/2 have tile sides of 1, 0.1 and 0.01 degrees; each tile splits
into 100 children (10 per axis). A tile is identified by its south-west
corner and owns the half-open square [sw, sw + side) on both axes, so every
point belongs to exactly one tile per level. A box, by contrast, is closed:
:func:`tile_span` is the one rule that joins the two. All functions here are
pure and safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from geoshard.icn.names import Name

LEVELS = (0, 1, 2)
AXIS_FACTOR = 10
ROOT_COMPONENT = "OGB"
GPS_ID = "GPS-ID"

# Tolerance for snapping float coordinates onto grid boundaries. Points
# closer than ~1e-9 degrees (sub-micrometre) to a boundary are treated as
# lying on it.
GRID_EPS = 1e-7

# The grid's open north-east edge (lng, lat): no tile owns a point on it.
GRID_END = (180.0, 90.0)


class GridError(ValueError):
    """Invalid coordinate, tile or name for the grid."""


class FeatureError(ValueError):
    """Malformed GeoJSON feature."""


def _check_level(level: int) -> None:
    if level not in LEVELS:
        raise GridError(f"level must be one of {LEVELS}, got {level}")


@dataclass(frozen=True, slots=True)
class GeoCoord:
    """Longitude/latitude in decimal degrees."""

    lng: float
    lat: float

    def __post_init__(self):
        if not (-180.0 <= self.lng <= 180.0) or not (-90.0 <= self.lat <= 90.0):
            raise GridError(f"coordinate out of range: ({self.lng}, {self.lat})")


@dataclass(frozen=True, slots=True, order=True)
class TileId:
    """Grid tile, stored as integer indices of its south-west corner.

    ``lng_idx``/``lat_idx`` are the corner coordinates multiplied by
    10**level, which keeps equality and hashing exact.
    """

    level: int
    lng_idx: int
    lat_idx: int

    def __post_init__(self):
        _check_level(self.level)
        s = 10 ** self.level
        if not (-180 * s <= self.lng_idx < 180 * s) or not (-90 * s <= self.lat_idx < 90 * s):
            raise GridError(f"tile index out of range: {self}")

    @classmethod
    def at(cls, level: int, lng: float, lat: float) -> "TileId":
        """Tile with the given grid-aligned south-west corner."""
        _check_level(level)
        s = 10 ** level
        li, la = round(lng * s), round(lat * s)
        if abs(lng * s - li) > GRID_EPS or abs(lat * s - la) > GRID_EPS:
            raise GridError(f"({lng}, {lat}) is not aligned to the level-{level} grid")
        return cls(level, li, la)

    @property
    def sw(self) -> GeoCoord:
        s = 10 ** self.level
        return GeoCoord(self.lng_idx / s, self.lat_idx / s)

    @property
    def side(self) -> float:
        return 10 ** (-self.level)


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in degrees; must not cross the antimeridian."""

    min: GeoCoord
    max: GeoCoord

    def __post_init__(self):
        if not (self.min.lng < self.max.lng and self.min.lat < self.max.lat):
            raise GridError(f"degenerate or antimeridian-crossing box: {self}")

    @classmethod
    def of(cls, min_lng: float, min_lat: float, max_lng: float, max_lat: float) -> "BBox":
        return cls(GeoCoord(min_lng, min_lat), GeoCoord(max_lng, max_lat))

    @property
    def area(self) -> float:
        """Planar area in squared degrees."""
        return (self.max.lng - self.min.lng) * (self.max.lat - self.min.lat)

    def contains(self, c: GeoCoord) -> bool:
        """Closed containment on both axes."""
        return self.min.lng <= c.lng <= self.max.lng and self.min.lat <= c.lat <= self.max.lat


class GeometryKind(Enum):
    POINT = "Point"
    MULTIPOINT = "MultiPoint"
    OTHER = "Other"


@dataclass(frozen=True, slots=True)
class Geometry:
    """A feature geometry reduced to what the grid needs.

    Point/MultiPoint keep their coordinates; every other GeoJSON kind is
    handled through its enclosing bounding box.
    """

    kind: GeometryKind
    points: tuple[GeoCoord, ...]
    bbox: BBox = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind is GeometryKind.POINT and len(self.points) != 1:
            raise GridError("Point geometry must have exactly one coordinate")
        if self.kind is GeometryKind.MULTIPOINT and not self.points:
            raise GridError("MultiPoint geometry must have at least one coordinate")
        if self.bbox is None:
            if not self.points:
                raise GridError("geometry without points needs an explicit bbox")
            lngs = [p.lng for p in self.points]
            lats = [p.lat for p in self.points]
            pad = 0.0
            # A degenerate (single point / axis-aligned) point cloud still
            # gets a valid, zero-ish box by nudging the max corner.
            max_lng = max(lngs) if max(lngs) > min(lngs) else min(lngs) + 1e-12
            max_lat = max(lats) if max(lats) > min(lats) else min(lats) + 1e-12
            object.__setattr__(
                self, "bbox", BBox(GeoCoord(min(lngs), min(lats)), GeoCoord(max_lng + pad, max_lat + pad))
            )

    @classmethod
    def point(cls, lng: float, lat: float) -> "Geometry":
        return cls(GeometryKind.POINT, (GeoCoord(lng, lat),))

    @classmethod
    def multipoint(cls, coords: Iterable[tuple[float, float]]) -> "Geometry":
        return cls(GeometryKind.MULTIPOINT, tuple(GeoCoord(x, y) for x, y in coords))

    @classmethod
    def other(cls, bbox: BBox) -> "Geometry":
        return cls(GeometryKind.OTHER, (), bbox)


def _snap_index(value: float, scale: float) -> int:
    return math.floor(value * scale + GRID_EPS)


def tile_span(lo: float, hi: float, scale: float, end: float = math.inf) -> tuple[int, int]:
    """First and last index of the tiles of side ``1/scale`` meeting [lo, hi].

    The grid's one boundary rule: the interval is closed and each tile owns
    the half-open [sw, sw + side), so the span runs from the tile holding
    `lo` to the tile holding `hi`, snapped as :func:`tile_of` snaps a point.
    An interval whose upper edge lies on a grid line therefore also meets
    the tile beyond that line, which is where a point on the edge is stored.
    The span is clamped to the last tile below `end`, the grid's open edge
    (lng 180, lat 90), so a box reaching that edge still has tiles.
    """
    first, last = _snap_index(lo, scale), _snap_index(hi, scale)
    if last >= end * scale:
        last = round(end * scale) - 1
        first = min(first, last)
    return first, last


def tile_of(c: GeoCoord, level: int) -> TileId:
    """Tile containing `c` (south-west inclusive, north-east exclusive)."""
    _check_level(level)
    if c.lng >= GRID_END[0] or c.lat >= GRID_END[1]:
        raise GridError(f"point on the open boundary belongs to no tile: {c}")
    s = 10 ** level
    return TileId(level, _snap_index(c.lng, s), _snap_index(c.lat, s))


def tile_prefix(t: TileId) -> Name:
    """Routable name prefix of a tile.

    Level-0 longitude/latitude are separate components; each decimal level
    adds one two-digit component (longitude digit then latitude digit); the
    prefix is terminated by the GPS-ID marker.
    """
    s = 10 ** t.level
    lng0, lat0 = t.lng_idx // s, t.lat_idx // s
    oi, oj = t.lng_idx - lng0 * s, t.lat_idx - lat0 * s
    comps = [ROOT_COMPONENT, str(lng0), str(lat0)]
    for k in range(1, t.level + 1):
        div = 10 ** (t.level - k)
        comps.append(f"{(oi // div) % 10}{(oj // div) % 10}")
    comps.append(GPS_ID)
    return Name(comps)


def parse_tile_prefix(n: Name) -> TileId:
    """Inverse of :func:`tile_prefix`."""
    comps = n.components
    if len(comps) < 4 or comps[0] != ROOT_COMPONENT or comps[-1] != GPS_ID:
        raise GridError(f"not a tile prefix: {n}")
    decimals = comps[3:-1]
    level = len(decimals)
    if level > max(LEVELS):
        raise GridError(f"too many decimal components in {n}")
    try:
        lng_idx, lat_idx = int(comps[1]), int(comps[2])
    except ValueError:
        raise GridError(f"bad level-0 components in {n}") from None
    for comp in decimals:
        if len(comp) != 2 or not comp.isdigit():
            raise GridError(f"decimal component must be two digits: {comp!r} in {n}")
        lng_idx = lng_idx * 10 + int(comp[0])
        lat_idx = lat_idx * 10 + int(comp[1])
    return TileId(level, lng_idx, lat_idx)


def children(t: TileId) -> list[TileId]:
    """The 100 next-level tiles partitioning `t`."""
    if t.level >= max(LEVELS):
        raise GridError(f"level-{t.level} tiles have no children")
    base_lng, base_lat = t.lng_idx * AXIS_FACTOR, t.lat_idx * AXIS_FACTOR
    return [
        TileId(t.level + 1, base_lng + a, base_lat + b)
        for a in range(AXIS_FACTOR)
        for b in range(AXIS_FACTOR)
    ]


def parent(t: TileId) -> TileId:
    if t.level <= 0:
        raise GridError("level-0 tiles have no parent")
    return TileId(t.level - 1, t.lng_idx // AXIS_FACTOR, t.lat_idx // AXIS_FACTOR)


def level0(t: TileId) -> TileId:
    """The level-0 tile containing `t` (`t` itself at level 0)."""
    s = 10 ** t.level
    return TileId(0, t.lng_idx // s, t.lat_idx // s)


def tiles_overlapping_box(box: BBox, level: int) -> set[TileId]:
    """Level tiles meeting the closed `box` (see :func:`tile_span`)."""
    _check_level(level)
    s = 10 ** level
    i0, i1 = tile_span(box.min.lng, box.max.lng, s, GRID_END[0])
    j0, j1 = tile_span(box.min.lat, box.max.lat, s, GRID_END[1])
    return {TileId(level, i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)}


def intersecting_tiles(g: Geometry, level: int) -> set[TileId]:
    """Exactly the level tiles intersecting the geometry.

    Point/MultiPoint intersect the tiles containing at least one of their
    points; any other kind is reduced to its bounding box.
    """
    _check_level(level)
    if g.kind is GeometryKind.OTHER:
        return tiles_overlapping_box(g.bbox, level)
    return {tile_of(p, level) for p in g.points}


# --- GeoJSON features -------------------------------------------------------

_REQUIRED_PROPS = ("oid", "tid", "uid", "cid")


@dataclass(frozen=True, slots=True)
class Feature:
    """Parsed GeoJSON Feature with the mandatory identity properties."""

    oid: str
    tid: str
    uid: str
    cid: str
    geometry: Geometry
    valid_time: tuple[int, int] | None
    properties: dict
    raw: dict

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.raw, separators=(",", ":"), sort_keys=True).encode()


def _collect_positions(coords, out: list[GeoCoord]) -> None:
    if (
        isinstance(coords, (list, tuple))
        and len(coords) >= 2
        and all(isinstance(v, (int, float)) for v in coords[:2])
    ):
        out.append(GeoCoord(float(coords[0]), float(coords[1])))
        return
    if isinstance(coords, (list, tuple)):
        for item in coords:
            _collect_positions(item, out)
        return
    raise FeatureError(f"unparseable coordinates: {coords!r}")


def parse_feature(src: Union[str, bytes, dict]) -> Feature:
    """Parse an RFC 7946 Feature (Point/MultiPoint natively, others by bbox)."""
    if isinstance(src, (str, bytes)):
        try:
            obj = json.loads(src)
        except json.JSONDecodeError as exc:
            raise FeatureError(f"invalid JSON: {exc}") from None
    else:
        obj = src
    if not isinstance(obj, dict) or obj.get("type") != "Feature":
        raise FeatureError("not a GeoJSON Feature")
    geom = obj.get("geometry")
    if not isinstance(geom, dict) or "type" not in geom:
        raise FeatureError("feature has no geometry")
    gtype = geom["type"]
    try:
        if gtype == "Point":
            lng, lat = geom["coordinates"][0], geom["coordinates"][1]
            geometry = Geometry.point(float(lng), float(lat))
        elif gtype == "MultiPoint":
            geometry = Geometry.multipoint(
                (float(c[0]), float(c[1])) for c in geom["coordinates"]
            )
        else:
            pts: list[GeoCoord] = []
            _collect_positions(geom.get("coordinates", []), pts)
            if not pts:
                raise FeatureError(f"geometry {gtype} has no coordinates")
            tmp = Geometry(GeometryKind.MULTIPOINT, tuple(pts))
            geometry = Geometry.other(tmp.bbox)
    except (KeyError, IndexError, TypeError, ValueError, GridError) as exc:
        raise FeatureError(f"bad geometry: {exc}") from None
    props = obj.get("properties") or {}
    if not isinstance(props, dict):
        raise FeatureError("properties must be an object")
    ids = []
    for key in _REQUIRED_PROPS:
        val = props.get(key)
        if val is None or str(val) == "":
            raise FeatureError(f"missing mandatory property {key!r}")
        ids.append(str(val))
    valid_time = None
    text = obj.get("temporalExtent")
    if text is not None:
        try:
            value = text["validTime"]["value"]
            a, b = int(value[0]), int(value[1])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise FeatureError(f"bad temporalExtent: {exc}") from None
        if a > b:
            raise FeatureError("validTime interval reversed")
        valid_time = (a, b)
    oid, tid, uid, cid = ids
    return Feature(oid, tid, uid, cid, geometry, valid_time, props, obj)
