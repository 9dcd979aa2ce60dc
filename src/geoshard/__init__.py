"""Geo-sharded spatial-temporal object store over a name-based forwarding fabric."""

from geoshard.geogrid import (
    BBox,
    Feature,
    GeoCoord,
    Geometry,
    TileId,
    children,
    intersecting_tiles,
    parent,
    parse_feature,
    parse_tile_prefix,
    tile_of,
    tile_prefix,
)
from geoshard.icn.names import Name
from geoshard.tessellate import (
    PeriodSet,
    Tessellation,
    constrained_tessellation,
    temporal_decompose,
)

__all__ = [
    "BBox",
    "Feature",
    "GeoCoord",
    "Geometry",
    "Name",
    "PeriodSet",
    "Tessellation",
    "TileId",
    "children",
    "constrained_tessellation",
    "intersecting_tiles",
    "parent",
    "parse_feature",
    "parse_tile_prefix",
    "temporal_decompose",
    "tile_of",
    "tile_prefix",
]
