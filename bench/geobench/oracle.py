"""The benchmark's own record of live objects and its linear-scan oracle.

The oracle reads the GeoJSON dicts the benchmark generated and shares no
code with the query path: closed box, closed interval, intersect means any
point inside, include means every point inside, and an object without a
validity interval matches any interval.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


def geojson_bytes(feature: dict) -> bytes:
    return json.dumps(feature, separators=(",", ":"), sort_keys=True).encode()


def _points(geometry: dict) -> list[tuple[float, float]]:
    coords = geometry["coordinates"]
    if geometry["type"] == "Point":
        return [(coords[0], coords[1])]
    return [(c[0], c[1]) for c in coords]


@dataclass(frozen=True)
class _Entry:
    feature: dict
    points: tuple[tuple[float, float], ...]
    valid: tuple[int, int] | None
    rows: int  # rows the insert report listed; the delete must list as many


class LiveSet:
    """Live objects by oid, in a stable order so seeded picks repeat."""

    def __init__(self):
        self._entries: dict[str, _Entry] = {}
        self._order: list[str] = []
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._order)

    def add(self, feature: dict, rows: int) -> None:
        oid = feature["properties"]["oid"]
        ext = feature.get("temporalExtent")
        valid = tuple(ext["validTime"]["value"]) if ext else None
        self._entries[oid] = _Entry(feature, tuple(_points(feature["geometry"])), valid, rows)
        self._index[oid] = len(self._order)
        self._order.append(oid)

    def remove(self, oid: str) -> None:
        del self._entries[oid]
        i = self._index.pop(oid)
        last = self._order.pop()
        if last != oid:
            self._order[i] = last
            self._index[last] = i

    def pick(self, rng: random.Random) -> str:
        return self._order[rng.randrange(len(self._order))]

    def feature(self, oid: str) -> dict:
        return self._entries[oid].feature

    def rows(self, oid: str) -> int:
        return self._entries[oid].rows

    def total_rows(self) -> int:
        return sum(e.rows for e in self._entries.values())

    def user_bytes(self) -> int:
        return sum(len(geojson_bytes(e.feature)) for e in self._entries.values())

    def expected(self, box, mode: str, interval: tuple[int, int] | None) -> set[str]:
        """Oids a range query must return (all live objects share one tenant/collection)."""
        x0, y0, x1, y1 = box.min.lng, box.min.lat, box.max.lng, box.max.lat
        out = set()
        for oid, e in self._entries.items():
            inside = [x0 <= x <= x1 and y0 <= y <= y1 for x, y in e.points]
            if not (all(inside) if mode == "include" else any(inside)):
                continue
            if interval is not None and e.valid is not None:
                if e.valid[0] > interval[1] or e.valid[1] < interval[0]:
                    continue
            out.add(oid)
        return out
