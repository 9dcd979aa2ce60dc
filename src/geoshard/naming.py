"""Name schemes for stored objects, tile queries, address resolution and commands.

  object    ndn:/<tile-prefix>/DATA/<tid>/<cid>/<uid>/<oid>
  query     ndn:/<tile-prefix>/TILE/<tid>/<cid>[/T/<size-min>/<start-min>]
            one (tile, period) sub-query; travels only listed in a batch
  batch     ndn:/<level-0 route prefix>/<mark>/<tid>/<cid>/<digest>
            sent to the engine that owns the level-0 tile; <digest> is the
            SHA-256 of the Interest's application parameters, which are
            a JSON list of object names (mark DATA: fetch those objects;
            mark DELETE: delete those rows of one object), or a JSON
            object (mark TILE) of query names to answer and the range
            query's predicate: {"names", "box": [west, south, east,
            north], "mode", "interval": [start, end] or null}
  address   ndn:/<tile-prefix>/IP-RES
  key loc.  ndn:/CERT/<did>/<uid>/<permission>

These are the only schemes; a name that fits none of them is refused with
:class:`NameSchemeError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable

from geoshard.geogrid import (
    GPS_ID,
    ROOT_COMPONENT,
    BBox,
    GridError,
    TileId,
    parse_tile_prefix,
    tile_prefix,
)
from geoshard.icn.names import Name

DATA_MARK = "DATA"
TILE_MARK = "TILE"
IP_RES_MARK = "IP-RES"
DELETE_MARK = "DELETE"
TEMPORAL_MARK = "T"
CERT_ROOT = "CERT"
SYSTEM_DID = "sys"

MODES = ("intersect", "include")  # the spatial predicates of a range query

BF_PREFIX = Name((ROOT_COMPONENT, "BF"))
BF_MEMBER_PREFIX = BF_PREFIX / "member"
BF_UPDATE_PREFIX = BF_PREFIX / "update"


class NameSchemeError(ValueError):
    """Name does not match any known scheme."""


def did_of(tid: str, cid: str) -> str:
    """Map the (tenant, collection) pair onto a single data-set identifier."""
    return f"{tid}.{cid}"


def tenant_of_did(did: str) -> str:
    return did.split(".", 1)[0]


def route_prefix(tile: TileId) -> Name:
    """FIB prefix of a tile: the tile prefix without the GPS-ID terminator.

    Dropping the terminator is what lets one level-0 route cover every
    descendant tile name by longest-prefix match.
    """
    return tile_prefix(tile)[:-1]


def object_name(tile: TileId, tid: str, cid: str, uid: str, oid: str) -> Name:
    return tile_prefix(tile).append(DATA_MARK, tid, cid, uid, oid)


@dataclass(frozen=True, slots=True)
class Predicate:
    """A range query's box, mode and interval, as its tile batches carry them."""

    box: BBox
    mode: str
    interval: tuple[int, int] | None


def object_batch(
    tile: TileId,
    tid: str,
    cid: str,
    names: Iterable[Name],
    mark: str = DATA_MARK,
    predicate: Predicate | None = None,
) -> tuple[Name, bytes]:
    """(batch name, application parameters) listing `names` for the engine
    that owns level-0 `tile`: objects to fetch (DATA), rows to delete
    (DELETE) or tile queries to answer (TILE), the last with the predicate
    of the range query they serve."""
    listed = [list(n.components) for n in names]
    if predicate is None:
        params = json.dumps(listed).encode()
    else:
        box = predicate.box
        params = json.dumps({
            "names": listed,
            "box": [box.min.lng, box.min.lat, box.max.lng, box.max.lat],
            "mode": predicate.mode,
            "interval": None if predicate.interval is None else list(predicate.interval),
        }).encode()
    name = route_prefix(tile).append(mark, tid, cid, sha256(params).hexdigest())
    return name, params


def batch_mark(name: Name) -> str | None:
    """DATA, DELETE or TILE for a batch name, None for a name in any other scheme."""
    c = name.components
    return c[3] if len(c) == 7 and c[3] in (DATA_MARK, DELETE_MARK, TILE_MARK) else None


def tile_query_name(
    tile: TileId, tid: str, cid: str, period: tuple[int, int] | None = None
) -> Name:
    """Query name for one (tile, tenant, collection); period is (start, size) minutes."""
    n = tile_prefix(tile).append(TILE_MARK, tid, cid)
    if period is not None:
        start, size = period
        n = n.append(TEMPORAL_MARK, str(size), str(start))
    return n


def ip_res_name(tile: TileId) -> Name:
    return tile_prefix(tile) / IP_RES_MARK


def key_locator_name(did: str, uid: str, permission: str) -> Name:
    if permission not in ("r", "rw"):
        raise NameSchemeError(f"permission must be r or rw, got {permission!r}")
    return Name((CERT_ROOT, did, uid, permission))


@dataclass(frozen=True, slots=True)
class KeyLocatorInfo:
    did: str
    uid: str
    permission: str


def parse_key_locator(kl: Name) -> KeyLocatorInfo:
    c = kl.components
    if len(c) != 4 or c[0] != CERT_ROOT or c[3] not in ("r", "rw"):
        raise NameSchemeError(f"bad key locator: {kl}")
    return KeyLocatorInfo(c[1], c[2], c[3])


@dataclass(frozen=True, slots=True)
class ObjectNameInfo:
    tile: TileId
    tid: str
    cid: str
    uid: str
    oid: str

    @property
    def did(self) -> str:
        return did_of(self.tid, self.cid)


@dataclass(frozen=True, slots=True)
class TileQueryInfo:
    tile: TileId
    tid: str
    cid: str
    period: tuple[int, int] | None  # (start, size) minutes

    @property
    def did(self) -> str:
        return did_of(self.tid, self.cid)


def _split_tile(name: Name, mark: str) -> tuple[TileId, tuple[str, ...]]:
    comps = name.components
    try:
        gps = comps.index(GPS_ID)
    except ValueError:
        raise NameSchemeError(f"no tile prefix in {name}") from None
    try:
        tile = parse_tile_prefix(name.prefix(gps + 1))
    except GridError as exc:
        raise NameSchemeError(str(exc)) from None
    rest = comps[gps + 1 :]
    if not rest or rest[0] != mark:
        raise NameSchemeError(f"expected {mark} after tile prefix in {name}")
    return tile, rest[1:]


def parse_object_name(name: Name) -> ObjectNameInfo:
    tile, rest = _split_tile(name, DATA_MARK)
    if len(rest) != 4:
        raise NameSchemeError(f"bad object name: {name}")
    return ObjectNameInfo(tile, *rest)


def parse_tile_query_name(name: Name) -> TileQueryInfo:
    tile, rest = _split_tile(name, TILE_MARK)
    if len(rest) == 2:
        return TileQueryInfo(tile, rest[0], rest[1], None)
    if len(rest) == 5 and rest[2] == TEMPORAL_MARK:
        try:
            size, start = int(rest[3]), int(rest[4])
        except ValueError:
            raise NameSchemeError(f"bad period components in {name}") from None
        return TileQueryInfo(tile, rest[0], rest[1], (start, size))
    raise NameSchemeError(f"bad tile query name: {name}")


@dataclass(frozen=True, slots=True)
class BatchInfo:
    tile: TileId  # level 0
    tid: str
    cid: str
    names: tuple[Name, ...]
    predicate: Predicate | None  # a TILE batch's; None for DATA and DELETE


def parse_object_batch(name: Name, params: bytes | None, mark: str) -> BatchInfo:
    """Inverse of :func:`object_batch`; the digest must match the parameters.

    A TILE batch must carry a well-formed predicate: a known mode, a box
    that is not degenerate and an interval that is null or not inverted.
    DATA and DELETE batches carry none.
    """
    if batch_mark(name) != mark:
        raise NameSchemeError(f"bad {mark} batch name: {name}")
    c = name.components
    try:
        tile = parse_tile_prefix(name.prefix(3) / GPS_ID)
    except GridError as exc:
        raise NameSchemeError(str(exc)) from None
    if params is None or sha256(params).hexdigest() != c[6]:
        raise NameSchemeError(f"parameters do not match the digest of {name}")
    try:
        raw = json.loads(params)
        predicate = None
        if mark == TILE_MARK:
            if not isinstance(raw, dict) or raw.keys() != {"names", "box", "mode", "interval"}:
                raise ValueError("expected the query names and a predicate")
            predicate = _parse_predicate(raw["box"], raw["mode"], raw["interval"])
            raw = raw["names"]
        if not isinstance(raw, list) or not all(isinstance(comps, list) for comps in raw):
            raise ValueError("expected a list of component lists")
        names = tuple(Name(comps) for comps in raw)
    except (TypeError, ValueError) as exc:
        raise NameSchemeError(f"bad parameters of {name}: {exc}") from None
    return BatchInfo(tile, c[4], c[5], names, predicate)


def _numbers(raw, count: int) -> list:
    if (
        not isinstance(raw, list)
        or len(raw) != count
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise ValueError(f"expected {count} numbers, got {raw!r}")
    return raw


def _parse_predicate(box, mode, interval) -> Predicate:
    """Raises ValueError (GridError for a degenerate box) on a malformed predicate."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if interval is not None:
        start, end = _numbers(interval, 2)
        if start > end:
            raise ValueError(f"inverted interval {interval!r}")
        interval = (start, end)
    return Predicate(BBox.of(*_numbers(box, 4)), mode, interval)
