"""Name schemes for stored objects, tile queries, address resolution and commands.

  object    ndn:/<tile-prefix>/DATA/<tid>/<cid>/<uid>/<oid>
  query     ndn:/<tile-prefix>/TILE/<tid>/<cid>[/T/<size-min>/<start-min>]
            one (tile, period) sub-query; travels only listed in a batch
  batch     ndn:/<level-0 route prefix>/<mark>/<tid>/<cid>/<digest>
            sent to the engine that owns the level-0 tile; the Interest's
            application parameters list object names (mark DATA: fetch
            those objects; mark DELETE: delete those rows of one object)
            or query names (mark TILE: answer those tile queries), and
            <digest> is the SHA-256 of those parameters
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

from geoshard.geogrid import GPS_ID, ROOT_COMPONENT, GridError, TileId, parse_tile_prefix, tile_prefix
from geoshard.icn.names import Name

DATA_MARK = "DATA"
TILE_MARK = "TILE"
IP_RES_MARK = "IP-RES"
DELETE_MARK = "DELETE"
TEMPORAL_MARK = "T"
CERT_ROOT = "CERT"
SYSTEM_DID = "sys"

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


def object_batch(
    tile: TileId, tid: str, cid: str, names: Iterable[Name], mark: str = DATA_MARK
) -> tuple[Name, bytes]:
    """(batch name, application parameters) listing `names` for the engine
    that owns level-0 `tile`: objects to fetch (DATA), rows to delete
    (DELETE) or tile queries to answer (TILE)."""
    params = json.dumps([list(n.components) for n in names]).encode()
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


def parse_object_batch(name: Name, params: bytes | None, mark: str) -> BatchInfo:
    """Inverse of :func:`object_batch`; the digest must match the parameters."""
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
        if not isinstance(raw, list) or not all(isinstance(comps, list) for comps in raw):
            raise ValueError("expected a list of component lists")
        names = tuple(Name(comps) for comps in raw)
    except (TypeError, ValueError) as exc:
        raise NameSchemeError(f"bad parameters of {name}: {exc}") from None
    return BatchInfo(tile, c[4], c[5], names)
