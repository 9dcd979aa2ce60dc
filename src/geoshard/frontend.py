"""Front-end library: range queries, insertions, deletions.

A range query runs in two phases: tile-querying (tessellate the box,
optionally pre-filter void tiles through the Bloom server, then send one
tile batch per owning level-0 tile, listing its (tile, period) sub-queries
and carrying the query's predicate - box, mode and interval - one after
another on the caller's thread) and post-filtering.

Trust boundary: each signature vouches for one fact.

- The engine's signature on a tile batch reply vouches for its index
  records: that these are the rows of the listed sub-queries that can
  match the batch's predicate, one per identity. That is, of the rows it
  holds for the (tile, period) sub-queries the batch lists, in the named
  data set, those that pass steps 1 and 2 of the post-filter below, with
  a master's extent standing in for its exact match; one row per object
  identity, the master where one passes. The predicate is part of the
  batch's parameters, which its name is the digest of, so the signed
  Interest binds it. The front-end still runs every step on every row it
  receives: an engine could always leave rows out, and cannot forge a
  master. Its signature on a master batch reply vouches that these are the
  stored masters it holds of the names listed. The front-end verifies it
  on every reply segment (transport validation) and accepts it only from
  an engine's certificate (`sys/<engine>`), not from a user, the Bloom
  server or the anchor. The engine verified the owner's signature on each
  row when it was inserted.
- The owner's signature vouches for the data that is returned. Every
  returned object - a master fetched in a batch or one found in a tile
  reply - passes the provenance check: the owner's signature and a
  certificate chain to the tenant its name claims.

Each of these checks verifies an Ed25519 signature once per front-end: the
front-end's memo of verified signatures (see :mod:`geoshard.trust`) answers
a reply segment or a master it has already verified, while certificate,
chain, validity window and owner checks run on every packet.

A reference is never returned; it only says which master to use, so the
engine-signed reply that carries it vouches for it and it has no owner
check of its own. It pins its master by name and by digest (see
:mod:`geoshard.objects`). Each front-end keeps a store of verified masters:
at most MASTER_STORE_SIZE masters fetched in a master batch whose wire
bytes had the digest their reference pins, least recently used out first.
A reference whose (master name, digest) is in the store resolves from it
without a master batch. A hit skips only that round trip: the stored
master still takes the exact match and the provenance check, with its
chain, validity window, owner and tenant. Masters found in tile replies
are not hashed and do not enter the store. A reference that names a wrong
master tile, or whose fetched master has another digest, cannot shorten a
result: its master is then missing, and the query fails.

A hit does not ask the engine whether the master row still exists. A delete
batch that timed out can leave references to a deleted master behind; a
front-end whose store holds that master still returns the half-deleted
object, while one that does not fails the query, its master missing.

The post-filter keeps one copy per object identity (tid, cid, uid, oid) and
tests each copy of an unresolved identity in this order, cheapest first:

1. temporal: the validity interval in the payload header;
2. spatial: for a reference, the extent it carries (include: extent inside
   the box, exact for points; intersect: extent touches the box, a
   necessary condition); for a master, the exact match on its geometry
   and validity;
3. provenance, masters only: the owner's signature and certificate chain.

A copy that fails a step is dropped without settling its identity, so
later copies stay eligible. The masters of the references that pass come
from the store, or else are fetched with one batch Interest per owning
engine; each takes the exact match and then the provenance check. A master
that its engine does not return, or returns with another digest, fails
the query.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from geoshard.bloomsvc import SERVER_UID
from geoshard.engine import DELETE_DENIED, DELETE_NOT_FOUND, DELETE_OK
from geoshard.geogrid import BBox, Feature, Geometry, TileId, level0, parse_feature
from geoshard.icn.clock import system_clock
from geoshard.icn.consumer import Consumer, GetTimeoutError
from geoshard.icn.names import Name
from geoshard.icn.packets import DataPacket, Packet, decode_packet_stream, encode_packet
from geoshard.naming import (
    DELETE_MARK,
    MODES,
    SYSTEM_DID,
    TILE_MARK,
    Predicate,
    ip_res_name,
    object_batch,
    object_name,
    parse_object_name,
    route_prefix,
    tile_query_name,
)
from geoshard.objects import (
    build_object_packets,
    decode_object_payload,
    extent_match,
    master_digest,
    replication_tiles,
    spatial_match,
    temporal_match,
)
from geoshard.tessellate import PeriodSet, constrained_tessellation, temporal_decompose
from geoshard.trust import (
    Certificate,
    Identity,
    LruStore,
    ValidationError,
    Validator,
    VerifiedMemo,
    data_signer,
    interest_signer,
)

log = logging.getLogger(__name__)

DEFAULT_K = 50
ODATA_FRESHNESS_MS = 3_600_000  # freshness of the object packets an insert signs
MASTER_STORE_SIZE = 2048  # verified masters a front-end holds, by (name, digest)


class RangeQueryError(Exception):
    """A tile batch, a master batch or a master failed; the whole range
    query fails with its name attached."""

    def __init__(self, name: Name, cause: str):
        super().__init__(f"sub-query {name} failed: {cause}")
        self.name = name


class InsertError(Exception):
    pass


@dataclass
class RangeQuery:
    """One range query."""

    bbox: BBox
    tid: str
    cid: str
    mode: str = "intersect"  # "intersect" or "include"
    interval: tuple[int, int] | None = None
    k: int = DEFAULT_K
    use_bf: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class QueryStats:
    tessellation_ms: float = 0.0
    bf_ms: float = 0.0
    batch_ms: float = 0.0
    postfilter_ms: float = 0.0
    tiles_before: int = 0
    tiles_after: int = 0
    subqueries: int = 0
    validation_warnings: int = 0
    bf_fallback: bool = False
    master_hits: int = 0  # references resolved from the store of verified masters
    master_fetches: int = 0  # master names sent in master batches
    rows_received: int = 0  # packets decoded from tile batch replies


@dataclass
class QueryResult:
    objects: list[Feature]
    stats: QueryStats

    @property
    def oids(self) -> set[str]:
        return {f.oid for f in self.objects}


@dataclass
class InsertReport:
    oid: str
    statuses: list[tuple[Name, int]]

    @property
    def ok(self) -> bool:
        return bool(self.statuses) and all(s == 0 for _, s in self.statuses)


@dataclass
class DeleteReport:
    oid: str
    per_tile: list[tuple[Name, str]]

    @property
    def ok(self) -> bool:
        return bool(self.per_tile) and all(s == "OK" for _, s in self.per_tile)


class Frontend:
    """One front-end instance; safe for concurrent client calls.

    Every request runs on the calling thread: a front-end starts no thread.
    `close` closes its bulk transports. `verified` is its memo of verified
    signatures and `masters` its store of fetched masters that matched the
    digest their reference pins, each with hit and miss counts.
    `bf_fallbacks` counts the range queries that queried every tile because
    the Bloom pre-filter failed.
    """

    def __init__(
        self,
        consumer: Consumer,
        user: Identity,
        validator: Validator,
        *,
        bulk_connect: Callable[[str], Any],  # endpoint -> has insert(packets) -> statuses
        bf_client=None,
        clock: Callable[[], float] = system_clock,
        lifetime_ms: int = 2000,
        retries: int = 2,
    ):
        self.consumer = consumer
        self.user = user
        self.validator = validator
        self.bulk_connect = bulk_connect
        self.bf_client = bf_client
        self.clock = clock
        self.lifetime_ms = lifetime_ms
        self.retries = retries
        self._sign_interest = interest_signer(user)
        self._sign_data = data_signer(user)
        self._ipres_cache: dict[Name, tuple[str, float]] = {}
        self._transports: dict[str, Any] = {}
        self._lock = threading.Lock()
        self.verified = VerifiedMemo()
        self.masters = LruStore(MASTER_STORE_SIZE)
        self.bf_fallbacks = 0

    # --- validation helpers --------------------------------------------------

    def _verify_data(self, pkt: DataPacket) -> Certificate:
        """Transport validation: signer's chain checked, signature verified once."""
        return self.validator.verify_data(pkt, self.verified)

    def _verify_engine_reply(self, pkt: DataPacket) -> None:
        """Transport validation of an engine's reply (tile batch, master batch,
        address or delete status): it must be signed by an engine, never by a
        user, the Bloom server or the anchor."""
        cert = self._verify_data(pkt)
        info = cert.info
        if (
            info.did != SYSTEM_DID
            or info.uid == SERVER_UID
            or cert.kl_name == self.validator.anchor.kl_name
        ):
            raise ValidationError(f"reply {pkt.name} signed by {cert.kl_name}, not an engine")

    def _check_provenance(self, pkt: DataPacket) -> None:
        """The object must be signed by the owner its name claims."""
        cert = self._verify_data(pkt)
        info = parse_object_name(pkt.name)
        kl = cert.info
        if kl.uid != info.uid or kl.did != info.did:
            raise ValidationError(f"{pkt.name} signed by {cert.kl_name}")
        if self.validator.chain_tenant(cert) != info.tid:
            raise ValidationError(f"{pkt.name} signer outside tenant {info.tid}")

    # --- range query ----------------------------------------------------------

    def prefilter(
        self, tiles: Iterable[TileId], tid: str, cid: str, stats: QueryStats | None = None
    ) -> set[TileId]:
        """Keep tiles the Bloom server considers possibly non-void.

        No false negatives relative to engine ground truth; on any Bloom
        service failure the input set is returned unchanged (availability
        over optimization), ``bf_fallbacks`` is counted and
        ``stats.bf_fallback`` is set.
        """
        tiles = list(tiles)
        if self.bf_client is None:
            return set(tiles)
        try:
            items = [(str(route_prefix(t)), tid, cid) for t in tiles]
            bits = self.bf_client.membership(items)
            return {t for t, bit in zip(tiles, bits) if bit}
        except Exception as exc:
            log.warning("bloom pre-filter unavailable, querying all tiles: %s", exc)
            with self._lock:
                self.bf_fallbacks += 1
            if stats is not None:
                stats.bf_fallback = True
            return set(tiles)

    def spatio_temporal_subqueries(
        self, tiles: Iterable[TileId], periods: PeriodSet | None, tid: str, cid: str
    ) -> list[Name]:
        """One sub-query name per (tile, period) pair."""
        plist = [None] if periods is None else list(periods.periods)
        return [
            tile_query_name(tile, tid, cid, period)
            for tile in sorted(tiles)
            for period in plist
        ]

    def range_query(self, q: RangeQuery) -> QueryResult:
        stats = QueryStats()
        t0 = self.clock()
        tess = constrained_tessellation(q.bbox, q.k)
        periods = temporal_decompose(q.interval) if q.interval else None
        t1 = self.clock()
        stats.tessellation_ms = (t1 - t0) * 1000
        stats.tiles_before = len(tess.tiles)

        tiles = self.prefilter(tess.tiles, q.tid, q.cid, stats) if q.use_bf else tess.tiles
        t2 = self.clock()
        stats.bf_ms = (t2 - t1) * 1000
        stats.tiles_after = len(tiles)

        by_owner: dict[TileId, list[TileId]] = {}
        for tile in tiles:
            by_owner.setdefault(level0(tile), []).append(tile)
        predicate = Predicate(q.bbox, q.mode, q.interval)
        batches = []
        for owner, owned in sorted(by_owner.items()):
            names = self.spatio_temporal_subqueries(owned, periods, q.tid, q.cid)
            stats.subqueries += len(names)
            batches.append(object_batch(owner, q.tid, q.cid, names, TILE_MARK, predicate))
        replies = self._fetch_all(batches)
        t3 = self.clock()
        stats.batch_ms = (t3 - t2) * 1000

        objects = self._collect(replies, q, stats)
        objects.sort(key=lambda f: (f.oid, f.uid))
        stats.postfilter_ms = (self.clock() - t3) * 1000
        return QueryResult(objects, stats)

    def _fetch_all(self, requests: list[tuple[Name, bytes]]) -> list[tuple[Name, bytes]]:
        """(batch name, reply payload) of (batch name, application parameters)
        requests, in order.

        The requests go out one after another; the first failure, including
        a reply not signed by an engine or whose segments do not fit
        together, fails the query.
        """
        replies = []
        for name, params in requests:
            try:
                raw = self.consumer.get(
                    name,
                    lifetime_ms=self.lifetime_ms,
                    retries=self.retries,
                    sign=self._sign_interest,
                    app_params=params,
                    validate=self._verify_engine_reply,
                )
            except GetTimeoutError:
                raise RangeQueryError(name, "timeout") from None
            except ValidationError as exc:
                raise RangeQueryError(name, f"validation: {exc}") from None
            except ValueError as exc:
                raise RangeQueryError(name, f"malformed reply: {exc}") from None
            replies.append((name, raw))
        return replies

    def _collect(
        self, replies: list[tuple[Name, bytes]], q: RangeQuery, stats: QueryStats
    ) -> list[Feature]:
        """The objects matching `q`, one per identity; references resolved.

        Each copy of an unresolved identity is tested against `q`; a master
        is then provenance-checked, while a reference is vouched for by the
        engine-signed reply that carried it. A copy that fails a test leaves
        later copies eligible. A reference's master comes from the store of
        verified masters when its (name, digest) is there, else from a
        master batch; either way it takes the exact match and the
        provenance check.
        """
        features: dict[ObjectKey, Feature] = {}
        refs: dict[ObjectKey, tuple[TileId, bytes]] = {}  # identity -> master's tile, digest
        for name, raw in replies:
            packets = _decode_reply(name, raw)
            stats.rows_received += len(packets)
            for pkt in packets:
                try:
                    key = _object_key(pkt)
                    if key in features:
                        continue
                    payload = decode_object_payload(pkt.payload)
                    if payload.is_reference and key in refs:
                        continue
                    if not temporal_match(payload.valid_time, q.interval):
                        continue
                    if payload.is_reference:
                        extent, master_tile, digest = payload.reference()
                        if not extent_match(extent, q.bbox, q.mode):
                            continue
                        refs[key] = master_tile, digest
                    else:
                        feature = parse_feature(payload.body)
                        if not _matches(feature, q):
                            continue
                        self._check_provenance(pkt)
                        features[key] = feature
                except (ValidationError, ValueError) as exc:
                    stats.validation_warnings += 1
                    log.warning("dropping object %s: %s", pkt.name, exc)
        masters: dict[ObjectKey, DataPacket] = {}
        missing: dict[Name, tuple[ObjectKey, bytes]] = {}
        for key, (tile, digest) in refs.items():
            if key in features:
                continue
            master_name = object_name(tile, *key)
            pkt = self.masters.get((master_name, digest))
            if pkt is None:
                missing[master_name] = key, digest
            else:
                masters[key] = pkt
        stats.master_hits += len(masters)
        if missing:
            masters.update(self._fetch_masters(missing, stats))
        for key, pkt in masters.items():
            try:
                feature = parse_feature(decode_object_payload(pkt.payload).body)
                if not _matches(feature, q):
                    continue
                self._check_provenance(pkt)
                features[key] = feature
            except (ValidationError, ValueError) as exc:
                stats.validation_warnings += 1
                log.warning("dropping master %s: %s", pkt.name, exc)
        return list(features.values())

    def _fetch_masters(
        self, missing: dict[Name, tuple[ObjectKey, bytes]], stats: QueryStats
    ) -> dict[ObjectKey, DataPacket]:
        """Fetch masters with one batch per (owning level-0 tile, tid, cid).

        `missing` maps each master's name to its identity and the digest its
        reference pins. A returned master whose wire bytes have that digest
        is popped from `missing` and enters the store of verified masters;
        any name left over fails the query.
        """
        stats.master_fetches += len(missing)
        batches: dict[tuple[TileId, str, str], list[Name]] = {}
        for master in sorted(missing):
            info = parse_object_name(master)
            batches.setdefault((level0(info.tile), info.tid, info.cid), []).append(master)
        requests = [object_batch(*group, names) for group, names in batches.items()]
        found: dict[ObjectKey, DataPacket] = {}
        for name, raw in self._fetch_all(requests):
            for pkt in _decode_reply(name, raw):
                try:
                    if not isinstance(pkt, DataPacket) or pkt.name not in missing:
                        raise ValidationError(f"unrequested packet {pkt.name}")
                    if decode_object_payload(pkt.payload).is_reference:
                        raise ValidationError(f"{pkt.name} is a reference, not a master")
                    key, digest = missing[pkt.name]
                    if master_digest(encode_packet(pkt)) != digest:
                        raise ValidationError(f"{pkt.name} lacks the digest its reference pins")
                except (ValidationError, ValueError) as exc:
                    stats.validation_warnings += 1
                    log.warning("dropping master %s: %s", pkt.name, exc)
                    continue
                del missing[pkt.name]
                self.masters.put((pkt.name, digest), pkt)
                found[key] = pkt
        if missing:
            raise RangeQueryError(min(missing), f"master not returned ({len(missing)} missing)")
        return found

    # --- insert -----------------------------------------------------------------

    def _resolve_endpoint(self, tile_l0: TileId) -> str:
        key = route_prefix(tile_l0)
        now = self.clock()
        with self._lock:
            cached = self._ipres_cache.get(key)
            if cached is not None and cached[1] > now:
                return cached[0]
        pkt = self.consumer.get_packet(
            ip_res_name(tile_l0), lifetime_ms=self.lifetime_ms, retries=self.retries,
            validate=self._verify_engine_reply,
        )
        endpoint = pkt.payload.decode()
        with self._lock:
            self._ipres_cache[key] = (endpoint, now + pkt.freshness_ms / 1000.0)
        return endpoint

    def _transport(self, endpoint: str):
        with self._lock:
            t = self._transports.get(endpoint)
            if t is None:
                t = self.bulk_connect(endpoint)
                self._transports[endpoint] = t
            return t

    def insert(self, source) -> InsertReport:
        """Package a feature (master + references), resolve the responsible
        engines, and push over the bulk stream."""
        feature = source if isinstance(source, Feature) else parse_feature(source)
        packets = build_object_packets(feature, self._sign_data, ODATA_FRESHNESS_MS)
        by_endpoint: dict[str, list] = {}
        for tile, pkt in packets:
            l0 = level0(tile)
            try:
                endpoint = self._resolve_endpoint(l0)
            except GetTimeoutError:
                raise InsertError(f"address resolution timed out for {route_prefix(l0)}") from None
            by_endpoint.setdefault(endpoint, []).append(pkt)
        statuses: list[tuple[Name, int]] = []
        for endpoint, pkts in sorted(by_endpoint.items()):
            results = self._transport(endpoint).insert(pkts)
            statuses.extend((p.name, s) for p, s in zip(pkts, results))
        return InsertReport(feature.oid, statuses)

    # --- delete -----------------------------------------------------------------

    def delete(self, oid: str, tid: str, cid: str, uid: str, geometry) -> DeleteReport:
        """One delete batch per owning engine, listing the object's rows in
        the level-0 tiles it owns: one row per intersecting tile at every
        level.

        The geometry (a Geometry or a GeoJSON geometry object) is required to
        enumerate the tiles the object was replicated to. The report holds
        one status per row; the rows of a batch that timed out read TIMEOUT.
        A reply whose statuses do not match its rows raises ValidationError.
        """
        geom = geometry if isinstance(geometry, Geometry) else _parse_geometry(geometry)
        fake = Feature(oid, tid, uid, cid, geom, None, {}, {})
        by_owner: dict[TileId, list[Name]] = {}
        for tile in replication_tiles(fake):
            by_owner.setdefault(level0(tile), []).append(object_name(tile, tid, cid, uid, oid))
        per_tile: list[tuple[Name, str]] = []
        for owner, rows in sorted(by_owner.items()):
            name, params = object_batch(owner, tid, cid, rows, DELETE_MARK)
            try:
                raw = self.consumer.get(
                    name,
                    lifetime_ms=self.lifetime_ms,
                    retries=self.retries,
                    sign=self._sign_interest,
                    app_params=params,
                    validate=self._verify_engine_reply,
                )
            except GetTimeoutError:
                per_tile.extend((row, "TIMEOUT") for row in rows)
                continue
            per_tile.extend(zip(rows, _delete_statuses(name, raw, len(rows))))
        return DeleteReport(oid, per_tile)

    def close(self) -> None:
        """Close the bulk transports; idempotent."""
        with self._lock:
            for t in self._transports.values():
                close = getattr(t, "close", None)
                if close:
                    close()
            self._transports.clear()


ObjectKey = tuple[str, str, str, str]  # (tid, cid, uid, oid)


def _decode_reply(name: Name, raw: bytes) -> list[Packet]:
    """The packets of batch `name`'s reply; a malformed one fails the query."""
    try:
        return decode_packet_stream(raw)
    except ValueError as exc:
        raise RangeQueryError(name, f"malformed reply: {exc}") from None


_DELETE_STATUSES = {DELETE_OK, DELETE_NOT_FOUND, DELETE_DENIED}


def _delete_statuses(name: Name, raw: bytes, rows: int) -> list[str]:
    """The statuses of delete batch `name`'s reply, one per listed row."""
    statuses = raw.split(b"\n")
    if len(statuses) != rows or not _DELETE_STATUSES.issuperset(statuses):
        raise ValidationError(f"delete batch {name}: reply is not one known status per row")
    return [s.decode() for s in statuses]


def _object_key(pkt) -> ObjectKey:
    if not isinstance(pkt, DataPacket):
        raise ValidationError(f"not a Data packet: {pkt!r}")
    info = parse_object_name(pkt.name)
    return info.tid, info.cid, info.uid, info.oid


def _matches(feature: Feature, q: RangeQuery) -> bool:
    """The exact spatial and temporal predicates of `q`."""
    return spatial_match(feature.geometry, q.bbox, q.mode) and temporal_match(
        feature.valid_time, q.interval
    )


def _parse_geometry(geom: dict) -> Geometry:
    wrapper = {
        "type": "Feature",
        "geometry": geom,
        "properties": {"oid": "x", "tid": "x", "uid": "x", "cid": "x"},
    }
    return parse_feature(wrapper).geometry


# --- request/response service endpoint ----------------------------------------


class _ServiceHandler(socketserver.StreamRequestHandler):
    def handle(self):
        frontend: Frontend = self.server.frontend  # type: ignore[attr-defined]
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                response = _dispatch(frontend, json.loads(line))
            except Exception as exc:  # surface the failure to the caller
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write(json.dumps(response).encode() + b"\n")
            self.wfile.flush()


def _dispatch(frontend: Frontend, req: dict) -> dict:
    op = req.get("op")
    if op == "range_query":
        q = RangeQuery(
            bbox=BBox.of(*req["bbox"]),
            tid=req["tid"],
            cid=req["cid"],
            mode=req.get("mode", "intersect"),
            interval=tuple(req["interval"]) if req.get("interval") else None,
            k=req.get("k", DEFAULT_K),
            use_bf=req.get("use_bf", False),
        )
        result = frontend.range_query(q)
        return {
            "ok": True,
            "objects": [f.raw for f in result.objects],
            "stats": result.stats.__dict__,
        }
    if op == "insert":
        report = frontend.insert(req["feature"])
        return {
            "ok": report.ok,
            "oid": report.oid,
            "statuses": [[str(n), s] for n, s in report.statuses],
        }
    if op == "delete":
        report = frontend.delete(
            req["oid"], req["tid"], req["cid"], req["uid"], req["geometry"]
        )
        return {"ok": report.ok, "oid": report.oid,
                "statuses": [[str(n), s] for n, s in report.per_tile]}
    raise ValueError(f"unknown op {op!r}")


class FrontendService:
    """Line-delimited JSON over TCP exposing range_query/insert/delete."""

    def __init__(self, frontend: Frontend, host: str = "127.0.0.1", port: int = 0):
        self._server = socketserver.ThreadingTCPServer((host, port), _ServiceHandler, bind_and_activate=True)
        self._server.daemon_threads = True
        self._server.frontend = frontend  # type: ignore[attr-defined]
        self.address = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
