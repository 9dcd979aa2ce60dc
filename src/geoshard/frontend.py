"""Front-end library: range queries, insertions, deletions.

A range query runs in two phases: tile-querying (tessellate the box,
optionally pre-filter void tiles through the Bloom server, send the
tile-queries one after another on the caller's thread) and post-filtering.

Trust boundary: each signature vouches for one fact.

- The engine's signature on a tile reply or a batch reply vouches for its
  index records: that the engine holds these rows for the named tile, data
  set and period. The front-end verifies it on every reply segment
  (transport validation). The engine verified the owner's signature on each
  row when it was inserted.
- The owner's signature vouches for the data that is returned. Every
  returned object - a master fetched in a batch or one found in a tile
  reply - passes the provenance check: the owner's signature and a
  certificate chain to the tenant its name claims.

Each of these checks verifies an Ed25519 signature once per front-end: the
front-end's memo of verified signatures (see :mod:`geoshard.trust`) answers
a reply segment or a master it has already verified, while certificate,
chain, validity window and owner checks run on every packet.

A reference is never returned; it only says which master to fetch, so the
engine-signed reply that carries it vouches for it and it has no owner
check of its own. A reference that names a wrong master tile cannot shorten
a result: its master is then missing from the batch, and the query fails.

The post-filter keeps one copy per object identity (tid, cid, uid, oid) and
tests each copy of an unresolved identity in this order, cheapest first:

1. temporal: the validity interval in the payload header;
2. spatial: for a reference, the extent it carries (include: extent inside
   the box, exact for points; intersect: extent touches the box, a
   necessary condition); for a master, the exact match on its geometry
   and validity;
3. provenance, masters only: the owner's signature and certificate chain.

A copy that fails a step is dropped without settling its identity, so
later copies stay eligible. The masters of the references that pass are
fetched with one batch Interest per owning engine; each takes the exact
match and then the provenance check. A master that its engine does not
return fails the query.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from geoshard.geogrid import (
    BBox,
    Feature,
    Geometry,
    GeometryKind,
    TileId,
    level0,
    parse_feature,
)
from geoshard.icn.clock import system_clock
from geoshard.icn.consumer import Consumer, GetTimeoutError
from geoshard.icn.names import Name
from geoshard.icn.packets import DataPacket, decode_packet_stream
from geoshard.naming import (
    delete_name,
    ip_res_name,
    object_batch,
    object_name,
    parse_object_name,
    route_prefix,
    tile_query_name,
)
from geoshard.objects import (
    Extent,
    build_object_packets,
    decode_object_payload,
    geometry_extent,
    replication_tiles,
)
from geoshard.tessellate import PeriodSet, constrained_tessellation, temporal_decompose
from geoshard.trust import (
    Certificate,
    Identity,
    ValidationError,
    Validator,
    VerifiedMemo,
    data_signer,
    interest_signer,
)

log = logging.getLogger(__name__)

DEFAULT_K = 50
ODATA_FRESHNESS_MS = 3_600_000  # freshness of the object packets an insert signs


class RangeQueryError(Exception):
    """A sub-query failed; the whole range query fails with the name attached."""

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
        if self.mode not in ("intersect", "include"):
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


def spatial_match(geometry: Geometry, bbox: BBox, mode: str) -> bool:
    """Intersect: any point inside (closed); include: the whole geometry inside.

    Geometries without native points are judged on their bounding box.
    """
    if geometry.kind is GeometryKind.OTHER:
        return extent_match(geometry_extent(geometry), bbox, mode)
    inside = (bbox.contains(p) for p in geometry.points)
    return all(inside) if mode == "include" else any(inside)


def extent_match(extent: Extent, bbox: BBox, mode: str) -> bool:
    """Spatial test on an object's extent (west, south, east, north).

    Implied by `spatial_match` on the object's geometry; equal to it for
    include on points, and its definition for other kinds.
    """
    west, south, east, north = extent
    if mode == "include":
        return (
            bbox.min.lng <= west
            and bbox.min.lat <= south
            and east <= bbox.max.lng
            and north <= bbox.max.lat
        )
    return (
        west <= bbox.max.lng
        and bbox.min.lng <= east
        and south <= bbox.max.lat
        and bbox.min.lat <= north
    )


def temporal_match(valid_time: tuple[int, int] | None, interval: tuple[int, int] | None) -> bool:
    """Closed-interval overlap; objects without a validity are always valid."""
    if interval is None or valid_time is None:
        return True
    a, b = valid_time
    return a <= interval[1] and b >= interval[0]


class Frontend:
    """One front-end instance; safe for concurrent client calls.

    Every request runs on the calling thread: a front-end starts no thread.
    `close` closes its bulk transports. `verified` is its memo of verified
    signatures, with hit and miss counts.
    """

    def __init__(
        self,
        consumer: Consumer,
        user: Identity,
        validator: Validator,
        *,
        bulk_connect: Callable[[str], "BulkTransport"],
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
        self._transports: dict[str, BulkTransport] = {}
        self._lock = threading.Lock()
        self.verified = VerifiedMemo()

    # --- validation helpers --------------------------------------------------

    def _verify_data(self, pkt: DataPacket) -> Certificate:
        """Transport validation: signer's chain checked, signature verified once."""
        return self.validator.verify_data(pkt, self.verified)

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
        over optimization) and ``stats.bf_fallback`` is set.
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

        names = self.spatio_temporal_subqueries(tiles, periods, q.tid, q.cid)
        stats.subqueries = len(names)
        payloads = self._fetch_all([(n, None) for n in names])
        t3 = self.clock()
        stats.batch_ms = (t3 - t2) * 1000

        objects = self._collect(payloads, q, stats)
        objects.sort(key=lambda f: (f.oid, f.uid))
        stats.postfilter_ms = (self.clock() - t3) * 1000
        return QueryResult(objects, stats)

    def _fetch_all(self, requests: list[tuple[Name, bytes | None]]) -> list[bytes]:
        """Payloads of (name, application parameters) requests, in order.

        The requests go out one after another; the first failure fails the
        query.
        """
        payloads = []
        for name, params in requests:
            try:
                raw = self.consumer.get(
                    name,
                    lifetime_ms=self.lifetime_ms,
                    retries=self.retries,
                    sign=self._sign_interest,
                    app_params=params,
                    validate=self._verify_data,
                )
            except GetTimeoutError:
                raise RangeQueryError(name, "timeout") from None
            except ValidationError as exc:
                raise RangeQueryError(name, f"validation: {exc}") from None
            payloads.append(raw)
        return payloads

    def _collect(self, payloads: list[bytes], q: RangeQuery, stats: QueryStats) -> list[Feature]:
        """The objects matching `q`, one per identity; references resolved.

        Each copy of an unresolved identity is tested against `q`; a master
        is then provenance-checked, while a reference is vouched for by the
        engine-signed reply that carried it. A copy that fails a test leaves
        later copies eligible.
        """
        features: dict[ObjectKey, Feature] = {}
        refs: dict[ObjectKey, TileId] = {}  # identity -> master's level-2 tile
        for raw in payloads:
            for pkt in decode_packet_stream(raw):
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
                        extent, master_tile = payload.reference()
                        if not extent_match(extent, q.bbox, q.mode):
                            continue
                        refs[key] = master_tile
                    else:
                        feature = parse_feature(payload.body)
                        if not _matches(feature, q):
                            continue
                        self._check_provenance(pkt)
                        features[key] = feature
                except (ValidationError, ValueError) as exc:
                    stats.validation_warnings += 1
                    log.warning("dropping object %s: %s", pkt.name, exc)
        pending = {
            object_name(tile, *key): key for key, tile in refs.items() if key not in features
        }
        if pending:
            features.update(self._fetch_masters(pending, q, stats))
        return list(features.values())

    def _fetch_masters(
        self, missing: dict[Name, ObjectKey], q: RangeQuery, stats: QueryStats
    ) -> dict[ObjectKey, Feature]:
        """Fetch masters with one batch per (owning level-0 tile, tid, cid);
        keep those matching `q`.

        Pops each master that comes back from `missing`; any left over fail
        the query.
        """
        batches: dict[tuple[TileId, str, str], list[Name]] = {}
        for master in sorted(missing):
            info = parse_object_name(master)
            batches.setdefault((level0(info.tile), info.tid, info.cid), []).append(master)
        requests = [object_batch(*group, names) for group, names in batches.items()]
        found: dict[ObjectKey, Feature] = {}
        for raw in self._fetch_all(requests):
            for pkt in decode_packet_stream(raw):
                key = missing.pop(pkt.name, None) if isinstance(pkt, DataPacket) else None
                try:
                    if key is None:
                        raise ValidationError(f"unrequested packet {pkt.name}")
                    payload = decode_object_payload(pkt.payload)
                    if payload.is_reference:
                        raise ValidationError(f"{pkt.name} is a reference, not a master")
                    feature = parse_feature(payload.body)
                    if not _matches(feature, q):
                        continue
                    self._check_provenance(pkt)
                    found[key] = feature
                except (ValidationError, ValueError) as exc:
                    stats.validation_warnings += 1
                    log.warning("dropping master %s: %s", pkt.name, exc)
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
            validate=self._verify_data,
        )
        endpoint = pkt.payload.decode()
        with self._lock:
            self._ipres_cache[key] = (endpoint, now + pkt.freshness_ms / 1000.0)
        return endpoint

    def _transport(self, endpoint: str) -> "BulkTransport":
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
        """One delete command per intersecting tile at every level.

        The geometry (a Geometry or a GeoJSON geometry object) is required to
        enumerate the tiles the object was replicated to.
        """
        geom = geometry if isinstance(geometry, Geometry) else _parse_geometry(geometry)
        fake = Feature(oid, tid, uid, cid, geom, None, {}, {})
        per_tile: list[tuple[Name, str]] = []
        for tile in replication_tiles(fake):
            oname = object_name(tile, tid, cid, uid, oid)
            dname = delete_name(oname)
            try:
                raw = self.consumer.get(
                    dname,
                    lifetime_ms=self.lifetime_ms,
                    retries=self.retries,
                    sign=self._sign_interest,
                    validate=self._verify_data,
                )
                per_tile.append((oname, raw.decode()))
            except GetTimeoutError:
                per_tile.append((oname, "TIMEOUT"))
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


class BulkTransport:
    """Anything with insert(list[DataPacket]) -> list[int]."""

    def insert(self, packets) -> list[int]:  # pragma: no cover - interface
        raise NotImplementedError


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


class ServiceClient:
    """Driver-side client for the JSON service."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=60)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    def call(self, request: dict) -> dict:
        with self._lock:
            self._file.write(json.dumps(request).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
