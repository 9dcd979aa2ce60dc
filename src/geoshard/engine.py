"""Back-end database engine.

Stores object rows grouped by (tile, tenant, collection), each as the
framed wire bytes of its owner-signed packet, and answers batch
Interests, one per front-end request and owned level-0 tile. A tile batch
lists (tile, period) queries of one data set and carries the range
query's predicate (box, mode, interval); it is answered with one signed
container of the rows of those queries that can match the predicate, one
per object identity, the master when the engine holds one that passes.
Every reply is built from the index; nothing on the read path is cached.
An object batch fetches masters into one signed container; a delete batch
removes the rows of one object under the engine's tiles and is answered
with one signed container of one status per row. A reply joins the
stored bytes of its rows; nothing is encoded again. A batch is authorized
with one access decision. The engine also resolves its own bulk-insert
address, applies the access-control table to every operation, and keeps a
counting Bloom filter over (tile-prefix, tenant, collection) groups whose
0->1 / 1->0 bucket transitions are published to the filter server; a
publish that fails is logged and counted.
"""

from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from geoshard.bloom import CountingBloomFilter, bf_key
from geoshard.geogrid import TileId, level0, parse_tile_prefix
from geoshard.icn.clock import system_clock
from geoshard.icn.faces import MAX_FRAME, FrameTooLarge, frame, read_frame
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DataPacket,
    InterestPacket,
    decode_packet,
    encode_packet,
    encode_packet_stream,  # called through this module: the bench's tracer wraps it here
)
from geoshard.icn.producer import Producer, ProducerReply
from geoshard.naming import (
    BatchInfo,
    DATA_MARK,
    DELETE_MARK,
    IP_RES_MARK,
    NameSchemeError,
    TILE_MARK,
    batch_mark,
    parse_object_batch,
    parse_object_name,
    parse_tile_query_name,
    route_prefix,
    tile_query_name,
)
from geoshard.objects import StoredObject, temporal_match
from geoshard.trust import (
    AccessOp,
    Identity,
    ValidationError,
    Validator,
    check_access,
    data_signer,
)

log = logging.getLogger(__name__)

STATUS_OK = 0
STATUS_BAD_SIGNATURE = 1
STATUS_DENIED = 2
STATUS_DUPLICATE = 3
STATUS_MALFORMED = 4
STATUS_WRONG_SHARD = 5

# statuses of a delete batch reply, one line per listed row
DELETE_OK = b"OK"
DELETE_NOT_FOUND = b"NOT-FOUND"
DELETE_DENIED = b"DENIED"


@dataclass
class EngineConfig:
    node_id: str
    tiles: tuple[TileId, ...]  # owned level-0 tiles
    ipres_freshness_ms: int = 60_000
    bulk_endpoint: str = ""  # "host:port" or "inproc:<node>"; filled on start
    bf_params: tuple[int, int] | None = None  # (m, h), shared cluster-wide
    max_payload: int = 8192

    def __post_init__(self):
        if any(t.level != 0 for t in self.tiles):
            raise ValueError("engines own level-0 tiles")


@dataclass
class EngineStats:
    tile_queries: int = 0
    index_lookups: int = 0
    # no cache is left to invalidate, so this stays 0; the bench's counter
    # reader (bench/geobench/runner.py) still reads it
    qdata_invalidations: int = 0
    denied_queries: int = 0
    denied_inserts: int = 0
    denied_deletes: int = 0
    inserts: int = 0
    delete_batches: int = 0
    deletes: int = 0
    ip_resolutions: int = 0
    object_fetches: int = 0
    bf_publish_failures: int = 0
    rows_sent: int = 0  # rows in tile batch replies, counted per reply built
    rows_filtered: int = 0  # rows of listed queries that could not match the predicate


class DatabaseEngine:
    """One shard: owns a set of level-0 tiles and everything below them."""

    def __init__(
        self,
        config: EngineConfig,
        identity: Identity,
        validator: Validator,
        clock: Callable[[], float] = system_clock,
    ):
        self.config = config
        self.identity = identity
        self.validator = validator
        self.clock = clock
        self.stats = EngineStats()
        self._sign = data_signer(identity)
        self._state = threading.RLock()
        self.objects: dict[Name, StoredObject] = {}
        # (tile, tenant, collection) -> its rows, in insertion order
        self._groups: dict[tuple[TileId, str, str], dict[Name, StoredObject]] = {}
        self._owned_prefixes = tuple(route_prefix(t) for t in config.tiles)
        self.cbf = (
            CountingBloomFilter(*config.bf_params) if config.bf_params is not None else None
        )
        # set by the cluster: publishes (direction, bucket list) to the BF server
        self.bf_publish: Optional[Callable[[int, list[int]], None]] = None

    # --- ownership ---------------------------------------------------------

    def owns(self, tile: TileId) -> bool:
        return level0(tile) in self.config.tiles

    def route_prefixes(self) -> tuple[Name, ...]:
        return self._owned_prefixes

    # --- producer wiring ----------------------------------------------------

    def attach(self, producer: Producer) -> None:
        for prefix in self._owned_prefixes:
            producer.serve(prefix, self.handle_interest)

    def handle_interest(self, base: Name, interest: InterestPacket):
        try:
            if base[-1] == IP_RES_MARK:
                return self.handle_ip_res(base, interest)
            mark = batch_mark(base)
            if mark == TILE_MARK:
                return self.handle_tile_query(base, interest)
            if mark == DATA_MARK:
                return self.handle_object_fetch(base, interest)
            if mark == DELETE_MARK:
                return self.handle_delete(base, interest)
        except NameSchemeError as exc:
            log.debug("%s: malformed name %s (%s)", self.config.node_id, base, exc)
            return None
        return None

    # --- access control ------------------------------------------------------

    def _authorize(
        self, pkt: InterestPacket | DataPacket, op: AccessOp, target: Name, tid: str
    ) -> None:
        """Raise ValidationError unless `pkt` verifies and its signer, certified
        under tenant `tid`, may perform `op` on the target name."""
        if isinstance(pkt, DataPacket):
            cert = self.validator.verify_data(pkt)
        else:
            cert = self.validator.verify_interest(pkt)
        decision = check_access(op, target, cert.kl_name)
        if not decision.allow:
            raise ValidationError(decision.reason)
        if self.validator.chain_tenant(cert) != tid:
            raise ValidationError(f"issuer not certified by tenant {tid}")

    def _list_batch(
        self, base: Name, interest: InterestPacket, mark: str, parse: Callable
    ) -> tuple[BatchInfo, list[tuple]] | None:
        """The batch and (name, parse(name)) for every name it lists; None
        when its level-0 tile is not this engine's.

        Raises NameSchemeError or ValidationError when the batch's digest
        does not match its parameters, or when any listed name is
        malformed, lies outside the batch's data set or under a tile this
        engine does not own.
        """
        info = parse_object_batch(base, interest.app_params, mark)
        if info.tile not in self.config.tiles:
            return None
        listed = [(name, parse(name)) for name in info.names]
        for name, item in listed:
            if (item.tid, item.cid) != (info.tid, info.cid) or not self.owns(item.tile):
                raise ValidationError(f"{name} is outside batch {base}")
        return info, listed

    def _open_batch(
        self, base: Name, interest: InterestPacket, mark: str, parse: Callable
    ) -> tuple[BatchInfo, list[tuple]] | None:
        """A read batch and (name, parse(name)) for every name it lists;
        None when the batch is not for this engine, or refused (and counted).

        The batch is refused whole when `_list_batch` refuses it, or when
        the signer may not query the batch's data set. Since every listed
        name lies in that data set, one access decision covers them all:
        the one on the query of the batch's whole level-0 tile.
        """
        try:
            batch = self._list_batch(base, interest, mark, parse)
            if batch is None:
                return None
            info, listed = batch
            scope = tile_query_name(info.tile, info.tid, info.cid)
            self._authorize(interest, AccessOp.QUERY, scope, info.tid)
        except (ValidationError, NameSchemeError) as exc:
            self.stats.denied_queries += 1
            log.debug("%s: batch %s refused: %s", self.config.node_id, base, exc)
            return None
        return batch

    # --- tile queries --------------------------------------------------------

    def handle_tile_query(self, base: Name, interest: InterestPacket):
        """Answer a tile batch with one engine-signed container holding the
        rows of the (tile, period) queries it lists that can match its
        predicate, one per object identity (tid, cid, uid, oid).

        A row is kept when it passes the front-end's own tests that precede
        the exact match (`StoredObject.can_match`), so no row the front-end
        would keep is left out. Of an identity's kept rows the first is
        sent, or its master when one of them is the master. Each query's
        rows are one index lookup. The reply joins the kept rows' stored
        bytes; it is rebuilt for each segment Interest and signed on read,
        outside the state lock, so only the segment sent is signed.
        """
        self.stats.tile_queries += 1
        batch = self._open_batch(base, interest, TILE_MARK, parse_tile_query_name)
        if batch is None:
            return None
        info, listed = batch
        kept: dict[tuple[str, str, str, str], StoredObject] = {}
        filtered = 0
        with self._state:
            for _, query in listed:
                for row in self._select(query.tile, query.tid, query.cid, query.period):
                    held = kept.get(row.key)
                    if held is not None and (row.is_reference or not held.is_reference):
                        continue
                    if not row.can_match(info.predicate):
                        filtered += 1
                        continue
                    kept[row.key] = row
            payload = b"".join(row.wire for row in kept.values())
            self.stats.rows_sent += len(kept)
            self.stats.rows_filtered += filtered
        return ProducerReply(
            payload, sign=self._sign, max_payload=self.config.max_payload
        ).segments(base)

    def _select(
        self, tile: TileId, tid: str, cid: str, period: tuple[int, int] | None
    ) -> Iterable[StoredObject]:
        """The rows of one tile query, in insertion order; called under `_state`."""
        self.stats.index_lookups += 1
        rows = self._groups.get((tile, tid, cid), {}).values()
        if period is None:
            return rows
        start, size = period
        seconds = start * 60, (start + size) * 60
        return [r for r in rows if temporal_match(r.valid_time, seconds)]

    # --- address resolution ---------------------------------------------------

    def handle_ip_res(self, base: Name, interest: InterestPacket):
        tile = parse_tile_prefix(base[:-1])
        if not self.owns(tile):
            return None
        self.stats.ip_resolutions += 1
        return ProducerReply(
            self.config.bulk_endpoint.encode(),
            freshness_ms=self.config.ipres_freshness_ms,
            sign=self._sign,
        )

    # --- batch object fetch -----------------------------------------------------

    def handle_object_fetch(self, base: Name, interest: InterestPacket):
        """Serve the stored objects named in a batch Interest's parameters.

        Every name is checked like a tile query of its data set. The reply
        is one engine-signed container joining the stored bytes of the
        owner-signed packets found; names not held here are left out, and
        the requester notices them. The reply is rebuilt for each segment
        Interest, so only the segment sent is signed.
        """
        batch = self._open_batch(base, interest, DATA_MARK, parse_object_name)
        if batch is None:
            return None
        with self._state:
            rows = [self.objects[n].wire for n, _ in batch[1] if n in self.objects]
            self.stats.object_fetches += len(rows)
        return ProducerReply(
            b"".join(rows), sign=self._sign, max_payload=self.config.max_payload
        ).segments(base)

    # --- writes -----------------------------------------------------------------

    def bulk_insert(self, packets: Iterable[DataPacket]) -> list[int]:
        """Validate and commit a batch; one status per object, in order."""
        statuses: list[int] = []
        ups: list[int] = []
        with self._state:
            for pkt in packets:
                statuses.append(self._insert_one(pkt, ups))
        self._publish(0, ups)
        return statuses

    def _insert_one(self, pkt: DataPacket, ups: list[int]) -> int:
        try:
            row = StoredObject.from_packet(pkt, encode_packet_stream((pkt,)))
        except (NameSchemeError, ValueError):
            return STATUS_MALFORMED
        if not self.owns(row.tile):
            return STATUS_WRONG_SHARD
        try:
            self._authorize(pkt, AccessOp.INSERT, pkt.name, row.tid)
        except ValidationError as exc:
            self.stats.denied_inserts += 1
            log.debug("%s: insert denied for %s: %s", self.config.node_id, pkt.name, exc)
            return STATUS_BAD_SIGNATURE if pkt.signature is None else STATUS_DENIED
        if row.name in self.objects:
            return STATUS_DUPLICATE
        self.objects[row.name] = row
        group = self._groups.setdefault((row.tile, row.tid, row.cid), {})
        group[row.name] = row
        if len(group) == 1 and self.cbf is not None:
            ups.extend(self.cbf.add(_bf_key(row)))
        self.stats.inserts += 1
        return STATUS_OK

    def handle_delete(self, base: Name, interest: InterestPacket):
        """Delete the rows a delete batch lists, all of one object; reply
        with one signed container of one status per listed row, in order.

        The batch is refused whole (no reply, counted) when `_list_batch`
        refuses it, or when it does not list the rows of exactly one object
        (tid, cid, uid, oid). One access decision, on a listed row, then
        covers every row; on denial each row gets DENIED and none is
        removed. The 1->0 Bloom transitions of the batch are published
        once. The reply is one packet, never segmented: a segment Interest
        would run the batch again.
        """
        self.stats.delete_batches += 1
        try:
            batch = self._list_batch(base, interest, DELETE_MARK, parse_object_name)
            if batch is None:
                return None
            info, listed = batch
            if len({(o.tid, o.cid, o.uid, o.oid) for _, o in listed}) != 1:
                raise ValidationError(f"batch {base} does not list the rows of one object")
        except (ValidationError, NameSchemeError) as exc:
            self.stats.denied_deletes += 1
            log.debug("%s: delete batch %s refused: %s", self.config.node_id, base, exc)
            return None
        names = [name for name, _ in listed]
        try:
            self._authorize(interest, AccessOp.DELETE, names[0], info.tid)
        except ValidationError as exc:
            self.stats.denied_deletes += 1
            log.debug("%s: delete denied for %s: %s", self.config.node_id, base, exc)
            statuses = [DELETE_DENIED] * len(names)
        else:
            downs: list[int] = []
            with self._state:
                statuses = [self._delete_one(name, downs) for name in names]
            self._publish(1, downs)
        payload = b"\n".join(statuses)
        return ProducerReply(payload, freshness_ms=0, sign=self._sign, max_payload=len(payload))

    def _delete_one(self, oname: Name, downs: list[int]) -> bytes:
        """Remove one row; called under `_state`."""
        row = self.objects.pop(oname, None)
        if row is None:
            return DELETE_NOT_FOUND
        group_key = (row.tile, row.tid, row.cid)
        group = self._groups[group_key]
        del group[oname]
        if not group:
            del self._groups[group_key]
            if self.cbf is not None:
                downs.extend(self.cbf.remove(_bf_key(row)))
        self.stats.deletes += 1
        return DELETE_OK

    def _publish(self, direction: int, buckets: list[int]) -> None:
        # outside the state lock: publishing travels the fabric
        if not buckets or self.bf_publish is None:
            return
        try:
            self.bf_publish(direction, buckets)
        except Exception as exc:
            self.stats.bf_publish_failures += 1
            log.warning("%s: bloom update not delivered: %s", self.config.node_id, exc)

    # --- introspection -----------------------------------------------------------

    def non_void_groups(self) -> set[tuple[str, str, str]]:
        with self._state:
            return {(str(route_prefix(tile)), t, c) for tile, t, c in self._groups}


def _bf_key(row: StoredObject) -> str:
    """The Bloom key of the row's group, built on its first insert and last delete."""
    return bf_key(str(route_prefix(row.tile)), row.tid, row.cid)


# --- bulk-insert TCP endpoint ---------------------------------------------------
#
# Wire protocol, in the frames of `icn.faces`: the client sends one frame
# per encoded Data packet and an empty frame to end the batch; the server
# replies with one frame holding one status byte per object, then waits for
# the next batch on the same connection. A frame above MAX_FRAME, or a batch
# whose frames add up to more than MAX_FRAME bytes, closes the connection.


class BulkInsertServer:
    def __init__(self, engine: DatabaseEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self._srv = socket.create_server((host, port))
        self.address = self._srv.getsockname()[:2]
        self._closed = False
        threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._srv.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(sock,), daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        with sock:
            while True:
                batch: list[DataPacket] = []
                size = 0
                while True:
                    try:
                        raw = read_frame(sock)
                    except FrameTooLarge as exc:
                        log.warning("%s: bulk stream %s, closing", self.engine.config.node_id, exc)
                        return
                    if raw is None:
                        return
                    if not raw:
                        break
                    size += len(raw)
                    if size > MAX_FRAME:
                        log.warning("%s: bulk batch exceeds %d bytes, closing",
                                    self.engine.config.node_id, MAX_FRAME)
                        return
                    try:
                        pkt = decode_packet(raw)
                    except ValueError:
                        pkt = None
                    batch.append(pkt)
                statuses = []
                valid = [p for p in batch if isinstance(p, DataPacket)]
                results = iter(self.engine.bulk_insert(valid))
                for p in batch:
                    statuses.append(next(results) if isinstance(p, DataPacket) else STATUS_MALFORMED)
                try:
                    sock.sendall(frame(bytes(statuses)))
                except OSError:
                    return

    def close(self) -> None:
        self._closed = True
        try:
            self._srv.close()
        except OSError:
            pass


class BulkInsertClient:
    """Client side of the bulk-insert stream."""

    def __init__(self, endpoint: str):
        host, port = endpoint.rsplit(":", 1)
        self._sock = socket.create_connection((host, int(port)), timeout=30)

    def insert(self, packets: list[DataPacket]) -> list[int]:
        self._sock.sendall(b"".join(frame(encode_packet(p)) for p in packets) + frame(b""))
        body = read_frame(self._sock)
        if body is None:
            raise ConnectionError("bulk endpoint closed mid-reply")
        return list(body)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
