import socket
import struct

import pytest

from geoshard.engine import (
    BulkInsertClient,
    BulkInsertServer,
    DELETE_DENIED,
    DELETE_NOT_FOUND,
    DELETE_OK,
    DatabaseEngine,
    EngineConfig,
    QDATA_CAPACITY,
    STATUS_DENIED,
    STATUS_DUPLICATE,
    STATUS_MALFORMED,
    STATUS_OK,
    STATUS_WRONG_SHARD,
)
from geoshard.geogrid import LEVELS, TileId, level0, parse_feature
from geoshard.icn import Consumer, InterestPacket, Name, Producer, face_pair
from geoshard.icn.clock import ManualClock
from geoshard.icn.faces import MAX_FRAME, frame
from geoshard.icn.packets import (
    DataPacket,
    decode_packet_stream,
    encode_packet,
    encode_packet_stream,
    reassemble,
    segment_name,
)
from geoshard.naming import (
    delete_name,
    ip_res_name,
    object_batch,
    object_name,
    parse_object_name,
    tile_query_name,
)
from geoshard.objects import build_object_packets, decode_object_payload
from geoshard.trust import (
    SCHEME_HMAC,
    Validator,
    data_signer,
    issue,
    make_anchor,
    sign_interest,
)


def feature_dict(oid, coords, tid="Foo", uid="u1", cid="poi", valid=None, multi=False):
    geom = (
        {"type": "MultiPoint", "coordinates": [list(c) for c in coords]}
        if multi
        else {"type": "Point", "coordinates": list(coords)}
    )
    obj = {
        "type": "Feature",
        "geometry": geom,
        "properties": {"oid": oid, "tid": tid, "uid": uid, "cid": cid},
    }
    if valid:
        obj["temporalExtent"] = {"validTime": {"type": "interval", "value": list(valid)}}
    return obj


class Env:
    def __init__(self, tiles=((12, 41),), node_id="e1", bf=None):
        self.anchor = make_anchor(scheme=SCHEME_HMAC)
        self.tenant = issue(self.anchor, "Foo", "Foo", "rw")
        self.users = {
            "u1": issue(self.tenant, "Foo.poi", "u1", "rw"),
            "u2": issue(self.tenant, "Foo.poi", "u2", "rw"),
            "reader": issue(self.tenant, "Foo.poi", "r1", "r"),
        }
        self.other_tenant = issue(self.anchor, "Bar", "Bar", "rw")
        self.other_user = issue(self.other_tenant, "Bar.poi", "w1", "rw")
        self.engine_id = issue(self.anchor, "sys", node_id, "rw")
        self.clock = ManualClock(1000.0)
        self.validator = Validator(self.anchor.cert, clock=self.clock)
        for ident in (
            self.tenant,
            self.other_tenant,
            self.other_user,
            self.engine_id,
            *self.users.values(),
        ):
            self.validator.add(ident.cert)
        cfg = EngineConfig(
            node_id,
            tuple(TileId.at(0, x, y) for x, y in tiles),
            bulk_endpoint=f"inproc:{node_id}",
            bf_params=bf,
        )
        self.engine = DatabaseEngine(cfg, self.engine_id, self.validator, clock=self.clock)

    def insert_feature(self, obj, user="u1"):
        feature = parse_feature(obj)
        packets = build_object_packets(feature, data_signer(self.users[user]))
        local = [pkt for tile, pkt in packets if self.engine.owns(tile)]
        return self.engine.bulk_insert(local), packets

    def query(self, tile, tid="Foo", cid="poi", user="u1", period=None):
        name = tile_query_name(tile, tid, cid, period)
        ident = self.users.get(user) or getattr(self, user)
        interest = sign_interest(ident if hasattr(ident, "cert") else self.users[user], InterestPacket(name))
        reply = self.engine.handle_tile_query(name, interest)
        if reply is None:
            return None
        return decode_packet_stream(reassemble(reply))


def test_insert_then_tile_query_returns_both_owners():
    env = Env()
    env.insert_feature(feature_dict("alice-1", (12.51133, 41.8919)), user="u1")
    env.insert_feature(feature_dict("bob-1", (12.51144, 41.8911), uid="u2"), user="u2")
    rows = env.query(TileId.at(2, 12.51, 41.89))
    oids = {r.name[-1] for r in rows}
    assert oids == {"alice-1", "bob-1"}
    # every item is self-contained: named, signed by its owner
    for pkt in rows:
        assert pkt.signature is not None
        assert env.validator.verify_data(pkt)


def test_void_tile_answered_with_signed_empty_container():
    env = Env()
    name = tile_query_name(TileId.at(2, 12.99, 41.99), "Foo", "poi")
    interest = sign_interest(env.users["u1"], InterestPacket(name))
    segments = env.engine.handle_tile_query(name, interest)
    assert segments is not None
    assert segments[0].signature is not None  # signed void reply, not a timeout
    assert decode_packet_stream(reassemble(segments)) == []


def test_qdata_cache_hit_skips_index():
    env = Env()
    env.insert_feature(feature_dict("o1", (12.2, 41.2)))
    tile = TileId.at(1, 12.2, 41.2)
    env.query(tile)
    lookups = env.engine.stats.index_lookups
    env.query(tile)
    assert env.engine.stats.index_lookups == lookups  # served from the query cache
    assert env.engine.stats.qdata_hits == 1


def test_write_invalidates_qdata_cache():
    env = Env()
    env.insert_feature(feature_dict("o1", (12.3, 41.3)))
    tile = TileId.at(2, 12.3, 41.3)
    assert len(env.query(tile)) == 1
    env.insert_feature(feature_dict("o2", (12.301, 41.301)))
    rows = env.query(tile)
    assert {r.name[-1] for r in rows} == {"o1", "o2"}  # no stale cache entry


def test_qdata_cache_is_bounded():
    env = Env()
    engine = env.engine
    env.insert_feature(feature_dict("o1", (12.05, 41.05)))
    first = TileId.at(2, 12.05, 41.05)
    env.query(first)  # the oldest reply
    others = [TileId(2, 1210 + i % 50, 4110 + i // 50) for i in range(QDATA_CAPACITY)]
    for tile in others:
        env.query(tile)
    assert len(engine._qdata) == QDATA_CAPACITY
    assert set().union(*engine._qdata_by_prefix.values()) == set(engine._qdata)
    # an insert invalidates only the live replies under its prefix
    invalidations = engine.stats.qdata_invalidations
    env.insert_feature(feature_dict("o2", (12.051, 41.051)))  # evicted prefix
    assert engine.stats.qdata_invalidations == invalidations
    env.insert_feature(feature_dict("o3", (12.215, 41.205)))  # under others[-1]
    assert engine.stats.qdata_invalidations == invalidations + 1
    # a repeated query after eviction sees the current rows
    assert {r.name[-1] for r in env.query(first)} == {"o1", "o2"}
    assert {r.name[-1] for r in env.query(others[-1])} == {"o3"}


def test_tile_query_denied_for_foreign_tenant_user():
    env = Env()
    env.insert_feature(feature_dict("o1", (12.4, 41.4)))
    name = tile_query_name(TileId.at(2, 12.4, 41.4), "Foo", "poi")
    interest = sign_interest(env.other_user, InterestPacket(name))
    assert env.engine.handle_tile_query(name, interest) is None  # dropped
    assert env.engine.stats.denied_queries == 1


def test_tile_query_allowed_for_readonly_tenant_user():
    env = Env()
    env.insert_feature(feature_dict("o1", (12.4, 41.4)))
    rows = env.query(TileId.at(2, 12.4, 41.4), user="reader")
    assert len(rows) == 1


def test_level_replication_rows_and_single_master():
    env = Env(tiles=((12, 41), (13, 41)))
    statuses, packets = env.insert_feature(
        feature_dict("span", [(12.51, 41.89), (13.2, 41.1)], multi=True)
    )
    assert all(s == STATUS_OK for s in statuses)
    # 2 level-0 + 2 level-1 + 2 level-2 rows, exactly one master overall
    assert len(packets) == 6
    masters = [
        pkt for _, pkt in packets if not decode_object_payload(pkt.payload).is_reference
    ]
    assert len(masters) == 1
    rows = env.engine.objects.values()
    per_level = [sum(row.tile.level == level for row in rows) for level in LEVELS]
    assert per_level == [2, 2, 2]


def test_insert_rejections():
    env = Env()
    feature = parse_feature(feature_dict("ok-1", (12.5, 41.5)))
    good = build_object_packets(feature, data_signer(env.users["u1"]))
    local = [p for t, p in good if env.engine.owns(t)]
    assert env.engine.bulk_insert(local) == [STATUS_OK] * 3
    # same names again: duplicates refused
    assert env.engine.bulk_insert(local) == [STATUS_DUPLICATE] * 3

    # u2 signs objects that claim uid=u1: denied before duplicate detection
    forged = build_object_packets(feature, data_signer(env.users["u2"]))
    statuses = env.engine.bulk_insert([p for t, p in forged if env.engine.owns(t)])
    assert set(statuses) == {STATUS_DENIED}
    feature2 = parse_feature(feature_dict("ok-2", (12.5, 41.5)))
    forged2 = build_object_packets(feature2, data_signer(env.users["u2"]))
    statuses2 = env.engine.bulk_insert([p for t, p in forged2 if env.engine.owns(t)])
    assert set(statuses2) == {STATUS_DENIED}

    # tile outside this engine's shard
    feature3 = parse_feature(feature_dict("faraway", (50.5, 10.5)))
    wrong = build_object_packets(feature3, data_signer(env.users["u1"]))
    assert env.engine.bulk_insert([p for _, p in wrong]) == [STATUS_WRONG_SHARD] * 3

    # garbage payload
    bad = DataPacket(object_name(TileId.at(2, 12.5, 41.5), "Foo", "poi", "u1", "x"), b"")
    assert env.engine.bulk_insert([bad]) == [STATUS_MALFORMED]


def test_read_only_user_cannot_insert():
    env = Env()
    feature = parse_feature(feature_dict("ro", (12.5, 41.5), uid="r1"))
    packets = build_object_packets(feature, data_signer(env.users["reader"]))
    statuses = env.engine.bulk_insert([p for t, p in packets if env.engine.owns(t)])
    assert set(statuses) == {STATUS_DENIED}


def test_delete_flow():
    env = Env()
    env.insert_feature(feature_dict("gone", (12.6, 41.6)))
    tile = TileId.at(2, 12.6, 41.6)
    oname = object_name(tile, "Foo", "poi", "u1", "gone")
    dname = delete_name(oname)

    # another user's deletion attempt is denied with a status reply
    denied = env.engine.handle_delete(dname, sign_interest(env.users["u2"], InterestPacket(dname)))
    assert denied.payload == DELETE_DENIED
    assert env.engine.stats.denied_deletes == 1

    ok = env.engine.handle_delete(dname, sign_interest(env.users["u1"], InterestPacket(dname)))
    assert ok.payload == DELETE_OK
    assert env.query(tile) == []

    again = env.engine.handle_delete(dname, sign_interest(env.users["u1"], InterestPacket(dname)))
    assert again.payload == DELETE_NOT_FOUND


def test_select_names_per_level_and_tenant():
    env = Env()
    env.insert_feature(feature_dict("a", (12.71, 41.71)))
    # second tenant's data lives in its own slice
    feature = parse_feature(feature_dict("b", (12.712, 41.712), tid="Bar", uid="w1"))
    packets = build_object_packets(feature, data_signer(env.other_user))
    env.engine.bulk_insert([p for t, p in packets if env.engine.owns(t)])

    l2 = TileId.at(2, 12.71, 41.71)
    assert [n[-1] for n in env.engine.select_names(l2, "Foo", "poi")] == ["a"]
    assert [n[-1] for n in env.engine.select_names(l2, "Bar", "poi")] == ["b"]
    # the level-1 table answers level-1 queries; rows are distinct from level-2 rows
    l1 = TileId.at(1, 12.7, 41.7)
    l1_names = env.engine.select_names(l1, "Foo", "poi")
    assert len(l1_names) == 1
    assert l1_names[0] != env.engine.select_names(l2, "Foo", "poi")[0]
    assert env.engine.select_names(TileId.at(1, 12.0, 41.0), "Foo", "poi") == []


def test_temporal_period_filter():
    env = Env()
    env.insert_feature(feature_dict("in", (12.81, 41.81), valid=(600, 1200)))
    env.insert_feature(feature_dict("out", (12.812, 41.812), valid=(90_000, 95_000)))
    env.insert_feature(feature_dict("timeless", (12.813, 41.813)))
    tile = TileId.at(2, 12.81, 41.81)
    rows = env.query(tile, period=(0, 100))  # minutes 0..100 -> seconds 0..6000
    oids = {r.name[-1] for r in rows}
    assert oids == {"in", "timeless"}


def test_period_end_is_closed():
    env = Env()
    env.insert_feature(feature_dict("starts-at-end", (12.82, 41.82), valid=(600, 700)))
    rows = env.query(TileId.at(2, 12.82, 41.82), period=(0, 10))  # seconds 0..600
    assert {r.name[-1] for r in rows} == {"starts-at-end"}


def test_cbf_transitions_published():
    env = Env(bf=(256, 3))
    published = []
    env.engine.bf_publish = lambda direction, buckets: published.append((direction, tuple(buckets)))
    env.insert_feature(feature_dict("f1", (12.9, 41.9)))
    ups = [p for p in published if p[0] == 0]
    assert ups  # 0->1 transitions for three level tiles
    published.clear()
    env.insert_feature(feature_dict("f2", (12.911, 41.911)))
    # same level-1/level-0 groups stay non-void; only the new level-2 group fires
    assert len(published) == 1
    published.clear()
    dn = delete_name(object_name(TileId.at(2, 12.9, 41.9), "Foo", "poi", "u1", "f1"))
    env.engine.handle_delete(dn, sign_interest(env.users["u1"], InterestPacket(dn)))
    downs = [p for p in published if p[0] == 1]
    assert len(downs) == 1  # that level-2 group is void again


def test_ip_res_reply():
    env = Env()
    reply = env.engine.handle_ip_res(
        ip_res_name(TileId.at(0, 12, 41)), InterestPacket(ip_res_name(TileId.at(0, 12, 41)))
    )
    assert reply.payload == b"inproc:e1"
    assert reply.freshness_ms == env.engine.config.ipres_freshness_ms
    # not the owner: no reply
    assert env.engine.handle_ip_res(
        ip_res_name(TileId.at(0, 50, 10)), InterestPacket(ip_res_name(TileId.at(0, 50, 10)))
    ) is None


def _batch(oname, signer):
    name, params = object_batch(level0(parse_object_name(oname).tile), "Foo", "poi", [oname])
    interest = InterestPacket(name, app_params=params)
    return name, (interest if signer is None else sign_interest(signer, interest))


def test_object_fetch_by_name():
    env = Env()
    env.insert_feature(feature_dict("direct", (12.95, 41.95)))
    tile = TileId.at(2, 12.95, 41.95)
    oname = object_name(tile, "Foo", "poi", "u1", "direct")
    name, interest = _batch(oname, env.users["u1"])
    segments = env.engine.handle_object_fetch(name, interest)
    inner = decode_packet_stream(reassemble(segments))
    assert len(inner) == 1
    assert inner[0].name == oname
    assert not decode_object_payload(inner[0].payload).is_reference


def test_object_fetch_access():
    env = Env()
    env.insert_feature(feature_dict("guarded", (12.96, 41.96)))
    oname = object_name(TileId.at(2, 12.96, 41.96), "Foo", "poi", "u1", "guarded")
    for signer in (None, env.other_user):  # unsigned; a Bar user asking for Foo data
        name, interest = _batch(oname, signer)
        before = env.engine.stats.denied_queries
        assert env.engine.handle_object_fetch(name, interest) is None
        assert env.engine.stats.denied_queries == before + 1
    name, interest = _batch(oname, env.users["reader"])  # read-only Foo user
    inner = decode_packet_stream(reassemble(env.engine.handle_object_fetch(name, interest)))
    assert [p.name for p in inner] == [oname]


def test_object_fetch_digest_must_match_parameters():
    env = Env()
    oname = object_name(TileId.at(2, 12.97, 41.97), "Foo", "poi", "u1", "a")
    name, _ = _batch(oname, None)
    other = object_name(TileId.at(2, 12.97, 41.97), "Foo", "poi", "u1", "b")
    _, params = object_batch(TileId.at(0, 12, 41), "Foo", "poi", [other])
    forged = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
    assert env.engine.handle_interest(name, forged) is None


def test_batch_reply_signs_only_the_segment_each_interest_asks_for():
    env = Env()
    masters = []
    for i in range(3):
        _, packets = env.insert_feature(feature_dict(f"seg{i}", (12.95 + i / 100, 41.95)))
        masters += [p for _, p in packets if not decode_object_payload(p.payload).is_reference]
    payload = encode_packet_stream(masters)
    env.engine.config.max_payload = -(-len(payload) // 3)  # three segments
    signed = []
    sign = env.engine._sign
    env.engine._sign = lambda pkt: signed.append(pkt.name) or sign(pkt)
    producer_face, consumer_face = face_pair()
    env.engine.attach(Producer(producer_face))
    name, params = object_batch(TileId.at(0, 12, 41), "Foo", "poi", [p.name for p in masters])
    got = Consumer(consumer_face).get(
        name,
        app_params=params,
        sign=lambda interest: sign_interest(env.users["u1"], interest),
        validate=env.validator.verify_data,  # every segment verifies
        lifetime_ms=500,
        retries=0,
    )
    assert got == payload
    assert sorted(signed) == [segment_name(name, i) for i in range(3)]


def test_bulk_tcp_roundtrip():
    env = Env()
    server = BulkInsertServer(env.engine, "127.0.0.1", 0)
    try:
        client = BulkInsertClient(server.endpoint)
        feature = parse_feature(feature_dict("tcp-1", (12.55, 41.55)))
        packets = [p for t, p in build_object_packets(feature, data_signer(env.users["u1"])) if env.engine.owns(t)]
        assert client.insert(packets) == [STATUS_OK] * 3
        assert client.insert(packets) == [STATUS_DUPLICATE] * 3
        client.close()
    finally:
        server.close()


def test_bulk_stream_closes_on_oversized_frame():
    env = Env()
    server = BulkInsertServer(env.engine, "127.0.0.1", 0)
    try:
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(struct.pack("!I", MAX_FRAME + 1))
            assert raw.recv(1) == b""  # closed, not waiting for 32 MiB
        assert env.engine.stats.inserts == 0
        client = BulkInsertClient(server.endpoint)
        feature = parse_feature(feature_dict("tcp-2", (12.55, 41.55)))
        packets = [p for t, p in build_object_packets(feature, data_signer(env.users["u1"])) if env.engine.owns(t)]
        assert client.insert(packets) == [STATUS_OK] * 3
        client.close()
    finally:
        server.close()


def test_bulk_stream_closes_when_a_batch_outgrows_the_frame_bound():
    env = Env()
    server = BulkInsertServer(env.engine, "127.0.0.1", 0)
    feature = parse_feature(feature_dict("tcp-3", (12.55, 41.55)))
    packets = [p for t, p in build_object_packets(feature, data_signer(env.users["u1"])) if env.engine.owns(t)]
    filler = frame(bytes(MAX_FRAME // 3 + 1))  # undecodable; three pass the bound
    try:
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(b"".join(frame(encode_packet(p)) for p in packets))
            try:
                for _ in range(3):
                    raw.sendall(filler)
                closed = raw.recv(1) == b""  # no end frame was sent
            except ConnectionError:  # reset: the server closed with data unread
                closed = True
            assert closed
        assert env.engine.stats.inserts == 0
        client = BulkInsertClient(server.endpoint)
        assert client.insert(packets) == [STATUS_OK] * 3
        client.close()
    finally:
        server.close()
