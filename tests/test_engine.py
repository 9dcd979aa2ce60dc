import json
import socket
import struct
from hashlib import sha256

import pytest

import geoshard.engine as engine_mod
from geoshard.bloom import bf_key, bucket_indices
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
from geoshard.geogrid import LEVELS, BBox, TileId, level0, parse_feature
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
    DELETE_MARK,
    TILE_MARK,
    Predicate,
    ip_res_name,
    object_batch,
    object_name,
    parse_object_name,
    parse_tile_query_name,
    route_prefix,
    tile_query_name,
)
from geoshard.objects import build_object_packets, decode_object_payload, encode_object_payload
from geoshard.trust import (
    SCHEME_HMAC,
    AccessOp,
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


def select_names(engine, tile, tid, cid, period=None):
    """Names in the engine's level-matching table under this prefix and group."""
    with engine._state:
        return [r.name for r in engine._select(tile, tid, cid, period)]


# a predicate every row can match
ANYWHERE = Predicate(BBox.of(-180.0, -90.0, 180.0, 90.0), "intersect", None)


def tile_batch(tile, tid, cid, period=None, predicate=ANYWHERE):
    """(batch name, parameters) of a one-tile batch to the owner of `tile`."""
    qnames = [tile_query_name(tile, tid, cid, period)]
    return object_batch(level0(tile), tid, cid, qnames, TILE_MARK, predicate)


def delete_batch(names, signer, owner=TileId.at(0, 12, 41)):
    """(batch name, signed Interest) of a delete batch listing `names`."""
    name, params = object_batch(owner, "Foo", "poi", names, DELETE_MARK)
    return name, sign_interest(signer, InterestPacket(name, app_params=params))


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
        name, params = tile_batch(tile, tid, cid, period)
        ident = self.users.get(user) or getattr(self, user)
        interest = InterestPacket(name, app_params=params)
        interest = sign_interest(ident if hasattr(ident, "cert") else self.users[user], interest)
        reply = self.engine.handle_tile_query(name, interest)
        if reply is None:
            return None
        return decode_packet_stream(reassemble(reply))

    def delete(self, names, user="u1"):
        """The statuses of a delete batch listing `names`, or None if refused."""
        reply = self.engine.handle_delete(*delete_batch(names, self.users[user]))
        return None if reply is None else reply.payload.split(b"\n")


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
    name, params = tile_batch(TileId.at(2, 12.99, 41.99), "Foo", "poi")
    interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
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


def _signed_batch(env, tiles, tid="Foo", user="u1"):
    """A batch of plain tile queries for `tiles`, addressed to the first tile's owner."""
    qnames = [tile_query_name(t, "Foo" if i == 0 else tid, "poi") for i, t in enumerate(tiles)]
    name, params = object_batch(level0(tiles[0]), "Foo", "poi", qnames, TILE_MARK, ANYWHERE)
    return name, sign_interest(env.users[user], InterestPacket(name, app_params=params))


@pytest.mark.parametrize(
    "second, tid",
    [
        ((12.41, 41.41), "Bar"),  # a tile of tenant Bar
        ((13.41, 41.41), "Foo"),  # a tile owned by another engine
    ],
)
def test_tile_batch_reaching_outside_is_refused_whole(second, tid):
    env = Env()
    env.insert_feature(feature_dict("o1", (12.4, 41.4)))
    name, interest = _signed_batch(env, [TileId.at(2, 12.4, 41.4), TileId.at(2, *second)], tid)
    lookups = env.engine.stats.index_lookups
    assert env.engine.handle_tile_query(name, interest) is None
    assert env.engine.stats.denied_queries == 1
    assert env.engine.stats.index_lookups == lookups  # not one listed tile answered


def test_tile_batch_digest_must_match_parameters():
    env = Env()
    name, _ = _signed_batch(env, [TileId.at(2, 12.4, 41.4)])
    _, other = _signed_batch(env, [TileId.at(2, 12.5, 41.5)])
    forged = sign_interest(env.users["u1"], InterestPacket(name, app_params=other.app_params))
    assert env.engine.handle_interest(name, forged) is None
    assert env.engine.handle_tile_query(name, forged) is None
    assert env.engine.stats.denied_queries == 2
    assert env.engine.stats.index_lookups == 0


def test_batches_sharing_a_tile_share_its_cached_rows():
    env = Env()
    env.insert_feature(feature_dict("o1", (12.45, 41.45)))
    shared, first, second = (TileId.at(2, 12.45, 41.45), TileId.at(2, 12.46, 41.45),
                             TileId.at(1, 12.4, 41.4))
    name, interest = _signed_batch(env, [first, shared])
    before = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
    lookups = env.engine.stats.index_lookups
    name, interest = _signed_batch(env, [shared, second])
    after = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
    assert env.engine.stats.qdata_hits == 1
    assert env.engine.stats.index_lookups == lookups + 1  # only `second` was selected
    assert len(env.engine._qdata) == 3
    # `second` holds o1's level-1 reference, but one copy per identity is
    # sent: the level-2 master of the shared tile
    assert [p.name for p in before] == [p.name for p in after]
    assert [p.name[-1] for p in after] == ["o1"]
    assert not decode_object_payload(after[0].payload).is_reference


def _raw_tile_batch(env, params):
    """A u1-signed tile batch to e1 whose parameters are `params`, named by their digest."""
    name = route_prefix(TileId.at(0, 12, 41)).append(
        TILE_MARK, "Foo", "poi", sha256(params).hexdigest()
    )
    return name, sign_interest(env.users["u1"], InterestPacket(name, app_params=params))


@pytest.mark.parametrize("case", [
    "no predicate", "unknown mode", "degenerate box", "box out of range", "inverted interval",
    "interval of strings", "box changed under the old digest",
])
def test_tile_batch_without_a_well_formed_predicate_is_refused_whole(case):
    env = Env()
    env.insert_feature(feature_dict("o1", (12.4, 41.4)))
    tile = TileId.at(2, 12.4, 41.4)
    qnames = [tile_query_name(tile, "Foo", "poi")]
    if case == "no predicate":
        name, params = object_batch(level0(tile), "Foo", "poi", qnames, TILE_MARK)
        interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
    elif case == "box changed under the old digest":
        name, _ = tile_batch(tile, "Foo", "poi", predicate=Predicate(
            BBox.of(12.0, 41.0, 12.1, 41.1), "intersect", None))
        _, params = tile_batch(tile, "Foo", "poi")
        interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
    else:
        predicate = {"box": [12.0, 41.0, 13.0, 42.0], "mode": "intersect", "interval": None}
        predicate.update({
            "unknown mode": {"mode": "within"},
            "degenerate box": {"box": [12.5, 41.0, 12.5, 42.0]},
            "box out of range": {"box": [12.0, 41.0, 13.0, 91.0]},
            "inverted interval": {"interval": [600, 0]},
            "interval of strings": {"interval": ["0", "600"]},
        }[case])
        listed = [list(n.components) for n in qnames]
        name, interest = _raw_tile_batch(env, json.dumps({"names": listed, **predicate}).encode())
    assert env.engine.handle_interest(name, interest) is None
    assert env.engine.stats.denied_queries == 1
    assert env.engine.stats.index_lookups == 0
    assert env.engine.stats.rows_sent == 0


def test_engine_holding_a_master_and_references_of_an_object_sends_only_the_master():
    env = Env()
    env.insert_feature(feature_dict("m1", (12.45, 41.45)))
    levels = [TileId.at(0, 12, 41), TileId.at(1, 12.4, 41.4), TileId.at(2, 12.45, 41.45)]
    for tiles in (levels, levels[::-1]):
        name, interest = _signed_batch(env, tiles)
        rows = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
        assert [p.name for p in rows] == [object_name(levels[2], "Foo", "poi", "u1", "m1")]
    # without the master's tile, one reference stands for the object
    name, interest = _signed_batch(env, levels[:2])
    rows = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
    assert len(rows) == 1 and decode_object_payload(rows[0].payload).is_reference
    assert env.engine.stats.rows_sent == 3


def test_tile_batch_sends_only_rows_that_can_match_its_predicate():
    env = Env()
    env.insert_feature(feature_dict("inside", (12.451, 41.451)))
    env.insert_feature(feature_dict("outside", (12.459, 41.459)))
    env.insert_feature(feature_dict("wide", [(12.452, 41.452), (12.61, 41.61)], multi=True))
    env.insert_feature(feature_dict("late", (12.453, 41.453), valid=(7000, 7100)))
    tile = TileId.at(2, 12.45, 41.45)
    box = BBox.of(12.45, 41.45, 12.455, 41.455)

    def sent(mode, interval=None):
        name, params = tile_batch(tile, "Foo", "poi", predicate=Predicate(box, mode, interval))
        interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
        rows = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
        return [p.name[-1] for p in rows]

    assert sent("intersect") == ["inside", "late", "wide"]
    assert env.engine.stats.rows_filtered == 1
    assert sent("include") == ["inside", "late"]  # wide's extent leaves the box
    assert sent("intersect", (0, 6000)) == ["inside", "wide"]
    assert sent("intersect", (7100, 9000)) == ["inside", "late", "wide"]  # closed interval
    assert env.engine.stats.rows_filtered == 1 + 2 + 2 + 1
    assert env.engine.stats.rows_sent == 3 + 2 + 2 + 3
    assert env.engine.stats.index_lookups == 1  # one cached selection answers every predicate


def test_master_whose_geojson_does_not_parse_is_left_to_the_frontend():
    env = Env()
    tile = TileId.at(2, 12.45, 41.45)
    bad = DataPacket(
        object_name(tile, "Foo", "poi", "u1", "bad"),
        encode_object_payload(False, None, b"not geojson"),
    )
    assert env.engine.bulk_insert([data_signer(env.users["u1"])(bad)]) == [STATUS_OK]
    box = BBox.of(12.0, 41.0, 12.1, 41.1)  # far from the tile
    for mode in ("intersect", "include"):
        name, params = tile_batch(tile, "Foo", "poi", predicate=Predicate(box, mode, None))
        interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
        rows = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
        assert [p.name[-1] for p in rows] == ["bad"]


def _fetch_over_a_face(env, name, interest):
    """Fetch a batch from `env.engine` the way a front-end does: every
    segment Interest signed by u1, every reply segment verified."""
    producer_face, consumer_face = face_pair()
    env.engine.attach(Producer(producer_face))
    return Consumer(consumer_face).get(
        name,
        app_params=interest.app_params,
        sign=lambda pkt: sign_interest(env.users["u1"], pkt),
        validate=env.validator.verify_data,
        lifetime_ms=500,
        retries=0,
    )


def test_tile_batch_reply_reassembles_across_segments():
    env = Env()
    tiles = [TileId.at(2, 12.05 + i / 10, 41.05) for i in range(4)]
    for i, tile in enumerate(tiles):
        env.insert_feature(feature_dict(f"seg{i}", (12.051 + i / 10, 41.051)))
    name, interest = _signed_batch(env, tiles)
    payload = reassemble(env.engine.handle_tile_query(name, interest))
    env.engine.config.max_payload = -(-len(payload) // 5)  # five segments
    assert len(env.engine.handle_tile_query(name, interest)) == 5
    got = _fetch_over_a_face(env, name, interest)
    assert got == payload
    assert [r.name[-1] for r in decode_packet_stream(got)] == ["seg0", "seg1", "seg2", "seg3"]


def test_segments_of_two_reply_builds_are_refused():
    # a write between segment 0 and the rest rebuilds the reply at another size
    env = Env()
    tiles = [TileId.at(2, 12.05 + i / 10, 41.05) for i in range(4)]
    for i in range(4):
        env.insert_feature(feature_dict(f"seg{i}", (12.051 + i / 10, 41.051)))
    name, interest = _signed_batch(env, tiles)
    payload = reassemble(env.engine.handle_tile_query(name, interest))
    env.engine.config.max_payload = -(-len(payload) // 5)  # five segments
    first = env.engine.handle_tile_query(name, interest)[0]
    env.insert_feature(feature_dict("new", (12.052, 41.052)))  # a row in the first tile
    rebuilt = env.engine.handle_tile_query(name, interest)
    assert first.final_segment == 4 and len(rebuilt) == 7
    with pytest.raises(ValueError, match="final segment"):
        reassemble([first, *(rebuilt[i] for i in range(1, 7))])


def _signed_period_batch(env, tile, periods):
    """A batch of u1's queries of `tile`, one per period."""
    qnames = [tile_query_name(tile, "Foo", "poi", period) for period in periods]
    name, params = object_batch(level0(tile), "Foo", "poi", qnames, TILE_MARK, ANYWHERE)
    return name, sign_interest(env.users["u1"], InterestPacket(name, app_params=params))


def test_row_matching_two_listed_periods_is_sent_once():
    env = Env()
    env.insert_feature(feature_dict("timeless", (12.83, 41.83)))
    env.insert_feature(feature_dict("early", (12.831, 41.831), valid=(600, 1200)))
    env.insert_feature(feature_dict("late", (12.832, 41.832), valid=(7000, 7100)))
    env.insert_feature(feature_dict("both", (12.833, 41.833), valid=(5000, 7000)))
    tile = TileId.at(2, 12.83, 41.83)
    first, second = (0, 100), (100, 100)  # seconds 0..6000 and 6000..12000
    name, interest = _signed_period_batch(env, tile, [first, second])
    rows = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
    # the first period's rows, then the second's less those already sent
    assert [r.name[-1] for r in rows] == ["both", "early", "timeless", "late"]
    assert env.engine.stats.qdata_hits == 0
    # the cache keeps each period's own rows: a batch of the second alone hits
    rows = env.query(tile, period=second)
    assert [r.name[-1] for r in rows] == ["both", "late", "timeless"]
    assert env.engine.stats.qdata_hits == 1
    # a repeated batch is answered from the cache with the same reply
    again = decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))
    assert [r.name[-1] for r in again] == ["both", "early", "timeless", "late"]
    assert env.engine.stats.qdata_hits == 3


def test_tile_batch_makes_one_access_decision(monkeypatch):
    env = Env()
    env.insert_feature(feature_dict("o1", (12.05, 41.05)))
    decisions = []
    real = engine_mod.check_access
    monkeypatch.setattr(
        engine_mod, "check_access", lambda *args: decisions.append(args) or real(*args)
    )
    tiles = [TileId.at(2, 12.05 + i / 10, 41.05) for i in range(5)]
    name, interest = _signed_batch(env, tiles)
    assert len(decode_packet_stream(reassemble(env.engine.handle_tile_query(name, interest)))) == 1
    assert len(decisions) == 1
    op, target, _ = decisions[0]
    assert op is AccessOp.QUERY and parse_tile_query_name(target).did == "Foo.poi"
    # the one decision still refuses a signer of another data set
    decisions.clear()
    foreign = sign_interest(env.other_user, InterestPacket(name, app_params=interest.app_params))
    assert env.engine.handle_tile_query(name, foreign) is None
    assert len(decisions) == 1
    assert env.engine.stats.denied_queries == 1


def test_tile_batch_reply_is_signed_outside_the_state_lock():
    env = Env()
    tiles = [TileId.at(2, 12.05 + i / 10, 41.05) for i in range(3)]
    for i in range(3):
        env.insert_feature(feature_dict(f"lock{i}", (12.051 + i / 10, 41.051)))
    env.engine.config.max_payload = 200  # several segments
    held = []
    sign = env.engine._sign
    env.engine._sign = lambda pkt: held.append(env.engine._state._is_owned()) or sign(pkt)
    name, interest = _signed_batch(env, tiles)
    assert len(decode_packet_stream(_fetch_over_a_face(env, name, interest))) == 3
    assert len(held) > 1
    assert not any(held)


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
    _, packets = env.insert_feature(feature_dict("gone", (12.6, 41.6)))
    rows = [p.name for _, p in packets]
    tile = TileId.at(2, 12.6, 41.6)

    # another user's batch is denied row by row, with one decision, and removes nothing
    assert env.delete(rows, user="u2") == [DELETE_DENIED] * 3
    assert env.engine.stats.denied_deletes == 1
    assert set(rows) <= env.engine.objects.keys()

    assert env.delete(rows) == [DELETE_OK] * 3
    assert env.query(tile) == []
    assert env.engine.objects == {}
    assert env.engine.stats.deletes == 3

    # already deleted
    assert env.delete(rows) == [DELETE_NOT_FOUND] * 3
    assert env.delete(rows[:1]) == [DELETE_NOT_FOUND]
    assert env.engine.stats.delete_batches == 4


@pytest.mark.parametrize("case", [
    "wrong digest", "two oids", "two uids", "malformed name", "another engine's tile",
    "another collection",
])
def test_delete_batch_refused_whole(case):
    env = Env()
    _, packets = env.insert_feature(feature_dict("a", (12.6, 41.6)))
    env.insert_feature(feature_dict("b", (12.61, 41.61)))
    env.insert_feature(feature_dict("a", (12.62, 41.62), uid="u2"), user="u2")
    rows = [p.name for _, p in packets]
    stored = set(env.engine.objects)
    tile = TileId.at(2, 12.61, 41.61)
    extra = {
        "two oids": object_name(tile, "Foo", "poi", "u1", "b"),
        "two uids": object_name(TileId.at(2, 12.62, 41.62), "Foo", "poi", "u2", "a"),
        "malformed name": Name(["not", "an", "object"]),
        "another engine's tile": object_name(TileId.at(2, 13.6, 41.6), "Foo", "poi", "u1", "a"),
        "another collection": object_name(tile, "Foo", "bus", "u1", "a"),
    }
    name, interest = delete_batch(rows + [extra.get(case, rows[0])], env.users["u1"])
    if case == "wrong digest":
        _, params = object_batch(TileId.at(0, 12, 41), "Foo", "poi", rows[:1], DELETE_MARK)
        interest = sign_interest(env.users["u1"], InterestPacket(name, app_params=params))
    assert env.engine.handle_interest(name, interest) is None
    assert env.engine.stats.denied_deletes == 1
    assert set(env.engine.objects) == stored


def test_delete_batch_for_a_tile_not_owned_is_ignored():
    env = Env()
    oname = object_name(TileId.at(2, 13.6, 41.6), "Foo", "poi", "u1", "a")
    name, interest = delete_batch([oname], env.users["u1"], owner=TileId.at(0, 13, 41))
    assert env.engine.handle_delete(name, interest) is None
    assert env.engine.stats.denied_deletes == 0


def test_delete_batch_emptying_two_groups_publishes_once():
    env = Env(bf=(256, 3))
    _, packets = env.insert_feature(feature_dict("f1", (12.9, 41.9)))
    env.insert_feature(feature_dict("f2", (12.15, 41.15)))  # shares only the level-0 group
    published = []
    env.engine.bf_publish = lambda direction, buckets: published.append((direction, set(buckets)))
    assert env.delete([p.name for _, p in packets]) == [DELETE_OK] * 3
    assert len(published) == 1
    direction, buckets = published[0]
    assert direction == 1
    emptied = [bf_key(str(route_prefix(t)), "Foo", "poi") for t, _ in packets if t.level]
    assert all(key not in env.engine.cbf for key in emptied)
    # the one update clears only buckets of the two emptied groups
    m, h = env.engine.config.bf_params
    assert buckets and buckets <= {b for key in emptied for b in bucket_indices(key, m, h)}


def test_failed_bloom_publish_is_counted_and_the_delete_still_succeeds():
    env = Env(bf=(256, 3))
    _, packets = env.insert_feature(feature_dict("f1", (12.9, 41.9)))

    def unreachable(direction, buckets):
        raise TimeoutError("filter server unreachable")

    env.engine.bf_publish = unreachable
    assert env.delete([p.name for _, p in packets]) == [DELETE_OK] * 3
    assert env.engine.stats.bf_publish_failures == 1


def test_select_names_per_level_and_tenant():
    env = Env()
    env.insert_feature(feature_dict("a", (12.71, 41.71)))
    # second tenant's data lives in its own slice
    feature = parse_feature(feature_dict("b", (12.712, 41.712), tid="Bar", uid="w1"))
    packets = build_object_packets(feature, data_signer(env.other_user))
    env.engine.bulk_insert([p for t, p in packets if env.engine.owns(t)])

    l2 = TileId.at(2, 12.71, 41.71)
    assert [n[-1] for n in select_names(env.engine, l2, "Foo", "poi")] == ["a"]
    assert [n[-1] for n in select_names(env.engine, l2, "Bar", "poi")] == ["b"]
    # the level-1 table answers level-1 queries; rows are distinct from level-2 rows
    l1 = TileId.at(1, 12.7, 41.7)
    l1_names = select_names(env.engine, l1, "Foo", "poi")
    assert len(l1_names) == 1
    assert l1_names[0] != select_names(env.engine, l2, "Foo", "poi")[0]
    assert select_names(env.engine, TileId.at(1, 12.0, 41.0), "Foo", "poi") == []


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
    f1 = [n for n in env.engine.objects if n[-1] == "f1"]
    assert env.delete(f1) == [DELETE_OK] * 3
    downs = [p for p in published if p[0] == 1]
    assert len(downs) == 1  # only f1's level-2 group is void again


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
