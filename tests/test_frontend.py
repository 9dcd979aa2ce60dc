import json
import logging
import random
import socket
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest

import geoshard.frontend as frontend_mod
import geoshard.trust as trust_mod
from geoshard.bloom import decode_membership_request, encode_membership_response
from geoshard.cluster import Cluster, ClusterSpec, UserSpec, parse_cluster_config
from geoshard.engine import DELETE_OK, STATUS_OK
from geoshard.frontend import (
    Frontend,
    QueryStats,
    RangeQuery,
    RangeQueryError,
)
from geoshard.geogrid import BBox, FeatureError, TileId, parse_feature
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DataPacket,
    InterestPacket,
    decode_packet_stream,
    encode_packet_stream,
    reassemble,
    segment_name,
)
from geoshard.icn.producer import Producer, ProducerReply
from geoshard.naming import (
    BF_MEMBER_PREFIX,
    BF_PREFIX,
    DATA_MARK,
    DELETE_MARK,
    TILE_MARK,
    batch_mark,
    object_batch,
    object_name,
    route_prefix,
)
from geoshard.objects import (
    build_object_packets,
    decode_object_payload,
    encode_object_payload,
    master_tile,
)
from geoshard.tessellate import temporal_decompose
from geoshard.trust import (
    SCHEME_ED25519,
    SCHEME_HMAC,
    ValidationError,
    data_signer,
    sign_data,
    sign_interest,
)


def make_spec(**kw):
    base = dict(
        engines={
            "e1": [TileId.at(0, 12, 41)],
            "e2": [TileId.at(0, 13, 41)],
            "e3": [TileId.at(0, 12, 42)],
            "e4": [TileId.at(0, 13, 42)],
        },
        tenants={"Foo": ["poi"], "Bar": ["poi"]},
        users=[
            UserSpec("Foo", "poi", "u1", "rw"),
            UserSpec("Foo", "poi", "u2", "rw"),
            UserSpec("Foo", "poi", "r1", "r"),
            UserSpec("Bar", "poi", "w1", "rw"),
        ],
        scheme=SCHEME_HMAC,
        fe_lifetime_ms=500,
        fe_retries=1,
    )
    base.update(kw)
    return ClusterSpec(**base)


@pytest.fixture(scope="module")
def cluster():
    c = Cluster(make_spec())
    yield c
    c.close()


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


def test_insert_starbucks_three_rows_single_engine(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    report = fe.insert(feature_dict("starbucks", (12.51133, 41.8919)))
    assert report.ok
    assert len(report.statuses) == 3  # levels 2, 1, 0
    e1 = cluster.engine("e1")
    assert sum(1 for n in e1.objects if n[-1] == "starbucks") == 3
    masters = [r for r in e1.objects.values() if not r.is_reference and r.oid == "starbucks"]
    assert len(masters) == 1
    # a level-1 tile query now returns it
    res = fe.range_query(RangeQuery(BBox.of(12.5, 41.8, 12.6, 41.9), "Foo", "poi"))
    assert res.oids == {"starbucks"}
    fe.delete("starbucks", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.51133, 41.8919]})


def test_multipoint_across_engines_one_master(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    report = fe.insert(
        feature_dict("span2", [(12.2, 41.2), (13.7, 41.7)], multi=True)
    )
    assert report.ok
    assert len(report.statuses) == 6  # two tiles per level
    e1, e2 = cluster.engine("e1"), cluster.engine("e2")
    rows = [r for e in (e1, e2) for r in e.objects.values() if r.oid == "span2"]
    assert len(rows) == 6
    assert sum(1 for r in rows if not r.is_reference) == 1  # one master system-wide
    # intersect query over either side finds it once
    res = fe.range_query(RangeQuery(BBox.of(13.6, 41.6, 13.8, 41.8), "Foo", "poi"))
    assert res.oids == {"span2"}
    fe.delete("span2", "Foo", "poi", "u1",
              {"type": "MultiPoint", "coordinates": [[12.2, 41.2], [13.7, 41.7]]})
    assert not [r for e in (e1, e2) for r in e.objects.values() if r.oid == "span2"]


def test_missing_mandatory_property_rejected_locally(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    bad = feature_dict("x", (12.1, 41.1))
    del bad["properties"]["cid"]
    before = cluster.engine("e1").stats.inserts
    with pytest.raises(FeatureError):
        fe.insert(bad)
    assert cluster.engine("e1").stats.inserts == before  # nothing pushed


def test_delete_sends_one_command_per_tile(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    fe.insert(feature_dict("victim", (12.31, 41.31)))
    report = fe.delete("victim", "Foo", "poi", "u1",
                       {"type": "Point", "coordinates": [12.31, 41.31]})
    assert report.ok
    assert len(report.per_tile) == 3
    assert all(status == "OK" for _, status in report.per_tile)
    again = fe.delete("victim", "Foo", "poi", "u1",
                      {"type": "Point", "coordinates": [12.31, 41.31]})
    assert not again.ok
    assert {s for _, s in again.per_tile} == {"NOT-FOUND"}


def test_multipoint_across_two_engines_is_deleted_with_one_batch_each():
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        kept = feature_dict("kept", (12.25, 41.25))
        gone = feature_dict("gone", [(12.2, 41.2), (13.7, 41.7), (13.71, 41.71)], multi=True)
        assert fe.insert(kept).ok and fe.insert(gone).ok
        report = fe.delete("gone", "Foo", "poi", "u1", gone["geometry"])
        # e1 and e2, each listing its own rows
        assert sum(e.engine.stats.delete_batches for e in cluster.engines.values()) == 2
        assert report.ok and len(report.per_tile) == 7
        assert {n[-1] for n, _ in report.per_tile} == {"gone"}
        for e in cluster.engines.values():
            assert not [r for r in e.engine.objects.values() if r.oid == "gone"]
        q = RangeQuery(BBox.of(12.0, 41.0, 13.99, 41.99), "Foo", "poi")
        assert fe.range_query(q).oids == _oracle([kept], q) == {"kept"}
    finally:
        cluster.close()


@pytest.mark.parametrize("reply", [
    b"\n".join([DELETE_OK] * 2),  # one status short
    b"\n".join([DELETE_OK, b"GONE", DELETE_OK]),  # an unknown status
])
def test_delete_reply_not_matching_its_rows_fails_the_delete(monkeypatch, reply):
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        point = {"type": "Point", "coordinates": [12.33, 41.33]}
        assert fe.insert(feature_dict("miscounted", (12.33, 41.33))).ok
        engine = cluster.engine("e1")
        real = engine.handle_delete

        def rewritten(base, interest):
            real(base, interest)
            return ProducerReply(reply, sign=engine._sign)

        monkeypatch.setattr(engine, "handle_delete", rewritten)
        with pytest.raises(ValidationError) as err:
            fe.delete("miscounted", "Foo", "poi", "u1", point)
        assert str(route_prefix(TileId.at(0, 12, 41)) / DELETE_MARK) in str(err.value)
    finally:
        cluster.close()


def test_timed_out_delete_batch_marks_its_rows(monkeypatch):
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        geometry = {"type": "MultiPoint", "coordinates": [[12.34, 41.34], [13.34, 41.34]]}
        assert fe.insert(feature_dict("silent", [(12.34, 41.34), (13.34, 41.34)], multi=True)).ok
        monkeypatch.setattr(cluster.engine("e2"), "handle_delete", lambda base, interest: None)
        report = fe.delete("silent", "Foo", "poi", "u1", geometry)
        owner = {n: n.prefix(3) for n, _ in report.per_tile}
        e1 = route_prefix(TileId.at(0, 12, 41))
        assert {s for n, s in report.per_tile if owner[n] == e1} == {"OK"}
        assert {s for n, s in report.per_tile if owner[n] != e1} == {"TIMEOUT"}
        assert len(report.per_tile) == 6 and not report.ok
    finally:
        cluster.close()


def test_delete_other_user_denied_everywhere(cluster):
    fe1 = cluster.frontend_as("Foo", "poi", "u1")
    fe2 = cluster.frontend_as("Foo", "poi", "u2")
    fe1.insert(feature_dict("mine", (12.32, 41.32)))
    report = fe2.delete("mine", "Foo", "poi", "u1",
                        {"type": "Point", "coordinates": [12.32, 41.32]})
    assert {s for _, s in report.per_tile} == {"DENIED"}
    fe1.delete("mine", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.32, 41.32]})


def test_non_tenant_query_gets_no_data(cluster):
    fe_bar = cluster.frontend_as("Bar", "poi", "w1")
    fe1 = cluster.frontend_as("Foo", "poi", "u1")
    fe1.insert(feature_dict("private", (12.41, 41.41)))
    q = RangeQuery(BBox.of(12.405, 41.405, 12.415, 41.415), "Foo", "poi", k=5)
    with pytest.raises(RangeQueryError):
        fe_bar.range_query(q)
    assert cluster.engine("e1").stats.denied_queries > 0
    fe1.delete("private", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.41, 41.41]})


def test_empty_store_returns_nothing_everywhere(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u2")
    res = fe.range_query(RangeQuery(BBox.of(12.8, 42.8, 13.2, 42.95), "Foo", "poi", k=10))
    assert res.objects == []
    assert res.stats.subqueries > 0  # void tiles answered, not timed out


def test_spatio_temporal_subquery_names(cluster):
    fe = cluster.frontend(None)
    tiles = [TileId.at(2, 12.51, 41.89), TileId.at(2, 12.52, 41.89), TileId.at(1, 12.6, 41.8)]
    periods = temporal_decompose((600, 1800))  # two aligned 10-minute periods
    names = fe.spatio_temporal_subqueries(tiles, periods, "Foo", "poi")
    assert len(names) == len(tiles) * len(periods.periods)
    assert str(names[0]).endswith(f"/T/10/{periods.periods[0][0]}")
    plain = fe.spatio_temporal_subqueries(tiles, None, "Foo", "poi")
    assert len(plain) == 3
    assert all("/T/" not in str(n) for n in plain)


def test_boundary_object_fetched_then_postfiltered(cluster):
    # valid outside the query interval but inside a covering period
    fe = cluster.frontend_as("Foo", "poi", "u1")
    fe.insert(feature_dict("edge", (12.61, 41.61), valid=(1140, 1180)))  # minute 19
    q = RangeQuery(
        BBox.of(12.605, 41.605, 12.615, 41.615),
        "Foo",
        "poi",
        interval=(600, 1100),  # minutes 10..18.3; decomposition covers up to minute 20
        k=5,
    )
    res = fe.range_query(q)
    assert res.oids == set()
    res2 = fe.range_query(
        RangeQuery(BBox.of(12.605, 41.605, 12.615, 41.615), "Foo", "poi", interval=(600, 1150), k=5)
    )
    assert res2.oids == {"edge"}
    fe.delete("edge", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.61, 41.61]})


def test_oid_shared_across_users_returns_both(cluster):
    fe1 = cluster.frontend_as("Foo", "poi", "u1")
    fe2 = cluster.frontend_as("Foo", "poi", "u2")
    assert fe1.insert(feature_dict("x", (13.31, 41.31))).ok
    assert fe2.insert(feature_dict("x", (13.312, 41.312), uid="u2")).ok
    try:
        res = fe1.range_query(RangeQuery(BBox.of(13.3, 41.3, 13.32, 41.32), "Foo", "poi", k=5))
        assert [(f.oid, f.uid) for f in res.objects] == [("x", "u1"), ("x", "u2")]
    finally:
        fe1.delete("x", "Foo", "poi", "u1", {"type": "Point", "coordinates": [13.31, 41.31]})
        fe2.delete("x", "Foo", "poi", "u2", {"type": "Point", "coordinates": [13.312, 41.312]})


def test_interval_ending_where_validity_starts(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    fe.insert(feature_dict("dawn", (13.61, 41.61), valid=(600, 700)))
    try:
        assert temporal_decompose((0, 600)).periods == ((0, 10),)  # one period, minutes 0..10
        q = RangeQuery(BBox.of(13.605, 41.605, 13.615, 41.615), "Foo", "poi", interval=(0, 600), k=5)
        assert fe.range_query(q).oids == {"dawn"}
    finally:
        fe.delete("dawn", "Foo", "poi", "u1", {"type": "Point", "coordinates": [13.61, 41.61]})


def test_failed_copy_leaves_later_copies_eligible(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    feature = parse_feature(feature_dict("twice", (13.71, 41.71)))
    signer = data_signer(cluster.user_ids[("Foo", "poi", "u1")])
    (master,) = [
        p for _, p in build_object_packets(feature, signer)
        if not decode_object_payload(p.payload).is_reference
    ]
    forged = replace(master, signature=bytes(len(master.signature)))
    stats = QueryStats()
    replies = [
        (Name(["first"]), encode_packet_stream([forged])),
        (Name(["second"]), encode_packet_stream([master, master])),
    ]
    q = RangeQuery(BBox.of(13.7, 41.7, 13.72, 41.72), "Foo", "poi")
    assert [f.oid for f in fe._collect(replies, q, stats)] == ["twice"]
    assert stats.validation_warnings == 1


def test_include_query_over_references_fetches_and_checks_nothing(cluster, monkeypatch):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    coords = [(12.83, 42.13), (12.87, 42.67)]
    geometry = {"type": "MultiPoint", "coordinates": [list(c) for c in coords]}
    assert fe.insert(feature_dict("wide", coords, multi=True)).ok
    checked = _count_provenance(monkeypatch, fe)

    def engines(counter):
        return {n: getattr(cluster.engine(n).stats, counter) for n in cluster.engines}

    fetches, filtered = engines("object_fetches"), engines("rows_filtered")
    try:
        # the level-1 tile 12.8/42.1 holds a reference; one point lies outside
        box = BBox.of(12.8, 42.1, 12.9, 42.2)
        res = fe.range_query(RangeQuery(box, "Foo", "poi", mode="include", k=1))
        assert res.objects == []
        assert res.stats.rows_received == 0  # the engine never sends the outside reference
        assert engines("rows_filtered") != filtered
        assert checked == []
        assert engines("object_fetches") == fetches
        res = fe.range_query(RangeQuery(box, "Foo", "poi", mode="intersect", k=1))
        assert res.oids == {"wide"}
        assert res.stats.rows_received == 1
        assert checked
    finally:
        fe.delete("wide", "Foo", "poi", "u1", geometry)


@pytest.mark.parametrize("k", [1, 50])
def test_include_box_whose_east_edge_passes_through_a_point(cluster, k):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    point = (13.123457, 41.8765)
    assert fe.insert(feature_dict("east", point)).ok
    try:
        box = BBox.of(13.1, 41.87, point[0], 41.88)  # east edge on the point's longitude
        res = fe.range_query(RangeQuery(box, "Foo", "poi", mode="include", k=k))
        assert res.oids == {"east"}
    finally:
        fe.delete("east", "Foo", "poi", "u1", {"type": "Point", "coordinates": list(point)})


def test_master_missing_from_batch_fails_the_query(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    point = {"type": "Point", "coordinates": [13.45, 41.55]}
    fe.insert(feature_dict("orphan", (13.45, 41.55)))
    master = object_name(TileId.at(2, 13.45, 41.55), "Foo", "poi", "u1", "orphan")
    name, params = object_batch(TileId.at(0, 13, 41), "Foo", "poi", [master], DELETE_MARK)
    user = cluster.user_ids[("Foo", "poi", "u1")]
    interest = sign_interest(user, InterestPacket(name, app_params=params))
    reply = cluster.engine("e2").handle_delete(name, interest)
    assert reply.payload == DELETE_OK
    try:
        # the level-1 tile answers for this box, with a reference to the deleted master
        q = RangeQuery(BBox.of(13.4, 41.5, 13.5, 41.6), "Foo", "poi", k=1)
        with pytest.raises(RangeQueryError) as err:
            fe.range_query(q)
        assert err.value.name == master
    finally:
        fe.delete("orphan", "Foo", "poi", "u1", point)


def test_prefilter_end_to_end(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    fe.insert(feature_dict("lone", (12.71, 41.71)))
    all_void = [TileId.at(2, 12.0 + i / 100, 42.5) for i in range(40)]
    kept = fe.prefilter(all_void, "Foo", "poi")
    assert len(kept) <= 2  # only possible false positives survive
    populated = [TileId.at(2, 12.71, 41.71), TileId.at(1, 12.7, 41.7), TileId.at(0, 12, 41)]
    assert fe.prefilter(populated, "Foo", "poi") == set(populated)
    fe.delete("lone", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.71, 41.71]})


def test_prefilter_falls_back_when_service_unavailable(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")

    class Broken:
        def membership(self, items):
            raise TimeoutError("bf down")

    old = fe.bf_client
    fe.bf_client = Broken()
    try:
        tiles = {TileId.at(2, 12.5, 41.5), TileId.at(2, 12.6, 41.6)}
        assert fe.prefilter(tiles, "Foo", "poi") == tiles
        res = fe.range_query(
            RangeQuery(BBox.of(12.505, 41.505, 12.515, 41.515), "Foo", "poi", use_bf=True, k=5)
        )
        assert res.stats.bf_fallback
    finally:
        fe.bf_client = old


def test_bloom_fallbacks_are_counted_on_the_frontend(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")

    class Broken:
        def membership(self, items):
            raise ValidationError("membership reply not signed by the filter server")

    box = BBox.of(12.505, 41.505, 12.515, 41.515)
    assert not fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=True, k=5)).stats.bf_fallback
    assert fe.bf_fallbacks == 0
    fe.bf_client = Broken()
    for _ in range(2):
        assert fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=True, k=5)).stats.bf_fallback
    fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=False, k=5))  # asks no filter
    assert fe.bf_fallbacks == 2


def test_range_query_prunes_void_tiles_with_the_bloom_filter(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    fe.insert(feature_dict("bf-kept", (12.315, 41.325)))
    try:
        box = BBox.of(12.301, 41.301, 12.339, 41.339)  # 16 level-2 tiles, one populated
        pruned = fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=True))
        full = fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=False))
        assert pruned.stats.tiles_after < pruned.stats.tiles_before
        assert not pruned.stats.bf_fallback
        assert full.stats.tiles_after == full.stats.tiles_before
        assert "bf-kept" in full.oids
        assert pruned.oids == full.oids
    finally:
        fe.delete("bf-kept", "Foo", "poi", "u1", {"type": "Point", "coordinates": [12.315, 41.325]})


@pytest.mark.parametrize("forgery", ["foreign signer", "short reply"])
def test_forged_bloom_reply_falls_back_to_every_tile(forgery):
    # a rogue responder takes the Bloom server's prefix on the router and
    # answers "void" for every tile: signed by a user, or by the server's
    # key with fewer bits than items
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        obj = feature_dict("bf-rogue", (12.315, 41.325))
        assert fe.insert(obj).ok
        box = BBox.of(12.301, 41.301, 12.339, 41.339)
        full = fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=False))
        assert full.oids == {"bf-rogue"}
        assert not fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=True)).stats.bf_fallback

        def rogue(base, interest):
            n = len(decode_membership_request(interest.app_params))
            if forgery == "short reply":
                return ProducerReply(encode_membership_response([False] * (n - 1)),
                                     sign=data_signer(cluster.bf_identity))
            u1 = cluster.user_ids[("Foo", "poi", "u1")]
            return ProducerReply(encode_membership_response([False] * n), sign=data_signer(u1))

        del cluster.router.fib[BF_PREFIX]  # the server's routes withdrawn
        face, fid = cluster.fabric.attach(cluster.router, "rogue-bf")
        cluster.router.advertise(BF_PREFIX, fid)
        Producer(face, "rogue-bf").serve(BF_MEMBER_PREFIX, rogue)
        pruned = fe.range_query(RangeQuery(box, "Foo", "poi", use_bf=True))
        assert pruned.oids == full.oids
        assert pruned.stats.bf_fallback
    finally:
        cluster.close()


def test_range_query_sends_one_tile_batch_per_engine(monkeypatch):
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        rng = random.Random(11)
        features = [
            feature_dict(f"corner{i}", (rng.uniform(12.81, 13.19), rng.uniform(41.81, 42.19)))
            for i in range(24)
        ]
        features.append(feature_dict("straddle", [(12.93, 41.94), (13.06, 42.07)], multi=True))
        for obj in features:
            assert fe.insert(obj).ok
        batches = []
        real_get = fe.consumer.get

        def recording_get(name, **kw):
            if batch_mark(name) == TILE_MARK:
                batches.append(name)
            return real_get(name, **kw)

        monkeypatch.setattr(fe.consumer, "get", recording_get)
        for mode in ("intersect", "include"):
            batches.clear()
            q = RangeQuery(BBox.of(12.85, 41.85, 13.15, 42.15), "Foo", "poi", mode=mode, k=20)
            res = fe.range_query(q)
            assert res.oids == _oracle(features, q)
            owners = [name.prefix(3) for name in batches]
            assert len(owners) == len(set(owners)) == 4  # one batch per engine
            assert res.stats.subqueries > len(batches)
    finally:
        cluster.close()


def test_tile_reply_not_signed_by_an_engine_fails_the_query():
    # a rogue responder takes e1's prefix on the router and answers every
    # tile batch with an empty container signed by a certified user
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        assert fe.insert(feature_dict("dropped", (12.315, 41.325))).ok
        q = RangeQuery(BBox.of(12.301, 41.301, 12.339, 41.339), "Foo", "poi")
        assert fe.range_query(q).oids == {"dropped"}
        u1 = cluster.user_ids[("Foo", "poi", "u1")]
        prefix = route_prefix(TileId.at(0, 12, 41))
        del cluster.router.fib[prefix]  # e1's routes withdrawn
        face, fid = cluster.fabric.attach(cluster.router, "rogue-e1")
        cluster.router.advertise(prefix, fid)
        Producer(face, "rogue-e1").serve(
            prefix, lambda base, interest: ProducerReply(b"", sign=data_signer(u1))
        )
        with pytest.raises(RangeQueryError) as err:
            fe.range_query(q)
        assert "not an engine" in str(err.value)
    finally:
        cluster.close()


def _truncated(engine, base, segments):
    """The reply, engine-signed, one byte short of its last row."""
    return ProducerReply(reassemble(segments)[:-1], sign=engine._sign)


def _mismatched(engine, base, segments):
    """The reply in two engine-signed segments whose final markers disagree."""
    payload = reassemble(segments)
    parts = (payload[: len(payload) // 2], payload[len(payload) // 2 :])
    return [
        engine._sign(DataPacket(segment_name(base, i), part, segment=i, final_segment=i + 1))
        for i, part in enumerate(parts)
    ]


@pytest.mark.parametrize("fault", [_truncated, _mismatched])
@pytest.mark.parametrize("handler, mark", [
    ("handle_tile_query", TILE_MARK),
    ("handle_object_fetch", DATA_MARK),
])
def test_malformed_engine_reply_fails_the_query_with_its_batch_name(
    monkeypatch, handler, mark, fault
):
    cluster = Cluster(make_spec())
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        assert fe.insert(feature_dict("cut", (12.45, 41.55))).ok
        # the level-1 tile answers with a reference; its master is then fetched
        q = RangeQuery(BBox.of(12.4, 41.5, 12.5, 41.6), "Foo", "poi", k=1)
        assert fe.range_query(q).oids == {"cut"}
        engine = cluster.engine("e1")
        real = getattr(engine, handler)
        monkeypatch.setattr(
            engine, handler, lambda base, interest: fault(engine, base, real(base, interest))
        )
        # a cold front-end, whose store of verified masters does not hold "cut"
        cold = cluster.frontend_as("Foo", "poi", "u1")
        with pytest.raises(RangeQueryError) as err:
            cold.range_query(q)
        assert "malformed reply" in str(err.value)
        assert batch_mark(err.value.name) == mark
    finally:
        cluster.close()


def test_cold_frontend_fans_out_on_the_caller_thread(cluster, monkeypatch):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    in_flight = {"now": 0, "max": 0}
    lock = threading.Lock()
    real_get = fe.consumer.get

    def counting_get(*args, **kw):
        with lock:
            in_flight["now"] += 1
            in_flight["max"] = max(in_flight["max"], in_flight["now"])
        try:
            return real_get(*args, **kw)
        finally:
            with lock:
                in_flight["now"] -= 1

    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(fe.consumer, "get", counting_get)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    q = RangeQuery(BBox.of(12.005, 41.005, 12.345, 41.345), "Foo", "poi", k=40)
    stats = fe.range_query(q).stats
    monkeypatch.undo()
    assert stats.subqueries == 40
    assert in_flight["max"] == 1
    assert starts == []


def _count_provenance(monkeypatch, fe) -> list[Name]:
    """Names of the packets `fe` provenance-checks from now on."""
    checked: list[Name] = []
    real_check = fe._check_provenance

    def counting_check(pkt):
        checked.append(pkt.name)
        return real_check(pkt)

    monkeypatch.setattr(fe, "_check_provenance", counting_check)
    return checked


def _master_name(feature) -> Name:
    return object_name(master_tile(feature), feature.tid, feature.cid, feature.uid, feature.oid)


def _reference(obj, signer) -> DataPacket:
    return next(
        p for _, p in build_object_packets(parse_feature(obj), signer)
        if decode_object_payload(p.payload).is_reference
    )


def test_provenance_checked_once_per_returned_object_and_never_on_references(
    cluster, monkeypatch
):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    objs = [
        feature_dict("tb-point", (13.812, 42.312)),
        feature_dict("tb-multi", [(13.823, 42.334), (13.871, 42.415)], multi=True),
        feature_dict("tb-far", [(13.905, 42.441), (13.64, 42.85)], multi=True),
    ]
    for obj in objs:
        assert fe.insert(obj).ok
    checked = _count_provenance(monkeypatch, fe)
    references = []
    real_decode = frontend_mod.decode_object_payload

    def counting_decode(raw):
        payload = real_decode(raw)
        references.append(payload.is_reference)
        return payload

    monkeypatch.setattr(frontend_mod, "decode_object_payload", counting_decode)
    try:
        box = BBox.of(13.8, 42.3, 13.95, 42.45)  # spans four level-1 tiles
        # k=1 answers from the level-0 tile (references only); k=50 from
        # level-2 tiles, whose replies carry masters
        for k in (1, 50):
            checked.clear()
            res = fe.range_query(RangeQuery(box, "Foo", "poi", k=k))
            assert {"tb-point", "tb-multi", "tb-far"} <= res.oids
            assert sorted(checked) == sorted(_master_name(f) for f in res.objects)
        assert any(references)
    finally:
        for obj in objs:
            p = obj["properties"]
            fe.delete(p["oid"], p["tid"], p["cid"], p["uid"], obj["geometry"])


def test_reference_with_a_zeroed_owner_signature_still_resolves(cluster, monkeypatch):
    # the engine-signed reply vouches for a reference; its master keeps the owner check
    fe = cluster.frontend_as("Foo", "poi", "u1")
    obj = feature_dict("zero-ref", (13.852, 42.362))
    assert fe.insert(obj).ok
    ref = _reference(obj, data_signer(cluster.user_ids[("Foo", "poi", "u1")]))
    zeroed = replace(ref, signature=bytes(len(ref.signature)))
    checked = _count_provenance(monkeypatch, fe)
    try:
        stats = QueryStats()
        q = RangeQuery(BBox.of(13.85, 42.36, 13.86, 42.37), "Foo", "poi")
        replies = [(Name(["reply"]), encode_packet_stream([zeroed]))]
        assert [f.oid for f in fe._collect(replies, q, stats)] == ["zero-ref"]
        assert checked == [_master_name(parse_feature(obj))]
        assert stats.validation_warnings == 0
    finally:
        fe.delete("zero-ref", "Foo", "poi", "u1", obj["geometry"])


def test_reference_naming_a_wrong_master_tile_fails_the_query(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    obj = feature_dict("misled", (13.862, 42.372))
    assert fe.insert(obj).ok
    signer = data_signer(cluster.user_ids[("Foo", "poi", "u1")])
    ref = _reference(obj, signer)
    extent, tile, digest = decode_object_payload(ref.payload).reference()
    wrong = TileId(tile.level, tile.lng_idx + 1, tile.lat_idx)  # same engine, no master there
    record = struct.pack("!ddddii16s", *extent, wrong.lng_idx, wrong.lat_idx, digest)
    misled = signer(replace(ref, payload=encode_object_payload(True, None, record)))
    try:
        q = RangeQuery(BBox.of(13.86, 42.37, 13.87, 42.38), "Foo", "poi")
        with pytest.raises(RangeQueryError) as err:
            fe._collect([(Name(["reply"]), encode_packet_stream([misled]))], q, QueryStats())
        assert err.value.name == object_name(wrong, "Foo", "poi", "u1", "misled")
    finally:
        fe.delete("misled", "Foo", "poi", "u1", obj["geometry"])


def _count_master_batches(monkeypatch, fe) -> list[Name]:
    """Names of the master batches `fe` sends from now on."""
    batches: list[Name] = []
    real_get = fe.consumer.get

    def recording_get(name, **kw):
        if batch_mark(name) == DATA_MARK:
            batches.append(name)
        return real_get(name, **kw)

    monkeypatch.setattr(fe.consumer, "get", recording_get)
    return batches


def test_warm_frontend_resolves_repeated_references_from_its_store(cluster, monkeypatch):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    objs = [
        feature_dict("st-point", (12.712, 42.712)),
        feature_dict("st-multi", [(12.723, 42.734), (12.771, 42.815)], multi=True),
    ]
    for obj in objs:
        assert fe.insert(obj).ok
    # spans several level-1 tiles: k=1 answers from the level-0 tile, references only
    q = RangeQuery(BBox.of(12.7, 42.7, 12.85, 42.85), "Foo", "poi", k=1)
    try:
        first = fe.range_query(q)
        assert first.oids == {"st-point", "st-multi"}
        assert (first.stats.master_hits, first.stats.master_fetches) == (0, 2)
        batches = _count_master_batches(monkeypatch, fe)
        checked = _count_provenance(monkeypatch, fe)
        second = fe.range_query(q)
        assert [f.raw for f in second.objects] == [f.raw for f in first.objects]
        assert batches == []
        assert sorted(checked) == sorted(_master_name(f) for f in second.objects)
        assert (second.stats.master_hits, second.stats.master_fetches) == (2, 0)
        assert (fe.masters.hits, fe.masters.misses, len(fe.masters)) == (2, 2, 2)
    finally:
        for obj in objs:
            fe.delete(obj["properties"]["oid"], "Foo", "poi", "u1", obj["geometry"])


def test_warm_frontend_returns_a_reinserted_object_as_changed(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    obj = feature_dict("st-again", (12.732, 42.742))
    q = RangeQuery(BBox.of(12.7, 42.7, 12.85, 42.85), "Foo", "poi", k=1)
    try:
        for label in ("before", "after"):
            obj["properties"]["label"] = label
            assert fe.insert(obj).ok
            res = fe.range_query(q)
            assert [f.raw["properties"]["label"] for f in res.objects] == [label]
            assert (res.stats.master_hits, res.stats.master_fetches) == (0, 1)
            assert fe.delete("st-again", "Foo", "poi", "u1", obj["geometry"]).ok
    finally:
        fe.delete("st-again", "Foo", "poi", "u1", obj["geometry"])


def test_reference_whose_digest_is_one_bit_off_fails_the_query(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    obj = feature_dict("st-flipped", (12.742, 42.752))
    assert fe.insert(obj).ok
    signer = data_signer(cluster.user_ids[("Foo", "poi", "u1")])
    ref = _reference(obj, signer)
    extent, tile, digest = decode_object_payload(ref.payload).reference()
    flipped = bytes([digest[0] ^ 1]) + digest[1:]
    record = struct.pack("!ddddii16s", *extent, tile.lng_idx, tile.lat_idx, flipped)
    forged = signer(replace(ref, payload=encode_object_payload(True, None, record)))
    q = RangeQuery(BBox.of(12.74, 42.75, 12.75, 42.76), "Foo", "poi")
    try:
        stats = QueryStats()
        with pytest.raises(RangeQueryError) as err:
            fe._collect([(Name(["reply"]), encode_packet_stream([forged]))], q, stats)
        assert err.value.name == _master_name(parse_feature(obj))
        assert stats.validation_warnings == 1
        assert len(fe.masters) == 0
        # the true reference resolves, and its master enters the store
        replies = [(Name(["reply"]), encode_packet_stream([ref]))]
        assert [f.oid for f in fe._collect(replies, q, QueryStats())] == ["st-flipped"]
        assert len(fe.masters) == 1
    finally:
        fe.delete("st-flipped", "Foo", "poi", "u1", obj["geometry"])


def test_master_store_holds_its_bound_least_recently_used_out_first(cluster, monkeypatch):
    monkeypatch.setattr(frontend_mod, "MASTER_STORE_SIZE", 2)
    fe = cluster.frontend_as("Foo", "poi", "u1")
    # one object per level-1 tile; a box inside that tile at k=1 returns its reference
    points = {name: (12.15 + i * 0.1, 42.15) for i, name in enumerate("abc")}
    boxes = {
        name: BBox.of(lng - 0.04, lat - 0.04, lng + 0.04, lat + 0.04)
        for name, (lng, lat) in points.items()
    }
    for name, point in points.items():
        assert fe.insert(feature_dict(f"st-lru-{name}", point)).ok
    try:
        # (object asked for, whether the store holds its master)
        for name, held in [("a", 0), ("b", 0), ("a", 1), ("c", 0), ("a", 1), ("b", 0)]:
            res = fe.range_query(RangeQuery(boxes[name], "Foo", "poi", k=1))
            assert res.oids == {f"st-lru-{name}"}
            assert (res.stats.master_hits, res.stats.master_fetches) == (held, 1 - held)
            assert len(fe.masters) <= 2
        assert len(fe.masters) == 2
    finally:
        for name, point in points.items():
            geometry = {"type": "Point", "coordinates": list(point)}
            fe.delete(f"st-lru-{name}", "Foo", "poi", "u1", geometry)


def test_half_deleted_object_resolves_only_on_a_warm_frontend(cluster):
    warm = cluster.frontend_as("Foo", "poi", "u1")
    obj = feature_dict("st-half", (13.562, 41.562))
    assert warm.insert(obj).ok
    # inside one level-1 tile: k=1 answers with a reference
    q = RangeQuery(BBox.of(13.51, 41.51, 13.59, 41.59), "Foo", "poi", k=1)
    master = _master_name(parse_feature(obj))
    try:
        assert warm.range_query(q).oids == {"st-half"}
        # the delete reaches the master's row only, as when the rest timed out
        name, params = object_batch(TileId.at(0, 13, 41), "Foo", "poi", [master], DELETE_MARK)
        user = cluster.user_ids[("Foo", "poi", "u1")]
        interest = sign_interest(user, InterestPacket(name, app_params=params))
        assert cluster.engine("e2").handle_delete(name, interest).payload == DELETE_OK
        res = warm.range_query(q)
        assert res.oids == {"st-half"}
        assert (res.stats.master_hits, res.stats.master_fetches) == (1, 0)
        cold = cluster.frontend_as("Foo", "poi", "u1")
        with pytest.raises(RangeQueryError) as err:
            cold.range_query(q)
        assert err.value.name == master
    finally:
        warm.delete("st-half", "Foo", "poi", "u1", obj["geometry"])


def test_frontend_warmed_by_concurrent_queries_starts_no_threads(cluster, monkeypatch):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    q = RangeQuery(BBox.of(12.05, 41.05, 12.35, 41.35), "Foo", "poi", k=40)  # 40 sub-queries
    real_get = fe.consumer.get

    def slow_get(*args, **kw):
        time.sleep(0.005)
        return real_get(*args, **kw)

    # warm-up: two slowed queries at once
    monkeypatch.setattr(fe.consumer, "get", slow_get)
    warm_up = [threading.Thread(target=fe.range_query, args=(q,)) for _ in range(2)]
    for t in warm_up:
        t.start()
    for t in warm_up:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in warm_up)
    monkeypatch.undo()
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for _ in range(5):
        fe.range_query(q)
    assert starts == []


def test_concurrent_queries_on_one_frontend_all_return_every_object(cluster):
    fe = cluster.frontend_as("Foo", "poi", "u1")
    points = {f"pool{i}": (12.06 + i * 0.05, 41.07 + i * 0.04) for i in range(6)}
    for oid, point in points.items():
        assert fe.insert(feature_dict(oid, point)).ok
    q = RangeQuery(BBox.of(12.05, 41.05, 12.35, 41.35), "Foo", "poi", k=40)
    results, errors = [], []

    def client():
        try:
            for _ in range(3):
                results.append(fe.range_query(q).oids)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(6)]  # 18 calls
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        for oid, point in points.items():
            fe.delete(oid, "Foo", "poi", "u1", {"type": "Point", "coordinates": list(point)})
    assert errors == []
    assert results == [set(points)] * 18


def test_cluster_close_closes_every_frontend(monkeypatch):
    closed = []
    real_close = Frontend.close

    def recording_close(fe):
        closed.append(fe)
        real_close(fe)

    monkeypatch.setattr(Frontend, "close", recording_close)
    cluster = Cluster(make_spec())
    fes = [
        ("Foo", cluster.frontend()),
        ("Foo", cluster.frontend_as("Foo", "poi", "u1")),
        ("Bar", cluster.frontend_as("Bar", "poi", "w1")),
    ]
    box = BBox.of(12.05, 41.05, 12.35, 41.35)  # 16 sub-queries at k=20
    for tid, fe in fes:
        assert fe.range_query(RangeQuery(box, tid, "poi", k=20)).objects == []
    assert closed == []
    cluster.close()
    assert len(closed) == len(fes)
    assert set(closed) == {fe for _, fe in fes}


def test_repeated_ed25519_query_verifies_each_signature_once(monkeypatch):
    cluster = Cluster(make_spec(scheme=SCHEME_ED25519))
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        for obj in (
            feature_dict("once-point", (12.612, 41.612)),
            feature_dict("once-multi", [(12.623, 41.634), (12.671, 41.715)], multi=True),
        ):
            assert fe.insert(obj).ok
        calls = []
        real_verify = trust_mod.verify_bytes

        def counting_verify(*args):
            calls.append(args[2])
            return real_verify(*args)

        monkeypatch.setattr(trust_mod, "verify_bytes", counting_verify)
        q = RangeQuery(BBox.of(12.6, 41.6, 12.75, 41.75), "Foo", "poi", k=1)  # masters fetched
        first = fe.range_query(q)
        first_calls, first_hits = len(calls), fe.verified.hits
        second = fe.range_query(q)
        assert second.oids == {"once-point", "once-multi"}
        assert [f.raw for f in second.objects] == [f.raw for f in first.objects]
        assert len(calls) - first_calls < first_calls
        assert fe.verified.hits > first_hits
        # a hit skips only the signature check: the owner check still runs
        u2 = cluster.user_ids[("Foo", "poi", "u2")]
        tile = TileId.at(2, 12.61, 41.61)
        stolen = sign_data(u2, DataPacket(object_name(tile, "Foo", "poi", "u1", "once-point")))
        hits = fe.verified.hits
        for _ in range(2):
            with pytest.raises(ValidationError):
                fe._check_provenance(stolen)
        assert fe.verified.hits == hits + 1
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# randomized oracle equivalence (small-scale version of the acceptance run)


def _oracle(features, q: RangeQuery):
    """Linear scan, written independently of the query path."""
    out = set()
    for f in features:
        geom = f["geometry"]
        props = f["properties"]
        if props["tid"] != q.tid or props["cid"] != q.cid:
            continue
        lo_lng, lo_lat = q.bbox.min.lng, q.bbox.min.lat
        hi_lng, hi_lat = q.bbox.max.lng, q.bbox.max.lat
        if geom["type"] == "Point":
            pts = [geom["coordinates"]]
        else:
            pts = geom["coordinates"]
        inside = [lo_lng <= x <= hi_lng and lo_lat <= y <= hi_lat for x, y in pts]
        if q.mode == "include":
            if not all(inside):
                continue
        elif not any(inside):
            continue
        if q.interval is not None and "temporalExtent" in f:
            a, b = f["temporalExtent"]["validTime"]["value"]
            if not (a <= q.interval[1] and b >= q.interval[0]):
                continue
        out.add(props["oid"])
    return out


def test_range_query_matches_linear_scan_oracle():
    cluster = Cluster(make_spec())
    try:
        rng = random.Random(2024)
        fe = cluster.frontend_as("Foo", "poi", "u1")
        features = []
        for i in range(250):
            if rng.random() < 0.3:
                pts = [
                    (rng.uniform(12.0, 13.99), rng.uniform(41.0, 42.99))
                    for _ in range(rng.randrange(2, 5))
                ]
                obj = feature_dict(f"mp{i}", pts, multi=True)
            else:
                obj = feature_dict(f"p{i}", (rng.uniform(12.0, 13.99), rng.uniform(41.0, 42.99)))
            if rng.random() < 0.5:
                a = rng.randrange(0, 100_000)
                obj["temporalExtent"] = {
                    "validTime": {"type": "interval", "value": [a, a + rng.randrange(0, 50_000)]}
                }
            report = fe.insert(obj)
            assert report.ok
            features.append(obj)

        for i in range(60):
            cx = rng.uniform(12.0, 13.9)
            cy = rng.uniform(41.0, 42.9)
            w = rng.uniform(0.01, 0.8)
            q = RangeQuery(
                bbox=BBox.of(cx, cy, min(cx + w, 13.999), min(cy + w, 42.999)),
                tid="Foo",
                cid="poi",
                mode=rng.choice(("intersect", "include")),
                interval=(20_000, 70_000) if rng.random() < 0.5 else None,
                k=rng.choice((5, 50)),
                use_bf=rng.random() < 0.5,
            )
            got = fe.range_query(q).oids
            expect = _oracle(features, q)
            assert got == expect, f"query {i}: {got ^ expect}"
    finally:
        cluster.close()


def test_k_never_changes_results():
    cluster = Cluster(make_spec())
    try:
        rng = random.Random(7)
        fe = cluster.frontend_as("Foo", "poi", "u1")
        for i in range(80):
            fe.insert(feature_dict(f"o{i}", (rng.uniform(12, 13.99), rng.uniform(41, 42.99))))
        for _ in range(10):
            cx, cy = rng.uniform(12, 13.5), rng.uniform(41, 42.5)
            box = BBox.of(cx, cy, cx + 0.4, cy + 0.4)
            results = {
                k: fe.range_query(RangeQuery(box, "Foo", "poi", k=k)).oids for k in (5, 50, 500)
            }
            assert results[5] == results[50] == results[500]
    finally:
        cluster.close()


def test_interval_query_over_several_periods_matches_the_oracle(monkeypatch):
    cluster = Cluster(make_spec())
    try:
        rng = random.Random(31)
        fe = cluster.frontend_as("Foo", "poi", "u1")
        features = []
        for i in range(80):
            pts = [(rng.uniform(12.0, 13.99), rng.uniform(41.0, 42.99)) for _ in range(3)]
            obj = (feature_dict(f"mp{i}", pts, multi=True) if i % 4 == 0
                   else feature_dict(f"p{i}", pts[0]))
            if i % 3:  # a third stay timeless; the rest span one period or several
                a = rng.randrange(0, 80_000)
                obj["temporalExtent"] = {
                    "validTime": {"type": "interval", "value": [a, a + rng.randrange(0, 40_000)]}
                }
            assert fe.insert(obj).ok
            features.append(obj)
        interval = (20_000, 70_000)
        assert len(temporal_decompose(interval).periods) == 3
        replies = []
        real_get = fe.consumer.get

        def recording_get(name, **kw):
            raw = real_get(name, **kw)
            if batch_mark(name) == TILE_MARK:
                replies.append(raw)
            return raw

        monkeypatch.setattr(fe.consumer, "get", recording_get)
        boxes = [BBox.of(12.0, 41.0, 13.99, 42.99)]
        for _ in range(3):
            cx, cy = rng.uniform(12.0, 13.5), rng.uniform(41.0, 42.5)
            boxes.append(BBox.of(cx, cy, cx + rng.uniform(0.05, 0.5), cy + rng.uniform(0.05, 0.5)))
        for mode in ("intersect", "include"):
            for use_bf in (False, True):
                for box in boxes:
                    q = RangeQuery(box, "Foo", "poi", mode=mode, interval=interval, k=20,
                                   use_bf=use_bf)
                    assert fe.range_query(q).oids == _oracle(features, q)
        rows = [[pkt.name for pkt in decode_packet_stream(raw)] for raw in replies]
        assert sum(map(len, rows)) > len(features)
        assert all(len(names) == len(set(names)) for names in rows)  # each row sent once
    finally:
        cluster.close()


def test_predicates_carried_in_tile_batches_keep_results_equal_to_the_oracle():
    cluster = Cluster(make_spec())
    try:
        rng = random.Random(53)
        fe = cluster.frontend_as("Foo", "poi", "u1")
        features = []
        for i in range(90):
            pts = [(rng.uniform(12.0, 13.99), rng.uniform(41.0, 42.99)) for _ in range(4)]
            if i % 3 == 0:  # multipoints, some spanning engines
                obj = feature_dict(f"mp{i}", pts[: 2 + i % 3], multi=True)
            else:
                obj = feature_dict(f"p{i}", pts[0])
            if i % 4:
                a = rng.randrange(0, 40_000) // 60 * 60 + rng.choice((0, 0, 1, 59))
                obj["temporalExtent"] = {
                    "validTime": {"type": "interval", "value": [a, a + rng.randrange(0, 20_000)]}
                }
            assert fe.insert(obj).ok
            features.append(obj)
        intervals = [(6_000, 30_000), (3_600, 7_260), (1_234, 25_321)]
        assert all(len(temporal_decompose(iv).periods) > 1 for iv in intervals)
        boxes = [BBox.of(12.0, 41.0, 13.99, 42.99), BBox.of(12.5, 41.5, 13.5, 42.5)]
        for _ in range(2):
            cx, cy = rng.uniform(12.0, 13.5), rng.uniform(41.0, 42.5)
            boxes.append(BBox.of(cx, cy, cx + rng.uniform(0.05, 0.5), cy + rng.uniform(0.05, 0.5)))
        received = 0
        for mode in ("intersect", "include"):
            for use_bf in (False, True):
                for interval in intervals:
                    for box in boxes:
                        q = RangeQuery(box, "Foo", "poi", mode=mode, interval=interval, k=20,
                                       use_bf=use_bf)
                        res = fe.range_query(q)
                        assert res.oids == _oracle(features, q), (mode, use_bf, interval, box)
                        received += res.stats.rows_received
        engines = [cluster.engine(n).stats for n in cluster.engines]
        assert sum(s.rows_filtered for s in engines) > 0
        assert received == sum(s.rows_sent for s in engines)  # every reply in one segment
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# service endpoint and config files


class ServiceClient:
    """Client for the front-end's line-delimited JSON service."""

    def __init__(self, host, port):
        self._sock = socket.create_connection((host, port), timeout=60)
        self._file = self._sock.makefile("rwb")

    def call(self, request: dict) -> dict:
        self._file.write(json.dumps(request).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self._sock.close()


def test_service_endpoint_roundtrip():
    cluster = Cluster(make_spec(service_port=0))
    try:
        svc = cluster.services["fe1"]
        client = ServiceClient(*svc.address)
        ins = client.call({"op": "insert", "feature": feature_dict("svc1", (12.52, 41.52))})
        assert ins["ok"], ins
        res = client.call(
            {
                "op": "range_query",
                "bbox": [12.5, 41.5, 12.6, 41.6],
                "tid": "Foo",
                "cid": "poi",
                "k": 10,
            }
        )
        assert res["ok"]
        assert [f["properties"]["oid"] for f in res["objects"]] == ["svc1"]
        assert res["stats"]["rows_received"] == 1
        dele = client.call(
            {
                "op": "delete",
                "oid": "svc1",
                "tid": "Foo",
                "cid": "poi",
                "uid": "u1",
                "geometry": {"type": "Point", "coordinates": [12.52, 41.52]},
            }
        )
        assert dele["ok"]
        bad = client.call({"op": "nonsense"})
        assert not bad["ok"]
        client.close()
    finally:
        cluster.close()


def test_parse_cluster_config(tmp_path):
    cfg = tmp_path / "cluster.ini"
    cfg.write_text(
        """
[cluster]
scheme = hmac
bf_enabled = true
bf_capacity = 500
frontends = fe1, fe2

[engine.e1]
tiles = 12/41, 13/41

[engine.e2]
tiles = 12/42

[tenant.Foo]
collections = poi

[user.u1]
tid = Foo
cid = poi
permission = rw

[routes]
ndn:/OGB/13/41 = e1
"""
    )
    spec = parse_cluster_config(str(cfg))
    assert spec.scheme == SCHEME_HMAC
    assert spec.engines["e1"] == [TileId.at(0, 12, 41), TileId.at(0, 13, 41)]
    assert spec.frontends == ["fe1", "fe2"]
    assert spec.routes == [(Name.parse("/OGB/13/41"), "e1")]
    cluster = Cluster(spec)
    try:
        fe = cluster.frontend_as("Foo", "poi", "u1")
        rep = fe.insert(feature_dict("cfg1", (12.9, 41.9)))
        assert rep.ok
    finally:
        cluster.close()


@pytest.mark.parametrize("key", ["engine_cs_capacity", "qdata_freshness_ms", "bf_capcity"])
def test_parse_cluster_config_refuses_unknown_cluster_keys(tmp_path, key):
    cfg = tmp_path / "cluster.ini"
    cfg.write_text(f"[cluster]\nscheme = hmac\n{key} = 256\n\n[engine.e1]\ntiles = 12/41\n")
    with pytest.raises(ValueError, match=key):
        parse_cluster_config(str(cfg))


@pytest.mark.parametrize("node", ["admin", "bf-server"])
def test_reserved_node_names_cannot_name_engines(tmp_path, node):
    with pytest.raises(ValueError, match="reserved"):
        Cluster(make_spec(engines={node: [TileId.at(0, 12, 41)]}))
    cfg = tmp_path / "cluster.ini"
    cfg.write_text(f"[cluster]\nscheme = hmac\n\n[engine.{node}]\ntiles = 12/41\n")
    with pytest.raises(ValueError, match="reserved"):
        parse_cluster_config(str(cfg))


def test_cluster_close_logs_a_failing_closer_and_runs_the_rest(caplog):
    cluster = Cluster(make_spec())
    ran = []

    def broken_closer():
        raise RuntimeError("cannot close")

    cluster._closers[:0] = [broken_closer]
    cluster._closers.append(lambda: ran.append("after"))
    with caplog.at_level(logging.WARNING, logger="geoshard.cluster"):
        cluster.close()
    assert ran == ["after"]
    failures = [r for r in caplog.records if "broken_closer" in r.getMessage()]
    assert len(failures) == 1 and failures[0].levelno == logging.WARNING
