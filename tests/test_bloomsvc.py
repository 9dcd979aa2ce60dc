import math
import random

import pytest

from geoshard.bloom import (
    CountingBloomFilter,
    bf_key,
    bf_params,
    bucket_indices,
    decode_bf_update,
    decode_membership_request,
    decode_membership_response,
    encode_bf_update,
    encode_membership_request,
    encode_membership_response,
)
from geoshard.bloomsvc import MAX_BATCH, SERVER_UID, BloomClient, BloomFilterServer
from geoshard.icn import Consumer, Fabric, InterestPacket, Name, Producer
from geoshard.naming import BF_UPDATE_PREFIX
from geoshard.trust import SCHEME_HMAC, Validator, interest_signer, issue, make_anchor

from manual_clock import ManualClock


def test_bf_params_sane():
    m, h = bf_params(10_000, 0.01)
    assert m > 10_000 and 5 <= h <= 10
    with pytest.raises(ValueError):
        bf_params(0, 0.01)


def test_bucket_indices_deterministic_and_in_range():
    idx = bucket_indices("key", 997, 7)
    assert idx == bucket_indices("key", 997, 7)
    assert all(0 <= i < 997 for i in idx)
    assert len(idx) == 7


def test_cbf_add_remove_transitions():
    cbf = CountingBloomFilter(128, 3)
    ups = cbf.add("a")
    assert ups and "a" in cbf
    assert cbf.add("a") == []  # second add: no 0->1 transitions
    assert cbf.remove("a") == []  # count 2 -> 1, nothing reaches zero
    downs = cbf.remove("a")
    assert sorted(downs) == sorted(set(bucket_indices("a", 128, 3)))
    assert "a" not in cbf


def test_cbf_never_false_void_under_collisions():
    rng = random.Random(8)
    cbf = CountingBloomFilter(64, 4)  # small: force collisions
    live = set()
    for step in range(2000):
        key = f"k{rng.randrange(50)}"
        if key in live and rng.random() < 0.5:
            cbf.remove(key)
            live.discard(key)
        elif key not in live:
            cbf.add(key)
            live.add(key)
        for k in live:
            assert k in cbf  # no false negatives, ever


def test_membership_codec_roundtrip():
    items = [("ndn:/OGB/12/41", "Foo", "poi"), ("ndn:/OGB/13/41", "Bar", "x")]
    assert decode_membership_request(encode_membership_request(items)) == items
    bits = [True, False, True, True, False, False, False, True, True]
    assert decode_membership_response(encode_membership_response(bits)) == bits
    assert decode_bf_update(encode_bf_update(1, [5, 900, 3])) == (1, [5, 900, 3])


def _server_env():
    anchor = make_anchor(scheme=SCHEME_HMAC)
    e1 = issue(anchor, "sys", "e1", "rw")
    e2 = issue(anchor, "sys", "e2", "rw")
    stranger = issue(anchor, "sys", "e99", "rw")
    server = issue(anchor, "sys", SERVER_UID, "rw")
    v = Validator(anchor.cert, clock=ManualClock(5.0))
    for ident in (e1, e2, stranger, server):
        v.add(ident.cert)
    m, h = 2048, 5
    srv = BloomFilterServer(m, h, {"e1", "e2"}, v, identity=server)
    return srv, (m, h), (e1, e2, stranger)


def test_or_semantics_across_engines():
    srv, (m, h), (e1, e2, _) = _server_env()
    key = bf_key("ndn:/OGB/12/41", "Foo", "poi")
    buckets = list(set(bucket_indices(key, m, h)))
    srv.apply_update("e1", 0, buckets)
    srv.apply_update("e2", 0, buckets)
    assert srv.membership([("ndn:/OGB/12/41", "Foo", "poi")]) == [True]
    srv.apply_update("e1", 1, buckets)  # e1 empties: bit must stay set
    assert srv.membership([("ndn:/OGB/12/41", "Foo", "poi")]) == [True]
    srv.apply_update("e2", 1, buckets)  # last engine clears it
    assert srv.membership([("ndn:/OGB/12/41", "Foo", "poi")]) == [False]


def test_update_over_fabric_with_auth():
    srv, (m, h), (e1, e2, stranger) = _server_env()
    fabric = Fabric()
    router = fabric.forwarder("router")
    prod_face, prod_fid = fabric.attach(router, "bf")
    router.advertise(Name(["OGB", "BF"]), prod_fid)
    srv.attach(Producer(prod_face))

    cons_face, _ = fabric.attach(router, "engine-side")
    consumer = Consumer(cons_face)
    client = BloomClient(consumer, interest_signer(e1), srv.validator, lifetime_ms=300)
    key = bf_key("ndn:/OGB/12/41", "Foo", "poi")
    buckets = list(set(bucket_indices(key, m, h)))
    client.publish("e1", 0, buckets)
    assert client.membership([("ndn:/OGB/12/41", "Foo", "poi")]) == [True]
    assert client.membership([("ndn:/OGB/99/41", "Foo", "poi")]) == [False]

    # unknown engine id: the update is dropped
    rogue = BloomClient(consumer, interest_signer(stranger), srv.validator, lifetime_ms=120)
    with pytest.raises(Exception):
        rogue.publish("e99", 0, buckets)
    assert srv.updates_dropped >= 1

    # engine id not matching the signing certificate: dropped too
    mismatch = BloomClient(consumer, interest_signer(e2), srv.validator, lifetime_ms=120)
    with pytest.raises(Exception):
        mismatch.publish("e1", 1, buckets)
    assert srv.membership([("ndn:/OGB/12/41", "Foo", "poi")]) == [True]


def test_membership_batch_limit():
    srv, _, _ = _server_env()
    items = [("ndn:/OGB/1/1", "t", "c")] * (MAX_BATCH + 1)
    interest = InterestPacket(Name(["OGB", "BF", "member", "1", "0"]),
                              app_params=encode_membership_request(items))
    assert srv._on_member(interest.name, interest) is None  # oversize rejected


@pytest.mark.parametrize("params", [None, b"", b"\x00\x02\x00", b"\x00\x01\x00\x02\xff\xfe"])
def test_malformed_membership_request_is_counted_and_unanswered(params):
    srv, _, _ = _server_env()
    interest = InterestPacket(Name(["OGB", "BF", "member", "1", "0"]), app_params=params)
    assert srv._on_member(interest.name, interest) is None
    assert srv.malformed_requests == 1
    good = InterestPacket(interest.name, app_params=encode_membership_request([("p", "t", "c")]))
    assert srv._on_member(good.name, good) is not None
    assert srv.malformed_requests == 1


def analytic_fp_rate(m: int, h: int, n: int) -> float:
    """The textbook false-positive rate of n keys in m buckets with h hashes."""
    return (1.0 - math.exp(-h * n / m)) ** h


def test_measured_fp_rate_close_to_analytic():
    rng = random.Random(31)
    n = 2000
    m, h = bf_params(n, 0.01)
    srv, _, _ = _server_env()
    srv.m, srv.h = m, h
    keys = [(f"ndn:/OGB/{i}/1", "Foo", "poi") for i in range(n)]
    for prefix, tid, cid in keys:
        srv.apply_update("e1", 0, list(set(bucket_indices(bf_key(prefix, tid, cid), m, h))))
    absent = [(f"ndn:/OGB/absent-{i}/9", "Foo", "poi") for i in range(100_000)]
    hits = sum(srv.membership(absent))
    fp = hits / len(absent)
    expected = analytic_fp_rate(m, h, n)
    assert fp <= 2 * expected
    assert fp >= 0  # and no false negatives on present keys
    present_bits = srv.membership(keys[:500])
    assert all(present_bits)
