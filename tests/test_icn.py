import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoshard.icn import (
    Consumer,
    DataPacket,
    Fabric,
    Forwarder,
    GetTimeoutError,
    InterestPacket,
    Name,
    Producer,
    ProducerReply,
    TcpFaceServer,
    WireFormatError,
    decode_packet,
    encode_packet,
    face_pair,
    longest_prefix_match,
    reassemble,
    segment,
    segment_name,
    split_segment_name,
)
from geoshard.icn.faces import MAX_FRAME, TcpFace
from geoshard.icn.packets import (
    TYPE_DATA,
    decode_packet_stream,
    encode_packet_stream,
)

from manual_clock import ManualClock


def tcp_connect(host, port):
    """A started TcpFace to a server; the client speaks first."""
    return TcpFace(socket.create_connection((host, port), timeout=10)).start()


def test_name_parse_render_roundtrip():
    n = Name.parse("ndn:/OGB/12/41/58/19/GPS-ID")
    assert n.to_uri() == "ndn:/OGB/12/41/58/19/GPS-ID"
    assert len(n) == 6
    assert (n / "TILE" / "Foo").to_uri() == "ndn:/OGB/12/41/58/19/GPS-ID/TILE/Foo"


def test_name_prefix_is_componentwise():
    assert Name(("a", "b")).is_prefix_of(Name(("a", "b", "c")))
    assert not Name(("a",)).is_prefix_of(Name(("ab", "c")))  # not substring-wise


def test_longest_prefix_match():
    f1, f2 = 1, 2
    fib = {Name.parse("/OGB/12/41"): {f1}, Name.parse("/OGB/12"): {f2}}
    name = Name.parse("/OGB/12/41/58/19/GPS-ID/TILE/Foo/Shop")
    assert longest_prefix_match(fib, name) == {f1}
    assert longest_prefix_match({Name.parse("/OGB/12"): {f2}}, Name.parse("/OGB/13/41")) == set()
    fib2 = {Name.parse("/d"): {f1}, Name.parse("/a"): {f2}}
    assert longest_prefix_match(fib2, Name.parse("/d/ptr71z")) == {f1}


# ---------------------------------------------------------------------------
# TLV codec


def test_codec_roundtrip_interest():
    rng = random.Random(3)
    for _ in range(50):
        pkt = InterestPacket(
            name=Name(["x", str(rng.randrange(1000)), "y"]),
            nonce=rng.getrandbits(32),
            lifetime_ms=rng.randrange(1, 100000),
            app_params=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40))) if rng.random() < 0.5 else None,
            key_locator=Name(["CERT", "t", "u", "rw"]) if rng.random() < 0.5 else None,
            sig_scheme=2,
            signature=b"\x01" * 32 if rng.random() < 0.5 else None,
        )
        if pkt.signature is None:
            pkt = InterestPacket(pkt.name, pkt.nonce, pkt.lifetime_ms, pkt.app_params)
        assert decode_packet(encode_packet(pkt)) == pkt


def test_codec_roundtrip_data():
    rng = random.Random(4)
    for _ in range(50):
        pkt = DataPacket(
            name=Name(["content", str(rng.randrange(10))]),
            payload=bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200))),
            freshness_ms=rng.randrange(0, 10_000),
            key_locator=Name(["CERT", "a", "b", "r"]),
            sig_scheme=1,
            signature=bytes(16),
            segment=rng.randrange(0, 5) if rng.random() < 0.5 else None,
            final_segment=7,
        )
        if pkt.segment is None:
            pkt = DataPacket(pkt.name, pkt.payload, pkt.freshness_ms, pkt.key_locator, 1, bytes(16))
        assert decode_packet(encode_packet(pkt)) == pkt


def test_codec_rejects_garbage():
    with pytest.raises(WireFormatError):
        decode_packet(b"\x99\x00")
    with pytest.raises(WireFormatError):
        decode_packet(encode_packet(InterestPacket(Name(["a"])))[:-2])


_components = st.text(min_size=1, max_size=12).filter(lambda c: "/" not in c)
_names = st.lists(_components, max_size=5).map(Name)
_u32 = st.integers(0, 2**32 - 1)
_signatures = st.one_of(
    st.none(),
    st.tuples(_names.filter(len), st.integers(0, 255), st.binary(max_size=80)),
)


@st.composite
def _interests(draw):
    sig = draw(_signatures)
    kl, scheme, signature = sig if sig else (None, 0, None)
    return InterestPacket(
        draw(_names), draw(_u32), draw(_u32), draw(st.none() | st.binary(max_size=60)),
        kl, scheme, signature,
    )


@st.composite
def _data(draw):
    sig = draw(_signatures)
    kl, scheme, signature = sig if sig else (None, 0, None)
    seg = draw(st.none() | st.tuples(_u32, _u32))
    segment_index, final = seg if seg else (None, None)
    return DataPacket(
        draw(_names), draw(st.binary(max_size=200)), draw(_u32), kl, scheme, signature,
        segment_index, final,
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(_interests(), _data()))
def test_codec_roundtrip_property(pkt):
    raw = encode_packet(pkt)
    assert decode_packet(raw) == pkt
    assert decode_packet_stream(encode_packet_stream([pkt, pkt])) == [pkt, pkt]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_interests(), _data()))
def test_codec_rejects_every_proper_prefix_and_trailing_bytes(pkt):
    raw = encode_packet(pkt)
    for cut in range(len(raw)):
        with pytest.raises(WireFormatError):
            decode_packet(raw[:cut])
    with pytest.raises(WireFormatError):
        decode_packet(raw + b"\x00")
    stream = encode_packet_stream([pkt])
    with pytest.raises(WireFormatError):
        decode_packet_stream(stream + b"\x00\x00")  # a partial item header
    with pytest.raises(WireFormatError):
        decode_packet_stream(stream[:-1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_interests(), _data()), max_size=4))
def test_joined_one_packet_streams_are_the_stream_of_their_packets(pkts):
    # an engine stores each row as a one-packet stream and replies with their join
    items = [encode_packet_stream([pkt]) for pkt in pkts]
    assert b"".join(items) == encode_packet_stream(pkts)
    assert decode_packet_stream(b"".join(items)) == pkts


def _data_wire(*components: bytes) -> bytes:
    """An unsigned, unsegmented, empty Data packet with raw name components."""
    name = struct.pack("!H", len(components)) + b"".join(
        struct.pack("!H", len(c)) + c for c in components
    )
    return bytes([TYPE_DATA]) + name + struct.pack("!IBI", 0, 0, 0)


@pytest.mark.parametrize("bad", [b"", b"a/b", b"/", b"\xff", b"\xc3", b"\xed\xa0\x80"])
def test_codec_rejects_invalid_name_components(bad):
    assert decode_packet(_data_wire(b"ok", "é".encode())).name == Name(["ok", "é"])
    with pytest.raises(WireFormatError):
        decode_packet(_data_wire(b"ok", bad))
    with pytest.raises(WireFormatError):
        decode_packet_stream(struct.pack("!I", len(_data_wire(bad))) + _data_wire(bad))


def test_name_refuses_bad_components_wherever_they_enter():
    base = Name(["a", "b"])
    for bad in ("", "x/y", "/"):
        with pytest.raises(ValueError):
            Name(["a", bad])
        with pytest.raises(ValueError):
            base / bad
        with pytest.raises(ValueError):
            base.append("ok", bad)
    for bad in (3, None, b"bytes"):
        with pytest.raises(TypeError):
            Name(["a", bad])
        with pytest.raises(TypeError):
            base / bad
        with pytest.raises(TypeError):
            base.append(bad)


def test_name_slices_prefixes_and_sums_equal_fresh_names():
    n = Name(["a", "b", "c"])
    for derived, fresh in [
        (n[:2], Name(["a", "b"])),
        (n[1:], Name(["b", "c"])),
        (n.prefix(1), Name(["a"])),
        (n.prefix(0), Name()),
        (n[:1] + n[2:], Name(["a", "c"])),
        (n / "d", Name(["a", "b", "c", "d"])),
        (n.append("d", "e"), Name(["a", "b", "c", "d", "e"])),
    ]:
        assert derived == fresh
        assert hash(derived) == hash(fresh)
        assert derived.to_uri() == fresh.to_uri()
        assert isinstance(derived, Name)


# ---------------------------------------------------------------------------
# segmentation


def test_segment_empty_payload():
    segs = segment(Name(["c"]), b"")
    assert len(segs) == 1
    assert segs[0].payload == b""
    assert segs[0].final_segment == 0
    assert reassemble(segs) == b""


def test_segment_exact_fit():
    segs = segment(Name(["c"]), b"x" * 8192, max_payload=8192)
    assert len(segs) == 1


def test_segment_roundtrip_random():
    rng = random.Random(9)
    payload = bytes(rng.randrange(256) for _ in range(100_000))
    segs = segment(Name(["c"]), payload, max_payload=8192)
    assert len(segs) == 13
    rng.shuffle(segs)
    assert reassemble(segs) == payload


def test_reassemble_refuses_segments_disagreeing_on_the_final_marker():
    old = segment(Name(["c"]), b"a" * 10, max_payload=2)  # final segment 4
    new = segment(Name(["c"]), b"b" * 14, max_payload=2)  # final segment 6
    with pytest.raises(ValueError, match="final segment"):
        reassemble([old[0], *new[1:]])
    assert reassemble(new) == b"b" * 14


def test_segment_name_split():
    base = Name(["a", "b"])
    n = segment_name(base, 17)
    assert split_segment_name(n) == (base, 17)
    assert split_segment_name(base) == (base, None)


# ---------------------------------------------------------------------------
# forwarder behaviour (manual clock, hand-pumped faces)


def _queued_upstream(fwd):
    """Attach an upstream face whose deliveries queue until pumped."""
    up_fwd_side, up_ep = face_pair("up")
    fid = fwd.add_face(up_fwd_side)
    captured = []
    up_ep.on_receive = captured.append
    return fid, up_ep, captured


def _downstream(fwd):
    fwd_side, ep = face_pair("down")
    fid = fwd.add_face(fwd_side)
    got = []
    ep.on_receive = got.append
    return fid, ep, got


def test_multicast_suppression_deterministic():
    clock = ManualClock()
    fwd = Forwarder("f", clock=clock)
    up_fid, up_ep, upstream = _queued_upstream(fwd)
    fwd.advertise(Name(["OGB"]), up_fid)
    name = Name(["OGB", "x", "TILE", "t", "c"])
    downs = [_downstream(fwd) for _ in range(8)]
    for i, (fid, ep, _) in enumerate(downs):
        ep.send(InterestPacket(name, nonce=i + 1))
    assert len(upstream) == 1  # exactly one upstream emission
    assert fwd.stats.pit_aggregated == 7
    up_ep.send(DataPacket(name, b"payload", freshness_ms=0))
    for _, _, got in downs:
        assert len(got) == 1 and got[0].payload == b"payload"
    assert fwd.stats.downstream_data == 8


def test_duplicate_nonce_dropped():
    clock = ManualClock()
    fwd = Forwarder("f", clock=clock)
    up_fid, _, upstream = _queued_upstream(fwd)
    fwd.advertise(Name(["a"]), up_fid)
    fid, ep, _ = _downstream(fwd)
    i = InterestPacket(Name(["a", "b"]), nonce=42)
    ep.send(i)
    ep.send(i)  # looped back duplicate
    assert len(upstream) == 1
    assert fwd.stats.duplicate_nonce_drops == 1


def test_pit_expiry_forwards_anew():
    clock = ManualClock()
    fwd = Forwarder("f", clock=clock)
    up_fid, _, upstream = _queued_upstream(fwd)
    fwd.advertise(Name(["a"]), up_fid)
    _, ep1, _ = _downstream(fwd)
    _, ep2, _ = _downstream(fwd)
    ep1.send(InterestPacket(Name(["a", "x"]), nonce=1, lifetime_ms=1000))
    clock.advance(1.5)  # past lifetime
    ep2.send(InterestPacket(Name(["a", "x"]), nonce=2, lifetime_ms=1000))
    assert len(upstream) == 2


def test_no_route_drop_and_withdraw():
    clock = ManualClock()
    fwd = Forwarder("f", clock=clock)
    up_fid, _, upstream = _queued_upstream(fwd)
    fwd.advertise(Name(["a"]), up_fid)
    _, ep, _ = _downstream(fwd)
    ep.send(InterestPacket(Name(["b", "x"]), nonce=1))
    assert fwd.stats.no_route_drops == 1
    fwd.advertise(Name(["a"]), up_fid)  # idempotent re-registration
    assert fwd.fib[Name(["a"])] == {up_fid}
    del fwd.fib[Name(["a"])]  # the route withdrawn
    ep.send(InterestPacket(Name(["a", "x"]), nonce=2))
    assert fwd.stats.no_route_drops == 2
    assert len(upstream) == 1 - 1  # nothing ever went upstream


def test_unsolicited_data_dropped():
    fwd = Forwarder("f", clock=ManualClock())
    _, ep, _ = _downstream(fwd)
    ep.send(DataPacket(Name(["a"]), b"zz"))
    assert fwd.stats.unsolicited_drops == 1


# ---------------------------------------------------------------------------
# end-to-end fetch through a fabric


def _simple_net(loss_to_consumer=None):
    fabric = Fabric()
    router = fabric.forwarder("router")
    prod_face, prod_fid = fabric.attach(router, "producer")
    cons_face, _ = fabric.attach(router, "consumer", loss_to_endpoint=loss_to_consumer)
    router.advertise(Name(["content"]), prod_fid)
    producer = Producer(prod_face)
    consumer = Consumer(cons_face)
    return fabric, router, producer, consumer


def test_get_single_segment():
    _, _, producer, consumer = _simple_net()
    producer.serve(Name(["content"]), lambda name, i: ProducerReply(b"hello", freshness_ms=0))
    assert consumer.get(Name(["content", "a"]), lifetime_ms=200) == b"hello"


def test_get_multi_segment_130kb():
    _, _, producer, consumer = _simple_net()
    rng = random.Random(12)
    blob = bytes(rng.getrandbits(8) for _ in range(130 * 1024))
    producer.serve(Name(["content"]), lambda name, i: ProducerReply(blob, max_payload=8192))
    got = consumer.get(Name(["content", "blob"]), lifetime_ms=500)
    assert got == blob
    # 130 KiB / 8 KiB = 16.25 -> 17 segments
    assert (len(blob) + 8191) // 8192 == 17


def test_get_timeout_when_producer_absent():
    _, _, _, consumer = _simple_net()
    with pytest.raises(GetTimeoutError):
        consumer.get(Name(["content", "missing"]), lifetime_ms=50, retries=1)


def test_get_with_induced_single_loss_retransmits():
    dropped = {"done": False}

    def drop_once(pkt):
        if isinstance(pkt, DataPacket) and not dropped["done"] and (pkt.segment or 0) == 3:
            dropped["done"] = True
            return True
        return False

    _, _, producer, consumer = _simple_net(loss_to_consumer=drop_once)
    rng = random.Random(5)
    blob = bytes(rng.getrandbits(8) for _ in range(60_000))
    producer.serve(Name(["content"]), lambda name, i: ProducerReply(blob, max_payload=8192))
    got = consumer.get(Name(["content", "blob"]), lifetime_ms=150, retries=3)
    assert got == blob
    assert dropped["done"]


def test_multi_segment_get_starts_no_threads(monkeypatch):
    _, _, producer, consumer = _simple_net()
    blob = bytes(range(250))
    producer.serve(Name(["content"]), lambda name, i: ProducerReply(blob, max_payload=100))
    starts = []
    real_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    assert consumer.get(Name(["content", "three"]), lifetime_ms=500) == blob  # 3 segments
    assert starts == []


def test_multi_segment_get_retransmits_a_segment_lost_between_routers(monkeypatch):
    fabric = Fabric()
    near, far = fabric.forwarder("near"), fabric.forwarder("far")
    dropped = []

    def drop_segment_2_once(pkt):
        if isinstance(pkt, DataPacket) and pkt.segment == 2 and not dropped:
            dropped.append(pkt.name)
            return True
        return False

    far_fid, near_fid = fabric.link(far, near, loss_to_b=drop_segment_2_once)
    prod_face, prod_fid = fabric.attach(far, "producer")
    far.advertise(Name(["content"]), prod_fid)
    near.advertise(Name(["content"]), near_fid)
    cons_face, _ = fabric.attach(near, "consumer")
    consumer = Consumer(cons_face)
    blob = bytes(random.Random(6).getrandbits(8) for _ in range(500))
    producer = Producer(prod_face)
    producer.serve(Name(["content"]), lambda name, i: ProducerReply(blob, max_payload=100))
    retransmitted = []
    real_renonce = InterestPacket.with_new_nonce

    def counting_renonce(interest):
        retransmitted.append(interest.name)
        return real_renonce(interest)

    monkeypatch.setattr(InterestPacket, "with_new_nonce", counting_renonce)
    got = consumer.get(Name(["content", "blob"]), lifetime_ms=100, retries=2, window=3)
    assert got == blob  # 5 segments
    assert len(dropped) == 1
    assert retransmitted == dropped


def test_sibling_prefix_routing_disjoint():
    fabric = Fabric()
    router = fabric.forwarder("router")
    hits = {"a": 0, "b": 0}

    def make(nodeid, prefix):
        face, fid = fabric.attach(router, nodeid)
        prod = Producer(face)

        def handler(name, interest, nodeid=nodeid):
            hits[nodeid] += 1
            return ProducerReply(nodeid.encode())

        prod.serve(prefix, handler)
        router.advertise(prefix, fid)

    make("a", Name.parse("/OGB/12/41"))
    make("b", Name.parse("/OGB/12/42"))
    cons_face, _ = fabric.attach(router, "consumer")
    consumer = Consumer(cons_face)
    assert consumer.get(Name.parse("/OGB/12/41/GPS-ID/x"), lifetime_ms=200) == b"a"
    assert consumer.get(Name.parse("/OGB/12/42/GPS-ID/x"), lifetime_ms=200) == b"b"
    assert hits == {"a": 1, "b": 1}


def test_tcp_face_end_to_end():
    # consumer in this process <-> forwarder reachable over TCP
    fabric = Fabric()
    router = fabric.forwarder("router")
    prod_face, prod_fid = fabric.attach(router, "producer")
    router.advertise(Name(["remote"]), prod_fid)
    producer = Producer(prod_face)
    producer.serve(Name(["remote"]), lambda n, i: ProducerReply(b"over-tcp"))

    server = TcpFaceServer("127.0.0.1", 0, on_face=lambda face: router.add_face(face))
    try:
        client_face = tcp_connect(*server.address)
        consumer = Consumer(client_face)
        got = consumer.get(Name(["remote", "obj"]), lifetime_ms=2000)
        assert got == b"over-tcp"
    finally:
        server.close()


def test_tcp_face_reads_nothing_before_on_face_wires_it():
    fabric = Fabric()
    router = fabric.forwarder("router")
    prod_face, prod_fid = fabric.attach(router, "producer")
    router.advertise(Name(["remote"]), prod_fid)
    Producer(prod_face).serve(Name(["remote"]), lambda n, i: ProducerReply(b"early"))

    def slow_wiring(face):
        time.sleep(0.3)  # the client's Interest arrives meanwhile
        router.add_face(face)

    server = TcpFaceServer("127.0.0.1", 0, on_face=slow_wiring)
    try:
        consumer = Consumer(tcp_connect(*server.address))
        got = consumer.get(Name(["remote", "first"]), lifetime_ms=2000, retries=0)
        assert got == b"early"
    finally:
        server.close()


def test_tcp_face_closes_on_oversized_frame():
    server = TcpFaceServer("127.0.0.1", 0, on_face=lambda face: None)
    try:
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(struct.pack("!I", MAX_FRAME + 1))
            assert raw.recv(1) == b""  # closed, not waiting for 32 MiB
    finally:
        server.close()


def test_concurrent_gets_share_upstream():
    fabric = Fabric()
    router = fabric.forwarder("router")
    prod_face, prod_fid = fabric.attach(router, "producer")
    router.advertise(Name(["c"]), prod_fid)
    calls = []
    producer = Producer(prod_face)

    def handler(name, interest):
        calls.append(name)
        return ProducerReply(b"shared", freshness_ms=5000)

    producer.serve(Name(["c"]), handler)

    results = []
    consumers = []
    for i in range(4):
        face, _ = fabric.attach(router, f"cons{i}")
        consumers.append(Consumer(face))

    threads = [
        threading.Thread(target=lambda c=c: results.append(c.get(Name(["c", "x"]), lifetime_ms=500)))
        for c in consumers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [b"shared"] * 4
    assert len(calls) <= 4  # the PIT keeps overlapping requests off the producer
