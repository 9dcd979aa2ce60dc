import hmac
import sys
import threading
from dataclasses import replace
from hashlib import sha256

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from geoshard.icn import Consumer, Fabric, InterestPacket, Name, Producer
from geoshard.icn.clock import ManualClock
from geoshard.icn.packets import DataPacket
from geoshard.geogrid import TileId
from geoshard.naming import key_locator_name, object_name, tile_query_name
import geoshard.trust as trust_mod
from geoshard.trust import (
    VERIFIED_MEMO_SIZE,
    AccessOp,
    SCHEME_ED25519,
    SCHEME_HMAC,
    UnknownKeyLocator,
    ValidationError,
    Validator,
    VerifiedMemo,
    check_access,
    decode_certificate,
    encode_certificate,
    issue,
    make_anchor,
    repo_fetcher,
    serve_certificates,
    sign_bytes,
    sign_data,
    sign_interest,
    verify_bytes,
    verify_packet,
)


@pytest.fixture(scope="module")
def pki():
    anchor = make_anchor()
    tenant = issue(anchor, "Foo", "Foo", "rw")
    user1 = issue(tenant, "Foo.poi", "u1", "rw")
    user2 = issue(tenant, "Foo.poi", "u2", "r")
    return anchor, tenant, user1, user2


def _validator(pki, clock=None):
    anchor, tenant, user1, user2 = pki
    v = Validator(anchor.cert, clock=clock or ManualClock(100.0))
    for ident in (tenant, user1, user2):
        v.add(ident.cert)
    return v


@pytest.mark.parametrize("scheme", [SCHEME_ED25519, SCHEME_HMAC])
def test_sign_verify_roundtrip(scheme):
    anchor = make_anchor(scheme=scheme)
    pkt = DataPacket(Name(["x", "y"]), b"payload", freshness_ms=1000)
    signed = sign_data(anchor, pkt)
    assert verify_packet(signed, anchor.cert)
    flipped = DataPacket(
        signed.name, b"paYload", signed.freshness_ms, signed.key_locator, signed.sig_scheme, signed.signature
    )
    assert not verify_packet(flipped, anchor.cert)


def test_cached_ed25519_keys_sign_and_verify_like_fresh_ones(pki):
    anchor, tenant, user1, _ = pki
    cert, data = user1.cert, b"the same message"
    fresh = Ed25519PrivateKey.from_private_bytes(user1.private).sign(data)
    for _ in range(3):  # the first call loads the key, later ones reuse it
        assert sign_bytes(SCHEME_ED25519, user1.private, data) == fresh
        assert verify_bytes(SCHEME_ED25519, cert.public_key, data, fresh)
    # a cached success does not carry over to a tampered message or signature
    assert not verify_bytes(SCHEME_ED25519, cert.public_key, b"the same messagE", fresh)
    tampered = bytes([fresh[0] ^ 1]) + fresh[1:]
    assert not verify_bytes(SCHEME_ED25519, cert.public_key, data, tampered)
    assert verify_bytes(SCHEME_ED25519, cert.public_key, data, fresh)


def test_hmac_sign_verify_unchanged():
    secret, data = b"k" * 32, b"message"
    mac = hmac.new(secret, data, sha256).digest()
    assert sign_bytes(SCHEME_HMAC, secret, data) == mac
    assert verify_bytes(SCHEME_HMAC, secret, data, mac)
    assert not verify_bytes(SCHEME_HMAC, secret, b"messagE", mac)
    assert not verify_bytes(SCHEME_HMAC, b"j" * 32, data, mac)


def test_verify_with_sibling_cert_fails(pki):
    anchor, tenant, user1, user2 = pki
    pkt = sign_data(user1, DataPacket(Name(["a"]), b"v"))
    assert verify_packet(pkt, user1.cert)
    assert not verify_packet(pkt, user2.cert)


def test_signed_interest_roundtrip(pki):
    anchor, tenant, user1, _ = pki
    i = sign_interest(user1, InterestPacket(Name(["q", "x"]), app_params=b"params"))
    assert verify_packet(i, user1.cert)
    # retransmission with a fresh nonce keeps the signature valid
    assert verify_packet(i.with_new_nonce(), user1.cert)


def test_certificate_codec_roundtrip(pki):
    _, _, user1, _ = pki
    blob = encode_certificate(user1.cert)
    assert decode_certificate(blob) == user1.cert


def test_chain_validation(pki):
    anchor, tenant, user1, _ = pki
    v = _validator(pki)
    assert v.validate_chain(user1.cert)
    assert v.validate_chain(tenant.cert)
    assert v.validate_chain(anchor.cert)  # self-signed anchor
    assert v.chain_tenant(user1.cert) == "Foo"


def test_chain_rejects_wrong_tenant_issuer(pki):
    anchor, tenant, user1, _ = pki
    other_tenant = issue(anchor, "Bar", "Bar", "rw")
    forged = issue(other_tenant, "Foo.poi", "mallory", "rw")  # claims Foo's data set
    v = _validator(pki)
    v.add(other_tenant.cert)
    v.add(forged.cert)
    assert not v.validate_chain(forged.cert)


def test_chain_rejects_rogue_self_signed(pki):
    rogue = make_anchor(did="evil", uid="evil")
    v = _validator(pki)
    v.add(rogue.cert)
    assert not v.validate_chain(rogue.cert)


def test_chain_missing_intermediate(pki):
    anchor, tenant, user1, _ = pki
    v = Validator(anchor.cert, clock=ManualClock(100.0))
    v.add(user1.cert)  # tenant cert absent, no fetcher
    with pytest.raises(UnknownKeyLocator):
        v.ensure_chain(user1.cert)


def test_chain_validity_window():
    clock = ManualClock(0.0)
    anchor = make_anchor(now=0, validity_s=1000)
    tenant = issue(anchor, "Foo", "Foo", "rw", now=0, validity_s=100)
    v = Validator(anchor.cert, clock=clock)
    v.add(tenant.cert)
    assert v.validate_chain(tenant.cert)
    clock.advance(500)  # tenant expired, cache must not mask it
    assert not v.validate_chain(tenant.cert)


def test_certificate_repo_fetch_over_fabric(pki):
    anchor, tenant, user1, _ = pki
    fabric = Fabric()
    router = fabric.forwarder("router")
    repo_face, repo_fid = fabric.attach(router, "cert-repo")
    router.advertise(Name(["CERT"]), repo_fid)
    repo = Producer(repo_face)
    serve_certificates(
        repo, {c.kl_name: c for c in (anchor.cert, tenant.cert, user1.cert)}
    )
    cons_face, _ = fabric.attach(router, "validator")
    consumer = Consumer(cons_face)
    v = Validator(anchor.cert, clock=ManualClock(50.0), fetch=repo_fetcher(consumer, lifetime_ms=300))
    assert v.validate_chain(user1.cert)  # tenant fetched on demand
    with pytest.raises(UnknownKeyLocator):
        v.resolve(key_locator_name("Nope", "nobody", "r"))


# ---------------------------------------------------------------------------
# memo of verified signatures


def _count_verifies(monkeypatch) -> list[bytes]:
    """Signed inputs of the real signature checks made from now on."""
    calls = []
    real = trust_mod.verify_bytes

    def counting(scheme, public, data, sig):
        calls.append(data)
        return real(scheme, public, data, sig)

    monkeypatch.setattr(trust_mod, "verify_bytes", counting)
    return calls


def test_memo_skips_only_the_repeat_signature_check(pki, monkeypatch):
    _, _, user1, _ = pki
    v, memo = _validator(pki), VerifiedMemo()
    pkt = sign_data(user1, DataPacket(Name(["memo", "a"]), b"payload", freshness_ms=10))
    assert v.verify_data(pkt, memo) == user1.cert  # chain checked and cached here
    calls = _count_verifies(monkeypatch)
    assert v.verify_data(pkt, memo) == user1.cert
    assert calls == []
    assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)
    # the same name and signature over another payload: refused, at full cost, every time
    forged = replace(pkt, payload=b"paYload")
    for attempt in (1, 2):
        with pytest.raises(ValidationError):
            v.verify_data(forged, memo)
        assert len(calls) == attempt
    assert len(memo) == 1
    # without a memo every call verifies
    v.verify_data(pkt)
    assert len(calls) == 3


def test_memoised_packet_refused_once_its_signer_expires():
    clock = ManualClock(50.0)
    anchor = make_anchor(now=0, validity_s=1000)
    tenant = issue(anchor, "Foo", "Foo", "rw", now=0, validity_s=1000)
    user = issue(tenant, "Foo.poi", "u1", "rw", now=0, validity_s=100)
    v = Validator(anchor.cert, clock=clock)
    for ident in (tenant, user):
        v.add(ident.cert)
    memo = VerifiedMemo()
    pkt = sign_data(user, DataPacket(Name(["memo", "b"]), b"v"))
    v.verify_data(pkt, memo)
    v.verify_data(pkt, memo)
    assert memo.hits == 1
    clock.advance(100)  # past the user's not_after
    with pytest.raises(ValidationError):
        v.verify_data(pkt, memo)


def test_memo_is_bounded_and_evicts_the_least_recent(pki, monkeypatch):
    _, _, user1, _ = pki
    v, memo = _validator(pki), VerifiedMemo()
    packets = [
        sign_data(user1, DataPacket(Name(["memo", "c", str(i)]), b"v"))
        for i in range(VERIFIED_MEMO_SIZE + 1)
    ]
    for pkt in packets:
        v.verify_data(pkt, memo)
    assert len(memo) == VERIFIED_MEMO_SIZE
    calls = _count_verifies(monkeypatch)
    v.verify_data(packets[-1], memo)  # the newest is still held
    assert calls == []
    v.verify_data(packets[0], memo)  # the oldest was evicted
    assert len(calls) == 1
    assert len(memo) == VERIFIED_MEMO_SIZE


def test_memo_never_holds_hmac(monkeypatch):
    anchor = make_anchor(scheme=SCHEME_HMAC)
    tenant = issue(anchor, "Foo", "Foo", "rw")
    user = issue(tenant, "Foo.poi", "u1", "rw")
    v = Validator(anchor.cert, clock=ManualClock(100.0))
    for ident in (tenant, user):
        v.add(ident.cert)
    memo = VerifiedMemo()
    pkt = sign_data(user, DataPacket(Name(["memo", "d"]), b"v"))
    v.verify_data(pkt, memo)
    calls = _count_verifies(monkeypatch)
    v.verify_data(pkt, memo)
    assert len(calls) == 1
    assert (len(memo), memo.hits, memo.misses) == (0, 0, 0)


def test_memo_counts_every_lookup_of_concurrent_callers(pki):
    _, _, user1, _ = pki
    v, memo = _validator(pki), VerifiedMemo()
    packets = [
        sign_data(user1, DataPacket(Name(["memo", "e", str(i)]), b"v")) for i in range(20)
    ]
    errors = []

    def verify_all():
        try:
            for pkt in packets:
                v.verify_data(pkt, memo)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=verify_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert memo.hits + memo.misses == 80
    assert memo.misses >= 20
    assert len(memo) == 20


# ---------------------------------------------------------------------------
# access-control decision table

TILE = TileId.at(2, 12.51, 41.89)
KL_RW = key_locator_name("Foo.poi", "u1", "rw")
KL_R = key_locator_name("Foo.poi", "u1", "r")
O_NAME = object_name(TILE, "Foo", "poi", "u1", "o1")
Q_NAME = tile_query_name(TILE, "Foo", "poi")


def test_access_table_allow_rows():
    assert check_access(AccessOp.INSERT, O_NAME, KL_RW).allow
    assert check_access(AccessOp.QUERY, Q_NAME, key_locator_name("Foo.poi", "u2", "r")).allow
    assert check_access(AccessOp.QUERY, Q_NAME, KL_RW).allow
    assert check_access(AccessOp.DELETE, O_NAME, KL_RW).allow


@pytest.mark.parametrize(
    "op,target,kl,expect",
    [
        # insert: every single-condition violation denies
        (AccessOp.INSERT, object_name(TILE, "Foo", "bus", "u1", "o1"), KL_RW, False),  # did mismatch
        (AccessOp.INSERT, object_name(TILE, "Foo", "poi", "u2", "o1"), KL_RW, False),  # uid mismatch
        (AccessOp.INSERT, O_NAME, KL_R, False),  # read-only key
        (AccessOp.INSERT, O_NAME, KL_RW, True),
        # query: uid is irrelevant, permission r or rw suffices
        (AccessOp.QUERY, tile_query_name(TILE, "Foo", "bus"), KL_R, False),
        (AccessOp.QUERY, Q_NAME, KL_R, True),
        (AccessOp.QUERY, Q_NAME, key_locator_name("Foo.poi", "other", "rw"), True),
        # delete mirrors insert
        (AccessOp.DELETE, object_name(TILE, "Foo", "bus", "u1", "o1"), KL_RW, False),
        (AccessOp.DELETE, object_name(TILE, "Foo", "poi", "u2", "o1"), KL_RW, False),
        (AccessOp.DELETE, O_NAME, KL_R, False),
        (AccessOp.DELETE, O_NAME, KL_RW, True),
    ],
)
def test_access_table_matrix(op, target, kl, expect):
    assert check_access(op, target, kl).allow is expect


@pytest.mark.parametrize(
    "op,target",
    [
        (AccessOp.INSERT, Name(["d", "Foo.poi", "u1", "o1"])),
        (AccessOp.QUERY, Name(["d", "Foo.poi", "surname=Detti"])),
        (AccessOp.DELETE, Name(["d", "Foo.poi", "u1", "o1"])),
    ],
)
def test_access_refuses_names_outside_the_ogb_schemes(op, target):
    with pytest.raises(ValidationError):
        check_access(op, target, KL_RW)


def test_access_on_geographic_names():
    # a key of another tenant's data set reads nothing
    assert not check_access(AccessOp.QUERY, Q_NAME, key_locator_name("Bar.poi", "u2", "r")).allow
    # reading an object by name (batch fetch) follows the query rule
    assert check_access(AccessOp.QUERY, O_NAME, key_locator_name("Foo.poi", "u2", "r")).allow
    assert not check_access(AccessOp.QUERY, O_NAME, key_locator_name("Bar.poi", "u1", "rw")).allow


def test_access_unparseable_name():
    with pytest.raises(ValidationError):
        check_access(AccessOp.INSERT, Name(["too", "short"]), KL_RW)
    with pytest.raises(ValidationError):
        check_access(AccessOp.QUERY, Q_NAME, Name(["not", "a", "key", "locator", "name"]))
