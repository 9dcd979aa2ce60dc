"""Data-centric security: keys, certificates, trust chains, access control.

Certificates carry their permission in the key-locator name
(CERT/{did}/{uid}/{permission}); the anchor is the system administrator's
self-signed certificate, tenants are issued by the anchor, and users by
their tenant. Every signed Interest/Data names its certificate so verifiers
can fetch it from the certificate repo when it is not available locally.

Two signature schemes share one interface: Ed25519 (default) and an
HMAC-SHA256 stand-in whose "public key" is the shared secret - symmetric,
test/benchmark use only.

Access control (:func:`check_access`) reads the data set and owner from the
object and tile-query names of :mod:`geoshard.naming` (an insert or a
delete names an object); a name in no such scheme is refused for every
operation.

Which signature vouches for which fact, after the trust-schema rules of Yu
et al. ("Schematizing Trust in Named Data Networking", ICN 2015):

- a user's signature on an object packet vouches for the object; engines
  verify it, with the owner and tenant its name claims, before they store
  the packet, and front-ends verify it again on every object they return;
- an engine's signature on a tile batch or master batch reply vouches for
  the index records it carries for every name the batch lists, references
  included, which front-ends therefore do not verify one by one; front-ends
  accept such a reply only from an engine's certificate (sys/<engine>);
- a user's signature on an Interest vouches for the request; engines apply
  :func:`check_access` to its signer.

How often each signature is checked: engines and the Bloom-filter server
verify every packet they receive. A front-end verifies each Ed25519 Data
signature once: its :class:`VerifiedMemo` (at most VERIFIED_MEMO_SIZE
entries, least recently used out first) holds the (key, signed bytes,
signature) triples that verified. A hit skips only the signature check;
the certificate is still resolved, its chain and validity window checked,
and the owner and tenant tests run. A failed check is never stored, so a
forged copy costs a full verification every time; HMAC is never stored.
"""

from __future__ import annotations

import hmac
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from hashlib import sha256
from typing import Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from geoshard.icn.clock import system_clock
from geoshard.icn.names import Name
from geoshard.icn.packets import (
    DataPacket,
    InterestPacket,
    data_signing_bytes,
    interest_signing_bytes,
)
from geoshard.naming import (
    CERT_ROOT,
    DATA_MARK,
    KeyLocatorInfo,
    NameSchemeError,
    key_locator_name,
    parse_key_locator,
    parse_object_name,
    parse_tile_query_name,
    tenant_of_did,
)

SCHEME_ED25519 = 1
SCHEME_HMAC = 2

DEFAULT_VALIDITY_S = 10 * 365 * 24 * 3600


class TrustError(Exception):
    pass


class ValidationError(TrustError):
    """Signature, chain or provenance check failed."""


class UnknownKeyLocator(ValidationError):
    """Certificate not available locally nor fetchable."""


# --- raw signing ------------------------------------------------------------
#
# Loading an Ed25519 key costs about as much as one signature, so loaded key
# objects are kept per raw key, in a bounded cache; the signatures themselves
# are deterministic and do not depend on it.

_KEY_CACHE_SIZE = 1024


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _ed25519_private(raw: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(raw)


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _ed25519_public(raw: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(raw)


def sign_bytes(scheme: int, private: bytes, data: bytes) -> bytes:
    if scheme == SCHEME_ED25519:
        return _ed25519_private(private).sign(data)
    if scheme == SCHEME_HMAC:
        return hmac.new(private, data, sha256).digest()
    raise TrustError(f"unknown signature scheme {scheme}")


def verify_bytes(scheme: int, public: bytes, data: bytes, sig: bytes) -> bool:
    if scheme == SCHEME_ED25519:
        try:
            _ed25519_public(public).verify(sig, data)
            return True
        except InvalidSignature:
            return False
    if scheme == SCHEME_HMAC:
        return hmac.compare_digest(hmac.new(public, data, sha256).digest(), sig)
    raise TrustError(f"unknown signature scheme {scheme}")


# --- certificates -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Certificate:
    kl_name: Name  # CERT/{did}/{uid}/{permission}
    scheme: int
    public_key: bytes
    issuer_kl: Name
    not_before: int
    not_after: int
    signature: bytes

    @property
    def info(self) -> KeyLocatorInfo:
        return parse_key_locator(self.kl_name)

    def signing_input(self) -> bytes:
        return certificate_signing_bytes(
            self.kl_name, self.scheme, self.public_key, self.issuer_kl, self.not_before, self.not_after
        )


def certificate_signing_bytes(
    kl_name: Name, scheme: int, public_key: bytes, issuer_kl: Name, not_before: int, not_after: int
) -> bytes:
    def enc_name(n: Name) -> bytes:
        raw = str(n).encode()
        return struct.pack("!H", len(raw)) + raw

    return (
        b"CERT"
        + enc_name(kl_name)
        + struct.pack("!BH", scheme, len(public_key))
        + public_key
        + enc_name(issuer_kl)
        + struct.pack("!qq", not_before, not_after)
    )


_CERT_MAGIC = b"GSC1"


def encode_certificate(cert: Certificate) -> bytes:
    def enc_name(n: Name) -> bytes:
        raw = str(n).encode()
        return struct.pack("!H", len(raw)) + raw

    return (
        _CERT_MAGIC
        + enc_name(cert.kl_name)
        + struct.pack("!BH", cert.scheme, len(cert.public_key))
        + cert.public_key
        + enc_name(cert.issuer_kl)
        + struct.pack("!qq", cert.not_before, cert.not_after)
        + struct.pack("!H", len(cert.signature))
        + cert.signature
    )


def decode_certificate(raw: bytes) -> Certificate:
    if raw[:4] != _CERT_MAGIC:
        raise TrustError("not a certificate blob")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise TrustError("truncated certificate")
        out = raw[pos : pos + n]
        pos += n
        return out

    def name() -> Name:
        (ln,) = struct.unpack("!H", take(2))
        return Name.parse(take(ln).decode())

    kl = name()
    scheme, publen = struct.unpack("!BH", take(3))
    pub = take(publen)
    issuer = name()
    not_before, not_after = struct.unpack("!qq", take(16))
    (siglen,) = struct.unpack("!H", take(2))
    sig = take(siglen)
    return Certificate(kl, scheme, pub, issuer, not_before, not_after, sig)


@dataclass(frozen=True, slots=True)
class Identity:
    """A certificate plus its private key."""

    cert: Certificate
    private: bytes

    @property
    def kl_name(self) -> Name:
        return self.cert.kl_name

    def sign(self, data: bytes) -> bytes:
        return sign_bytes(self.cert.scheme, self.private, data)


def _generate(scheme: int) -> tuple[bytes, bytes]:
    """(private, public) for the given scheme."""
    if scheme == SCHEME_ED25519:
        priv = Ed25519PrivateKey.generate()
        return priv.private_bytes_raw(), priv.public_key().public_bytes_raw()
    if scheme == SCHEME_HMAC:
        secret = os.urandom(32)
        return secret, secret
    raise TrustError(f"unknown signature scheme {scheme}")


def make_anchor(
    did: str = "sys",
    uid: str = "admin",
    scheme: int = SCHEME_ED25519,
    now: int | None = None,
    validity_s: int = DEFAULT_VALIDITY_S,
) -> Identity:
    """Self-signed trust anchor (the system administrator)."""
    private, public = _generate(scheme)
    kl = key_locator_name(did, uid, "rw")
    nb = 0 if now is None else now
    body = certificate_signing_bytes(kl, scheme, public, kl, nb, nb + validity_s)
    sig = sign_bytes(scheme, private, body)
    return Identity(Certificate(kl, scheme, public, kl, nb, nb + validity_s, sig), private)


def issue(
    issuer: Identity,
    did: str,
    uid: str,
    permission: str = "rw",
    scheme: int | None = None,
    now: int | None = None,
    validity_s: int = DEFAULT_VALIDITY_S,
) -> Identity:
    """Issue a certificate signed by `issuer`."""
    scheme = issuer.cert.scheme if scheme is None else scheme
    private, public = _generate(scheme)
    kl = key_locator_name(did, uid, permission)
    nb = 0 if now is None else now
    body = certificate_signing_bytes(kl, scheme, public, issuer.kl_name, nb, nb + validity_s)
    sig = issuer.sign(body)
    return Identity(Certificate(kl, scheme, public, issuer.kl_name, nb, nb + validity_s, sig), private)


# --- packet signing ---------------------------------------------------------


def sign_interest(identity: Identity, pkt: InterestPacket) -> InterestPacket:
    signed = replace(pkt, key_locator=identity.kl_name, sig_scheme=identity.cert.scheme)
    return replace(signed, signature=identity.sign(interest_signing_bytes(signed)))


def sign_data(identity: Identity, pkt: DataPacket) -> DataPacket:
    signed = replace(pkt, key_locator=identity.kl_name, sig_scheme=identity.cert.scheme)
    return replace(signed, signature=identity.sign(data_signing_bytes(signed)))


def interest_signer(identity: Identity) -> Callable[[InterestPacket], InterestPacket]:
    return lambda pkt: sign_interest(identity, pkt)


def data_signer(identity: Identity) -> Callable[[DataPacket], DataPacket]:
    return lambda pkt: sign_data(identity, pkt)


def verify_packet(
    pkt: InterestPacket | DataPacket, cert: Certificate, memo: VerifiedMemo | None = None
) -> bool:
    """Verify a packet signature against one certificate (no chain walk).

    With a memo, a signature it has already seen verify is not verified again.
    """
    if pkt.signature is None or pkt.sig_scheme != cert.scheme:
        return False
    if isinstance(pkt, InterestPacket):
        body = interest_signing_bytes(pkt)
    else:
        body = data_signing_bytes(pkt)
    if memo is not None:
        return memo.verify(cert.scheme, cert.public_key, body, pkt.signature)
    return verify_bytes(cert.scheme, cert.public_key, body, pkt.signature)


# --- memo of verified signatures --------------------------------------------


class LruStore:
    """A dict of at most `capacity` entries, least recently used out first.

    Safe for concurrent callers. `hits` and `misses` count `get` lookups.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The value held for `key`, now the most recently used; None if absent."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Hold `value` (never None) for `key`, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)


VERIFIED_MEMO_SIZE = 4096
_MEMO_HEAD = struct.Struct("!BHHI")  # scheme, key, signature and data lengths


class VerifiedMemo(LruStore):
    """The Ed25519 signatures one party has already verified, least recent out first.

    An entry is sha256 over the scheme, the public key, the signature and the
    signed bytes, each length-prefixed, so no two triples share an entry. Only
    a successful Ed25519 verification is stored: a failure is checked again
    every time, and HMAC is never stored, because its check costs about what
    the digest does. Holds at most VERIFIED_MEMO_SIZE entries; safe for
    concurrent callers. `hits` and `misses` count lookups of Ed25519 triples.
    """

    def __init__(self):
        super().__init__(VERIFIED_MEMO_SIZE)

    def verify(self, scheme: int, public: bytes, data: bytes, sig: bytes) -> bool:
        if scheme != SCHEME_ED25519:
            return verify_bytes(scheme, public, data, sig)
        key = sha256(
            _MEMO_HEAD.pack(scheme, len(public), len(sig), len(data)) + public + sig + data
        ).digest()
        if self.get(key):
            return True
        if not verify_bytes(scheme, public, data, sig):
            return False
        self.put(key, True)
        return True


# --- chain validation -------------------------------------------------------


class Validator:
    """Certificate store plus trust-chain and packet validation.

    Certificates not available locally are fetched through `fetch` (the
    certificate repo reachable over the fabric). Chain checks are cached
    until the earliest expiry along the chain.
    """

    def __init__(
        self,
        anchor: Certificate,
        clock: Callable[[], float] = system_clock,
        fetch: Callable[[Name], bytes] | None = None,
    ):
        self.anchor = anchor
        self.clock = clock
        self.fetch = fetch
        self._store: dict[Name, Certificate] = {anchor.kl_name: anchor}
        self._chain_cache: dict[Name, float] = {}
        self._lock = threading.Lock()

    def add(self, cert: Certificate) -> None:
        with self._lock:
            self._store[cert.kl_name] = cert

    def resolve(self, kl: Name) -> Certificate:
        with self._lock:
            cert = self._store.get(kl)
        if cert is not None:
            return cert
        if self.fetch is None:
            raise UnknownKeyLocator(f"no certificate for {kl}")
        try:
            cert = decode_certificate(self.fetch(kl))
        except Exception as exc:
            raise UnknownKeyLocator(f"cannot fetch certificate {kl}: {exc}") from None
        if cert.kl_name != kl:
            raise ValidationError(f"certificate repo returned {cert.kl_name} for {kl}")
        self.add(cert)
        return cert

    def validate_chain(self, cert: Certificate) -> bool:
        try:
            self.ensure_chain(cert)
            return True
        except ValidationError:
            return False

    def ensure_chain(self, cert: Certificate) -> None:
        """Raise unless every link verifies and terminates at the anchor."""
        now = self.clock()
        with self._lock:
            exp = self._chain_cache.get(cert.kl_name)
        if exp is not None and now < exp:
            return
        chain_expiry = float("inf")
        seen: set[Name] = set()
        current = cert
        while True:
            if current.kl_name in seen:
                raise ValidationError(f"certificate loop at {current.kl_name}")
            seen.add(current.kl_name)
            if not (current.not_before <= now <= current.not_after):
                raise ValidationError(f"certificate {current.kl_name} outside validity window")
            chain_expiry = min(chain_expiry, current.not_after)
            issuer = self.resolve(current.issuer_kl)
            if not verify_bytes(issuer.scheme, issuer.public_key, current.signing_input(), current.signature):
                raise ValidationError(f"bad issuer signature on {current.kl_name}")
            if current.kl_name != self.anchor.kl_name:
                issuer_info = issuer.info
                subject_tenant = tenant_of_did(current.info.did)
                if issuer.kl_name != self.anchor.kl_name and issuer_info.did != subject_tenant:
                    raise ValidationError(
                        f"{current.kl_name} issued by {issuer.kl_name}, not its tenant {subject_tenant}"
                    )
            if issuer.kl_name == current.kl_name:  # self-signed: must be the anchor
                if current.kl_name != self.anchor.kl_name or current.signature != self.anchor.signature:
                    raise ValidationError(f"self-signed non-anchor certificate {current.kl_name}")
                break
            current = issuer
        with self._lock:
            self._chain_cache[cert.kl_name] = min(chain_expiry, now + 60.0)

    def chain_tenant(self, cert: Certificate) -> str:
        """Identity of the certificate directly under the anchor (the tenant)."""
        current = cert
        while current.issuer_kl != self.anchor.kl_name:
            current = self.resolve(current.issuer_kl)
            if current.kl_name == self.anchor.kl_name:
                break
        return current.info.did

    def _signer_certificate(self, pkt: InterestPacket | DataPacket) -> Certificate:
        """The certificate the packet names, its chain checked now; not the signature."""
        if pkt.signature is None or pkt.key_locator is None:
            kind = "interest" if isinstance(pkt, InterestPacket) else "data"
            raise ValidationError(f"unsigned {kind} {pkt.name}")
        cert = self.resolve(pkt.key_locator)
        self.ensure_chain(cert)
        return cert

    def verify_interest(self, pkt: InterestPacket) -> Certificate:
        cert = self._signer_certificate(pkt)
        if not verify_packet(pkt, cert):
            raise ValidationError(f"bad signature on interest {pkt.name}")
        return cert

    def verify_data(self, pkt: DataPacket, memo: VerifiedMemo | None = None) -> Certificate:
        """The signer's certificate; raises unless chain and signature hold.

        With a memo, only the signature check may be skipped: the certificate,
        its chain and its validity window are checked on every call.
        """
        cert = self._signer_certificate(pkt)
        if not verify_packet(pkt, cert, memo):
            raise ValidationError(f"bad signature on data {pkt.name}")
        return cert


# --- access control decision table -------------------------------------------


class AccessOp(Enum):
    INSERT = "I"
    QUERY = "Q"
    DELETE = "D"


@dataclass(frozen=True, slots=True)
class AccessDecision:
    operation: AccessOp
    allow: bool
    reason: str


def _target_ids(op: AccessOp, target: Name) -> tuple[str, str | None]:
    """(did, uid) named by the target; uid is None for queries.

    Raises NameSchemeError for a target outside the schemes of `naming`.
    """
    if op is AccessOp.QUERY:
        if DATA_MARK in target.components:  # an object read by a batch fetch
            return parse_object_name(target).did, None
        return parse_tile_query_name(target).did, None
    info = parse_object_name(target)  # the object inserted or deleted
    return info.did, info.uid


def check_access(op: AccessOp, target_name: Name, kl_name: Name) -> AccessDecision:
    """Pure decision: insert/delete need did+uid equality and rw; query needs
    did equality and r or rw."""
    try:
        kl = parse_key_locator(kl_name)
        did, uid = _target_ids(op, target_name)
    except NameSchemeError as exc:
        raise ValidationError(str(exc)) from None
    if did != kl.did:
        return AccessDecision(op, False, f"data-set mismatch: {did} vs {kl.did}")
    if op is AccessOp.QUERY:
        return AccessDecision(op, True, "data-set match, read permitted")
    if uid != kl.uid:
        return AccessDecision(op, False, f"owner mismatch: {uid} vs {kl.uid}")
    if kl.permission != "rw":
        return AccessDecision(op, False, "write permission required")
    return AccessDecision(op, True, "owner match with write permission")


# --- certificate repo --------------------------------------------------------


def serve_certificates(producer, certs: dict[Name, Certificate]) -> None:
    """Publish certificates under CERT/... as ordinary content."""
    from geoshard.icn.producer import ProducerReply

    def handler(base: Name, interest) -> ProducerReply | None:
        cert = certs.get(base)
        if cert is None:
            return None
        return ProducerReply(encode_certificate(cert), freshness_ms=3_600_000)

    producer.serve(Name((CERT_ROOT,)), handler)


def repo_fetcher(consumer, lifetime_ms: int = 2000) -> Callable[[Name], bytes]:
    return lambda kl: consumer.get(kl, lifetime_ms=lifetime_ms, retries=1)
