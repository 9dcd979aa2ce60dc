"""Bloom filter server: batched membership answers, per-engine bucket tracking.

Engines publish 0->1 / 1->0 bucket transitions as signed Interests under
/OGB/BF/update. The server keeps, per bucket, the set of engines asserting
it, so a bit only clears once every engine that set it has reported its
1->0 transition (plain OR messages would clear too eagerly with multiple
engines). Membership requests arrive under /OGB/BF/member with the item
batch in the Interest application parameters, 1024 items at most. A
membership reply is used only when the server's `sys/bf-server` certificate
signed it and it carries one bit per item asked.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable

from geoshard.bloom import (
    bf_key,
    bucket_indices,
    decode_bf_update,
    decode_membership_request,
    decode_membership_response,
    encode_bf_update,
    encode_membership_request,
    encode_membership_response,
)
from geoshard.icn.names import Name
from geoshard.icn.packets import DataPacket, InterestPacket
from geoshard.icn.producer import Producer, ProducerReply
from geoshard.naming import BF_MEMBER_PREFIX, BF_UPDATE_PREFIX, SYSTEM_DID
from geoshard.trust import Identity, ValidationError, Validator, data_signer

log = logging.getLogger(__name__)

MAX_BATCH = 1024
SERVER_UID = "bf-server"  # the filter server's certificate is sys/bf-server


class BloomFilterServer:
    def __init__(
        self,
        m: int,
        h: int,
        engine_ids: set[str],
        validator: Validator,
        identity: Identity,
    ):
        self.m, self.h = m, h
        self.engine_ids = set(engine_ids)
        self.validator = validator
        self._sign = data_signer(identity)
        self._lock = threading.Lock()
        self._bucket_engines: dict[int, set[str]] = {}
        self.updates_applied = 0
        self.updates_dropped = 0
        self.malformed_requests = 0  # membership requests without a decodable item batch

    # --- state ---------------------------------------------------------------

    def bit(self, idx: int) -> bool:
        with self._lock:
            return idx in self._bucket_engines

    def membership(self, items: list[tuple[str, str, str]]) -> list[bool]:
        """Per item (tile-prefix uri, tid, cid): all hashed buckets set?"""
        out = []
        with self._lock:
            for prefix_uri, tid, cid in items:
                idxs = bucket_indices(bf_key(prefix_uri, tid, cid), self.m, self.h)
                out.append(all(i in self._bucket_engines for i in idxs))
        return out

    def apply_update(self, engine_id: str, direction: int, buckets: list[int]) -> None:
        with self._lock:
            if direction == 0:  # bucket went above zero on this engine
                for b in buckets:
                    self._bucket_engines.setdefault(b, set()).add(engine_id)
            else:  # bucket reached zero on this engine
                for b in buckets:
                    engines = self._bucket_engines.get(b)
                    if engines is not None:
                        engines.discard(engine_id)
                        if not engines:
                            del self._bucket_engines[b]
            self.updates_applied += 1

    # --- fabric endpoints ------------------------------------------------------

    def attach(self, producer: Producer) -> None:
        producer.serve(BF_MEMBER_PREFIX, self._on_member)
        producer.serve(BF_UPDATE_PREFIX, self._on_update)

    def _on_member(self, base: Name, interest: InterestPacket):
        try:
            items = decode_membership_request(interest.app_params or b"")
        except Exception as exc:
            with self._lock:
                self.malformed_requests += 1
            log.debug("malformed membership request %s: %s", base, exc)
            return None
        if len(items) > MAX_BATCH:
            log.warning("membership batch of %d rejected (max %d)", len(items), MAX_BATCH)
            return None
        bits = self.membership(items)
        return ProducerReply(encode_membership_response(bits), freshness_ms=0, sign=self._sign)

    def _on_update(self, base: Name, interest: InterestPacket):
        # /OGB/BF/update/<engine-id>/<seq>
        if len(base) < len(BF_UPDATE_PREFIX) + 2 or interest.app_params is None:
            return None
        engine_id = base[len(BF_UPDATE_PREFIX)]
        try:
            cert = self.validator.verify_interest(interest)
            info = cert.info
            if info.did != SYSTEM_DID or info.uid != engine_id:
                raise ValidationError(f"update signed by {cert.kl_name}, named {engine_id}")
            if engine_id not in self.engine_ids:
                raise ValidationError(f"unknown engine {engine_id}")
        except ValidationError as exc:
            self.updates_dropped += 1
            log.debug("dropped BF update: %s", exc)
            return None
        direction, buckets = decode_bf_update(interest.app_params)
        self.apply_update(engine_id, direction, buckets)
        return ProducerReply(b"OK", freshness_ms=0, sign=self._sign)


class BloomClient:
    """Engine/frontend side helpers for talking to the server over the fabric.

    `validator` checks membership replies: signature, certificate chain and
    a signer that is the filter server.
    """

    def __init__(self, consumer, signer: Callable, validator: Validator, lifetime_ms: int = 2000):
        self.consumer = consumer
        self.sign = signer
        self.validator = validator
        self.lifetime_ms = lifetime_ms
        self._seq = 0
        self._lock = threading.Lock()

    def publish(self, engine_id: str, direction: int, buckets: list[int]) -> None:
        with self._lock:
            self._seq += 1
            seq = self._seq
        name = BF_UPDATE_PREFIX.append(engine_id, str(seq))
        self.consumer.get(
            name,
            lifetime_ms=self.lifetime_ms,
            retries=1,
            sign=self.sign,
            app_params=encode_bf_update(direction, buckets),
        )

    def _verify_reply(self, pkt: DataPacket) -> None:
        info = self.validator.verify_data(pkt).info
        if info.did != SYSTEM_DID or info.uid != SERVER_UID:
            raise ValidationError(f"membership reply {pkt.name} not signed by the filter server")

    def membership(self, items: list[tuple[str, str, str]]) -> list[bool]:
        """One bit per item; raises ValidationError on a reply that is not
        the server's or whose bit count differs from its item count."""
        bits: list[bool] = []
        with self._lock:
            self._seq += 1
            seq = self._seq
        for start in range(0, len(items), MAX_BATCH):
            chunk = items[start : start + MAX_BATCH]
            name = BF_MEMBER_PREFIX.append(str(seq), str(start))
            raw = self.consumer.get(
                name,
                lifetime_ms=self.lifetime_ms,
                retries=1,
                app_params=encode_membership_request(chunk),
                validate=self._verify_reply,
            )
            chunk_bits = decode_membership_response(raw)
            if len(chunk_bits) != len(chunk):
                raise ValidationError(
                    f"membership reply {name} has {len(chunk_bits)} bits for {len(chunk)} items"
                )
            bits.extend(chunk_bits)
        return bits
