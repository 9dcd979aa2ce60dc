"""Bloom filter primitives shared by engines and the filter server.

Engines and the server must hash identically ("the same buckets"), so bucket
derivation lives here: double hashing over SHA-256 of the key. Counting
filters use 4-bit saturating counters; a saturated counter is never
decremented, which preserves the no-false-void guarantee at the cost of a
permanently set bucket in the (astronomically unlikely) overflow case.
"""

from __future__ import annotations

import math
import struct
from hashlib import sha256

COUNTER_MAX = 15  # 4-bit counters


def bf_params(capacity: int, fp_rate: float) -> tuple[int, int]:
    """(m buckets, h hashes) for a target false-positive rate at capacity."""
    if capacity < 1 or not (0 < fp_rate < 1):
        raise ValueError("capacity must be >= 1 and 0 < fp_rate < 1")
    m = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
    h = max(1, round(m / capacity * math.log(2)))
    return m, h


def bucket_indices(key: str, m: int, h: int) -> list[int]:
    digest = sha256(key.encode()).digest()
    h1 = struct.unpack_from("!Q", digest, 0)[0]
    h2 = struct.unpack_from("!Q", digest, 8)[0] | 1
    return [(h1 + i * h2) % m for i in range(h)]


def bf_key(prefix_uri: str, tid: str, cid: str) -> str:
    """Buckets are keyed on the (tile-prefix, tenant, collection) triple."""
    return f"{prefix_uri}|{tid}|{cid}"


class CountingBloomFilter:
    """Counting filter; add/remove report the bucket transitions they caused."""

    def __init__(self, m: int, h: int):
        self.m, self.h = m, h
        self.counters = bytearray(m)

    def add(self, key: str) -> list[int]:
        """Increment the key's buckets; returns indices that went 0 -> 1."""
        ups = []
        for idx in set(bucket_indices(key, self.m, self.h)):
            if self.counters[idx] == 0:
                ups.append(idx)
            if self.counters[idx] < COUNTER_MAX:
                self.counters[idx] += 1
        return ups

    def remove(self, key: str) -> list[int]:
        """Decrement the key's buckets; returns indices that went 1 -> 0."""
        downs = []
        for idx in set(bucket_indices(key, self.m, self.h)):
            c = self.counters[idx]
            if c == 0:
                continue  # never drive a counter negative
            if c == COUNTER_MAX:
                continue  # sticky saturation
            self.counters[idx] = c - 1
            if c == 1:
                downs.append(idx)
        return downs

    def __contains__(self, key: str) -> bool:
        return all(self.counters[i] > 0 for i in bucket_indices(key, self.m, self.h))


# --- membership request/response wire format ---------------------------------


def encode_membership_request(items: list[tuple[str, str, str]]) -> bytes:
    out = [struct.pack("!H", len(items))]
    for prefix_uri, tid, cid in items:
        for field in (prefix_uri, tid, cid):
            raw = field.encode()
            out.append(struct.pack("!H", len(raw)))
            out.append(raw)
    return b"".join(out)


def decode_membership_request(raw: bytes) -> list[tuple[str, str, str]]:
    (count,) = struct.unpack_from("!H", raw, 0)
    pos = 2
    items = []
    for _ in range(count):
        fields = []
        for _ in range(3):
            (ln,) = struct.unpack_from("!H", raw, pos)
            pos += 2
            fields.append(raw[pos : pos + ln].decode())
            pos += ln
        items.append(tuple(fields))
    return items


def encode_membership_response(bits: list[bool]) -> bytes:
    out = bytearray(struct.pack("!H", len(bits)))
    byte = 0
    for i, bit in enumerate(bits):
        if bit:
            byte |= 1 << (i % 8)
        if i % 8 == 7:
            out.append(byte)
            byte = 0
    if len(bits) % 8:
        out.append(byte)
    return bytes(out)


def decode_membership_response(raw: bytes) -> list[bool]:
    (count,) = struct.unpack_from("!H", raw, 0)
    bits = []
    for i in range(count):
        byte = raw[2 + i // 8]
        bits.append(bool(byte & (1 << (i % 8))))
    return bits


def encode_bf_update(direction: int, buckets: list[int]) -> bytes:
    return struct.pack("!BH", direction, len(buckets)) + b"".join(
        struct.pack("!I", b) for b in buckets
    )


def decode_bf_update(raw: bytes) -> tuple[int, list[int]]:
    direction, count = struct.unpack_from("!BH", raw, 0)
    buckets = [struct.unpack_from("!I", raw, 3 + 4 * i)[0] for i in range(count)]
    return direction, buckets
