"""The forwarding engine: FIB longest-prefix match and PIT aggregation.

A forwarder keeps no content store: every Interest that is not aggregated
in the PIT goes upstream, so each reply comes from its producer.

State mutation is serialized under one lock per forwarder; packet
transmission happens outside the lock on the calling thread, so producers
attached downstream can take their time without stalling unrelated traffic
through the same node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from geoshard.icn.clock import system_clock
from geoshard.icn.faces import Face
from geoshard.icn.names import Name
from geoshard.icn.packets import DataPacket, InterestPacket, Packet


def longest_prefix_match(fib: dict[Name, set[int]], name: Name) -> set[int]:
    """Faces of the FIB entry with the most matching leading components."""
    for plen in range(len(name), -1, -1):
        entry = fib.get(name.prefix(plen))
        if entry:
            return set(entry)
    return set()


@dataclass
class ForwarderStats:
    interests_in: int = 0
    data_in: int = 0
    upstream_interests: int = 0
    downstream_data: int = 0
    # no content store is left to hit, so this stays 0; the bench's counter
    # reader (bench/geobench/runner.py) still reads it
    cs_hits: int = 0
    pit_aggregated: int = 0
    no_route_drops: int = 0
    unsolicited_drops: int = 0
    duplicate_nonce_drops: int = 0


@dataclass
class _PitEntry:
    downstream: set[int] = field(default_factory=set)
    nonces: set[int] = field(default_factory=set)
    expiry: float = 0.0


class Forwarder:
    """A single forwarding node."""

    def __init__(self, label: str = "fwd", clock: Callable[[], float] = system_clock):
        self.label = label
        self.clock = clock
        self.fib: dict[Name, set[int]] = {}
        self.pit: dict[Name, _PitEntry] = {}
        self.stats = ForwarderStats()
        self._lock = threading.RLock()
        self._faces: dict[int, Face] = {}
        self._next_face = 1
        self._dead_nonces: dict[tuple[Name, int], float] = {}

    # --- faces and routes ----------------------------------------------

    def add_face(self, face: Face) -> int:
        with self._lock:
            fid = self._next_face
            self._next_face += 1
            self._faces[fid] = face
        face.on_receive = lambda pkt, fid=fid: self.handle(fid, pkt)
        return fid

    def advertise(self, prefix: Name, face_id: int) -> None:
        """Add a route; registering the same (prefix, face) twice is a no-op."""
        with self._lock:
            self.fib.setdefault(prefix, set()).add(face_id)

    # --- packet handling -------------------------------------------------

    def handle(self, face_id: int, pkt: Packet) -> None:
        if isinstance(pkt, InterestPacket):
            actions = self._process_interest(face_id, pkt)
        elif isinstance(pkt, DataPacket):
            actions = self._process_data(face_id, pkt)
        else:
            return
        for out_fid, out_pkt in actions:
            face = self._faces.get(out_fid)
            if face is not None:
                face.send(out_pkt)

    def _purge(self, now: float) -> None:
        expired = [n for n, e in self.pit.items() if e.expiry <= now]
        for n in expired:
            del self.pit[n]
        if len(self._dead_nonces) > 4096:
            self._dead_nonces = {k: v for k, v in self._dead_nonces.items() if v > now}

    def _process_interest(self, face_id: int, pkt: InterestPacket) -> list[tuple[int, Packet]]:
        with self._lock:
            now = self.clock()
            self.stats.interests_in += 1
            self._purge(now)
            key = (pkt.name, pkt.nonce)
            if self._dead_nonces.get(key, 0.0) > now:
                self.stats.duplicate_nonce_drops += 1
                return []
            entry = self.pit.get(pkt.name)
            if entry is not None:
                entry.downstream.add(face_id)
                entry.nonces.add(pkt.nonce)
                self.stats.pit_aggregated += 1
                return []
            upstream = longest_prefix_match(self.fib, pkt.name) - {face_id}
            if not upstream:
                self.stats.no_route_drops += 1
                return []
            out_fid = min(upstream)  # best-route: deterministic first face
            entry = _PitEntry({face_id}, {pkt.nonce}, now + pkt.lifetime_ms / 1000.0)
            self.pit[pkt.name] = entry
            self._dead_nonces[key] = now + pkt.lifetime_ms / 1000.0
            self.stats.upstream_interests += 1
            return [(out_fid, pkt)]

    def _process_data(self, face_id: int, pkt: DataPacket) -> list[tuple[int, Packet]]:
        with self._lock:
            now = self.clock()
            self.stats.data_in += 1
            self._purge(now)
            entry = self.pit.pop(pkt.name, None)
            if entry is None:
                self.stats.unsolicited_drops += 1
                return []
            targets = sorted(entry.downstream - {face_id})
            self.stats.downstream_data += len(targets)
            return [(fid, pkt) for fid in targets]
