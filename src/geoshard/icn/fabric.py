"""Topology assembly: forwarders, links, endpoint attachment."""

from __future__ import annotations

from typing import Callable

from geoshard.icn.clock import system_clock
from geoshard.icn.faces import Face, face_pair
from geoshard.icn.forwarder import Forwarder
from geoshard.icn.packets import Packet


class Fabric:
    """Builds in-process topologies of forwarders and endpoints."""

    def __init__(self, clock: Callable[[], float] = system_clock):
        self.clock = clock
        self.forwarders: list[Forwarder] = []

    def forwarder(self, label: str, cs_capacity: int = 0) -> Forwarder:
        fwd = Forwarder(label, clock=self.clock, cs_capacity=cs_capacity)
        self.forwarders.append(fwd)
        return fwd

    def link(
        self,
        a: Forwarder,
        b: Forwarder,
        loss_to_a: Callable[[Packet], bool] | None = None,
        loss_to_b: Callable[[Packet], bool] | None = None,
    ) -> tuple[int, int]:
        """Connect two forwarders; returns (face id on a, face id on b)."""
        fa, fb = face_pair(f"{a.label}<->{b.label}", loss_to_a=loss_to_a, loss_to_b=loss_to_b)
        return a.add_face(fa), b.add_face(fb)

    def attach(
        self,
        fwd: Forwarder,
        label: str,
        loss_to_endpoint: Callable[[Packet], bool] | None = None,
        loss_to_forwarder: Callable[[Packet], bool] | None = None,
    ) -> tuple[Face, int]:
        """Attach an endpoint; returns (endpoint-side face, face id on fwd)."""
        fwd_side, ep_side = face_pair(
            f"{fwd.label}<->{label}",
            loss_to_b=loss_to_endpoint,
            loss_to_a=loss_to_forwarder,
        )
        fid = fwd.add_face(fwd_side)
        return ep_side, fid
