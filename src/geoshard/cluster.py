"""Cluster assembly: wire engines, filter server, cert repo and front-ends.

The default deployment is fully in-process (deterministic, desk scale): one
router forwarder, one forwarder per engine (where the engine-side content
store lives), endpoint faces for producers and consumers. Optional TCP
listeners expose the bulk-insert stream, the front-end JSON service, and a
packet-level face server for external consumers.

Configuration is an INI file (key-value, human readable); its schema is in
the docstring of :func:`parse_cluster_config`.
"""

from __future__ import annotations

import configparser
import functools
import logging
from dataclasses import dataclass, field
from typing import Callable

from geoshard.bloom import bf_params
from geoshard.bloomsvc import SERVER_UID, BloomClient, BloomFilterServer
from geoshard.engine import (
    BulkInsertClient,
    BulkInsertServer,
    DatabaseEngine,
    EngineConfig,
)
from geoshard.frontend import Frontend, FrontendService
from geoshard.geogrid import TileId
from geoshard.icn.clock import system_clock
from geoshard.icn.consumer import Consumer
from geoshard.icn.fabric import Fabric
from geoshard.icn.faces import TcpFaceServer
from geoshard.icn.names import Name
from geoshard.icn.producer import Producer
from geoshard.naming import BF_PREFIX, CERT_ROOT, SYSTEM_DID, route_prefix
from geoshard.trust import (
    Identity,
    SCHEME_ED25519,
    SCHEME_HMAC,
    Validator,
    interest_signer,
    issue,
    make_anchor,
    repo_fetcher,
    serve_certificates,
)

log = logging.getLogger(__name__)

# engines are certified as sys/<node>, beside the anchor (sys/admin) and the
# Bloom server (sys/bf-server); an engine with one of these names would
# replace a system certificate
RESERVED_NODES = frozenset({"admin", SERVER_UID})


@dataclass
class UserSpec:
    tid: str
    cid: str
    uid: str
    permission: str = "rw"


@dataclass
class ClusterSpec:
    engines: dict[str, list[TileId]]
    tenants: dict[str, list[str]] = field(default_factory=dict)  # tid -> collections
    users: list[UserSpec] = field(default_factory=list)
    frontends: list[str] = field(default_factory=lambda: ["fe1"])
    scheme: int = SCHEME_ED25519
    bf_enabled: bool = True
    bf_capacity: int = 10_000
    bf_fp_rate: float = 0.01
    qdata_freshness_ms: int = 0
    engine_cs_capacity: int = 0
    bulk_tcp: bool = False
    fe_lifetime_ms: int = 2000
    fe_retries: int = 2
    face_port: int | None = None  # packet-level TCP face server on the router
    service_port: int | None = None  # front-end JSON service
    routes: list[tuple[Name, str]] = field(default_factory=list)  # static overrides

    def __post_init__(self):
        reserved = RESERVED_NODES.intersection(self.engines)
        if reserved:
            raise ValueError(f"reserved node names cannot name engines: {sorted(reserved)}")


class _InprocBulk:
    def __init__(self, engine: DatabaseEngine):
        self.engine = engine

    def insert(self, packets):
        return self.engine.bulk_insert(packets)


@dataclass
class EngineNode:
    engine: DatabaseEngine
    forwarder: object
    bulk_server: BulkInsertServer | None


class Cluster:
    """A running cluster plus its key material."""

    def __init__(self, spec: ClusterSpec, clock: Callable[[], float] = system_clock):
        self.spec = spec
        self.clock = clock
        self.fabric = Fabric(clock=clock)
        self.router = self.fabric.forwarder("router")
        self._closers: list[Callable[[], None]] = []

        # --- key material ----------------------------------------------------
        self.anchor = make_anchor(scheme=spec.scheme)
        self.certs = {self.anchor.cert.kl_name: self.anchor.cert}
        self.tenant_ids: dict[str, Identity] = {}
        for tid in spec.tenants:
            self.tenant_ids[tid] = self._issue(self.anchor, tid, tid, "rw")
        self.user_ids: dict[tuple[str, str, str], Identity] = {}
        for u in spec.users:
            self.user_ids[(u.tid, u.cid, u.uid)] = self._issue(
                self.tenant_ids[u.tid], f"{u.tid}.{u.cid}", u.uid, u.permission
            )
        self.engine_ids: dict[str, Identity] = {
            node: self._issue(self.anchor, SYSTEM_DID, node, "rw") for node in spec.engines
        }
        self.bf_identity = self._issue(self.anchor, SYSTEM_DID, SERVER_UID, "rw")

        # --- certificate repo --------------------------------------------------
        repo_face, repo_fid = self.fabric.attach(self.router, "cert-repo")
        self.router.advertise(Name((CERT_ROOT,)), repo_fid)
        serve_certificates(Producer(repo_face, "cert-repo"), self.certs)

        def validator() -> Validator:
            face, _ = self.fabric.attach(self.router, "validator")
            v = Validator(self.anchor.cert, clock=clock, fetch=repo_fetcher(Consumer(face)))
            return v

        self._mh = bf_params(spec.bf_capacity, spec.bf_fp_rate)

        # --- bloom filter server ------------------------------------------------
        self.bloom_server: BloomFilterServer | None = None
        if spec.bf_enabled:
            self.bloom_server = BloomFilterServer(
                *self._mh, set(spec.engines), validator(), self.bf_identity
            )
            bf_face, bf_fid = self.fabric.attach(self.router, "bf-server")
            self.router.advertise(BF_PREFIX, bf_fid)
            self.bloom_server.attach(Producer(bf_face, "bf-server"))

        # --- engines ---------------------------------------------------------------
        self.engines: dict[str, EngineNode] = {}
        self._engine_faces = {}
        for node, tiles in spec.engines.items():
            self.engines[node] = self._build_engine(node, tiles, validator())

        # --- front-ends ---------------------------------------------------------------
        self.frontends: dict[str, Frontend] = {}
        for fe_name in spec.frontends:
            self.frontends[fe_name] = self._build_frontend(fe_name, validator())

        # --- optional TCP surfaces -----------------------------------------------------
        self.face_server = None
        if spec.face_port is not None:
            self.face_server = TcpFaceServer(
                "0.0.0.0", spec.face_port, on_face=lambda f: self.router.add_face(f)
            )
            self._closers.append(self.face_server.close)
        self.services: dict[str, FrontendService] = {}
        if spec.service_port is not None:
            port = spec.service_port
            for fe_name, fe in self.frontends.items():
                svc = FrontendService(fe, "0.0.0.0", port)
                self.services[fe_name] = svc
                self._closers.append(svc.close)
                port = 0 if port == 0 else port + 1

        # --- static route overrides -------------------------------------------------
        for prefix, node in spec.routes:
            fid = self._engine_faces[node]
            self.router.advertise(prefix, fid)

    # ------------------------------------------------------------------------------

    def _issue(self, issuer: Identity, did: str, uid: str, perm: str) -> Identity:
        ident = issue(issuer, did, uid, perm)
        self.certs[ident.cert.kl_name] = ident.cert
        return ident

    _engine_faces: dict[str, int]

    def _build_engine(self, node: str, tiles: list[TileId], validator: Validator) -> EngineNode:
        spec = self.spec
        fwd = self.fabric.forwarder(f"fwd-{node}", cs_capacity=spec.engine_cs_capacity)
        router_fid, engine_fid = self.fabric.link(self.router, fwd)
        cfg = EngineConfig(
            node_id=node,
            tiles=tuple(tiles),
            qdata_freshness_ms=spec.qdata_freshness_ms,
            bf_params=self._mh if spec.bf_enabled else None,
        )
        engine = DatabaseEngine(cfg, self.engine_ids[node], validator, clock=self.clock)
        prod_face, prod_fid = self.fabric.attach(fwd, f"engine-{node}")
        engine.attach(Producer(prod_face, f"engine-{node}"))
        for prefix in engine.route_prefixes():
            self.router.advertise(prefix, router_fid)
            fwd.advertise(prefix, prod_fid)
        bulk_server = None
        if spec.bulk_tcp:
            bulk_server = BulkInsertServer(engine)
            cfg.bulk_endpoint = bulk_server.endpoint
            self._closers.append(bulk_server.close)
        else:
            cfg.bulk_endpoint = f"inproc:{node}"
        if spec.bf_enabled:
            bf_face, _ = self.fabric.attach(fwd, f"bf-client-{node}")
            fwd.advertise(BF_PREFIX, engine_fid)
            client = BloomClient(
                Consumer(bf_face), interest_signer(self.engine_ids[node]), validator
            )
            engine.bf_publish = functools.partial(client.publish, node)
        self._engine_faces[node] = router_fid
        return EngineNode(engine, fwd, bulk_server)

    def _build_frontend(self, fe_name: str, validator: Validator) -> Frontend:
        spec = self.spec
        face, _ = self.fabric.attach(self.router, fe_name)
        consumer = Consumer(face, fe_name)
        bf_client = None
        if spec.bf_enabled:
            bf_face, _ = self.fabric.attach(self.router, f"{fe_name}-bf")
            bf_client = BloomClient(
                Consumer(bf_face), interest_signer(self._default_user()), validator
            )
        return self._closing(Frontend(
            consumer,
            self._default_user(),
            validator,
            bulk_connect=self._bulk_connect,
            bf_client=bf_client,
            clock=self.clock,
            lifetime_ms=spec.fe_lifetime_ms,
            retries=spec.fe_retries,
        ))

    def _closing(self, fe: Frontend) -> Frontend:
        """`fe`, registered to be closed with the cluster."""
        self._closers.append(fe.close)
        return fe

    def _default_user(self) -> Identity:
        if self.user_ids:
            return next(iter(self.user_ids.values()))
        return self.anchor

    def _bulk_connect(self, endpoint: str):
        if endpoint.startswith("inproc:"):
            return _InprocBulk(self.engines[endpoint.split(":", 1)[1]].engine)
        return BulkInsertClient(endpoint)

    # --- conveniences -------------------------------------------------------------

    def frontend(self, name: str | None = None) -> Frontend:
        if name is None:
            name = self.spec.frontends[0]
        return self.frontends[name]

    def frontend_as(self, tid: str, cid: str, uid: str, fe_name: str | None = None) -> Frontend:
        """A front-end bound to a specific user's credentials; closed with the cluster."""
        base = self.frontend(fe_name)
        user = self.user_ids[(tid, cid, uid)]
        face, _ = self.fabric.attach(self.router, f"fe-{uid}")
        return self._closing(Frontend(
            Consumer(face, f"fe-{uid}"),
            user,
            base.validator,
            bulk_connect=self._bulk_connect,
            bf_client=base.bf_client,
            clock=self.clock,
            lifetime_ms=self.spec.fe_lifetime_ms,
            retries=self.spec.fe_retries,
        ))

    def engine(self, node: str) -> DatabaseEngine:
        return self.engines[node].engine

    def close(self) -> None:
        """Run every closer, the front-ends' among them, in the order they were
        registered; one that fails is logged and the rest still run."""
        for closer in self._closers:
            try:
                closer()
            except Exception:
                name = getattr(closer, "__qualname__", repr(closer))
                log.warning("cluster close: %s failed", name, exc_info=True)


# --- configuration files ------------------------------------------------------


def _parse_tile(token: str) -> TileId:
    lng, lat = token.strip().split("/")
    return TileId.at(0, int(lng), int(lat))


def parse_cluster_config(path: str) -> ClusterSpec:
    """INI schema:

    [cluster]         scheme=ed25519|hmac, bf_enabled, bf_capacity, bf_fp_rate,
                      qdata_freshness_ms, engine_cs_capacity,
                      bulk_tcp, face_port, service_port, frontends=fe1,fe2
    [engine.<id>]     tiles=12/41, 13/41
    [tenant.<tid>]    collections=poi,bus
    [user.<uid>]      tid=..., cid=..., permission=rw|r
    [routes]          /OGB/12/41 = <engine-id>     (static overrides)
    """
    cp = configparser.ConfigParser(delimiters=("=",))
    cp.optionxform = str  # route prefixes are case sensitive
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    cl = cp["cluster"] if "cluster" in cp else {}
    engines: dict[str, list[TileId]] = {}
    tenants: dict[str, list[str]] = {}
    users: list[UserSpec] = []
    routes: list[tuple[Name, str]] = []
    for section in cp.sections():
        if section.startswith("engine."):
            node = section.split(".", 1)[1]
            engines[node] = [_parse_tile(t) for t in cp[section]["tiles"].split(",")]
        elif section.startswith("tenant."):
            tid = section.split(".", 1)[1]
            tenants[tid] = [c.strip() for c in cp[section].get("collections", "default").split(",")]
        elif section.startswith("user."):
            uid = section.split(".", 1)[1]
            users.append(
                UserSpec(
                    cp[section]["tid"],
                    cp[section].get("cid", "default"),
                    uid,
                    cp[section].get("permission", "rw"),
                )
            )
        elif section == "routes":
            for prefix, node in cp[section].items():
                routes.append((Name.parse(prefix), node))
    if not engines:
        raise ValueError(f"{path}: no [engine.*] sections")
    scheme = {"ed25519": SCHEME_ED25519, "hmac": SCHEME_HMAC}[
        str(cl.get("scheme", "ed25519")).lower()
    ]
    face_port = cl.get("face_port")
    service_port = cl.get("service_port")
    return ClusterSpec(
        engines=engines,
        tenants=tenants,
        users=users,
        frontends=[f.strip() for f in str(cl.get("frontends", "fe1")).split(",")],
        scheme=scheme,
        bf_enabled=str(cl.get("bf_enabled", "true")).lower() in ("1", "true", "yes"),
        bf_capacity=int(cl.get("bf_capacity", 10_000)),
        bf_fp_rate=float(cl.get("bf_fp_rate", 0.01)),
        qdata_freshness_ms=int(cl.get("qdata_freshness_ms", 0)),
        engine_cs_capacity=int(cl.get("engine_cs_capacity", 0)),
        bulk_tcp=str(cl.get("bulk_tcp", "false")).lower() in ("1", "true", "yes"),
        face_port=int(face_port) if face_port else None,
        service_port=int(service_port) if service_port else None,
        routes=routes,
    )
