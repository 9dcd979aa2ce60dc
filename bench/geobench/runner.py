"""One benchmark run: set-up, closed-loop timed phase, checks and report.

Load model: closed loop, one client thread in one process; each call into
the front-end waits for its reply before the next op is sent. The
front-end's own fan-out pool is part of the program.
"""

from __future__ import annotations

import gc
import gzip
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from geoshard.cluster import Cluster
from geoshard.frontend import RangeQuery
from geoshard.icn.packets import encode_packet

from geobench.layers import Metric, exact_counts, layer_metrics
from geobench.oracle import LiveSet
from geobench.tracing import Instrumentation, Tracer
from geobench.workloads import (
    K,
    USER,
    InsertOp,
    QueryOp,
    Workload,
    cluster_spec,
    features,
    operations,
)

# Metric names the final JSON line carries; BENCHMARK.json lists the same.
END_TO_END = (
    "setup_s",
    "ops_per_s",
    "query_p50_ms",
    "stored_bytes_per_user_byte",
    "peak_rss_mb",
)
PER_LAYER = (
    "tessellate.ms_per_query",
    "tessellate.tiles_per_query",
    "tessellate.periods_per_query",
    "bloomsvc.publish_ms_per_write",
    "bloomsvc.fallbacks",
    "bloomsvc.updates_applied",
    "bloomsvc.updates_dropped",
    "frontend.fanout_ms_per_query",
    "frontend.subqueries_per_query",
    "frontend.postfilter_ms_per_query",
    "frontend.postfilter_share",
    "frontend.master_fetches_per_query",
    "frontend.decoded_per_returned",
    "frontend.ipres_lookups_per_insert",
    "icn.consumer_gets_per_query",
    "icn.segments_per_get",
    "icn.interests_per_query",
    "icn.forwarder_self_ms_per_query",
    "icn.decode_ms_per_query",
    "icn.encode_ms_per_subquery",
    "icn.retransmissions",
    "icn.timeouts",
    "icn.no_route_drops",
    "icn.pit_aggregated",
    "icn.cs_hits",
    "engine.tile_query_self_ms",
    "engine.rows_per_subquery",
    "engine.qdata_hit_ratio",
    "engine.bulk_insert_ms_per_row",
    "engine.qdata_invalidations_per_write",
    "engine.denied",
    "trust.verify_per_query",
    "trust.verify_ms_per_query",
    "trust.sign_per_query",
    "trust.sign_ms_per_query",
    "trust.sign_ms_per_insert",
    "trust.verify_ms_per_insert",
    "trust.cert_fetches",
    "objects.build_ms_per_insert",
    "objects.rows_per_insert",
    "trace.overhead_ratio",
    "counts.subqueries",
    "counts.master_fetches",
    "counts.verify_calls",
    "counts.sign_calls",
    "counts.qdata_hits",
    "counts.preload_rows",
)
SETUPS = 3  # set-ups per untraced run; setup_s is their median
COUNT_OPS = 20  # the exact counts cover the preload and this many timed ops
MAX_LISTED_FAILURES = 50


@dataclass
class Phase:
    """Outcome of one closed-loop timed phase."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"query": [], "insert": [], "delete": []}
    )
    durations: list[float] = field(default_factory=list)  # every op that returned, in order
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / self.busy_s if self.busy_s else 0.0

    def block_rates(self, block: int) -> list[float]:
        """Ops per second of call time in each run of `block` consecutive returned ops."""
        return [
            block / sum(self.durations[i : i + block])
            for i in range(0, len(self.durations) - block + 1, block)
        ]

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append(text)


def _op(tracer: Tracer | None, kind: str):
    return tracer.op(kind) if tracer is not None else nullcontext()


def build(w: Workload, preload: list[dict], tracer: Tracer | None = None):
    """Cluster build plus preload; returns (cluster, front-end, seconds, live set)."""
    t0 = time.perf_counter()
    cluster = Cluster(cluster_spec(w))
    fe = cluster.frontend()
    rows = []
    for f in preload:
        with _op(tracer, "preload"):
            report = fe.insert(f)
        if not report.ok:
            raise RuntimeError(f"preload insert of {report.oid} failed: {report.statuses}")
        rows.append(len(report.statuses))
    seconds = time.perf_counter() - t0
    live = LiveSet()
    for f, n in zip(preload, rows):
        live.add(f, n)
    return cluster, fe, seconds, live


def timed_phase(w: Workload, seed: int, fe, live: LiveSet, pool: list[dict],
                seconds: float, tracer: Tracer | None = None) -> Phase:
    """Closed loop over the seeded op stream until `seconds` have passed.

    Latency covers the front-end call only; the oracle check runs after it.
    """
    phase = Phase()
    ops = operations(w, seed, live, pool)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(ops)
        n = phase.attempted
        phase.attempted += 1
        if isinstance(op, QueryOp):
            kind = "query"
            q = RangeQuery(op.box, w.tid, w.cid, mode=op.mode, interval=op.interval,
                           k=K, use_bf=w.use_bf)
            call = lambda: fe.range_query(q)  # noqa: E731
        elif isinstance(op, InsertOp):
            kind = "insert"
            call = lambda: fe.insert(op.feature)  # noqa: E731
        else:
            kind = "delete"
            geometry = live.feature(op.oid)["geometry"]
            call = lambda: fe.delete(op.oid, w.tid, w.cid, USER, geometry)  # noqa: E731
        try:
            with _op(tracer, kind):
                t0 = time.perf_counter()
                out = call()
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            phase.fail(f"op {n} {kind} {op}: {type(exc).__name__}: {exc}")
            continue
        phase.latencies[kind].append(elapsed)
        phase.durations.append(elapsed)
        if kind == "query":
            got = [f.oid for f in out.objects]
            want = live.expected(op.box, op.mode, op.interval)
            if len(got) != len(set(got)) or set(got) != want:
                missing = sorted(want - set(got))
                extra = sorted(set(got) - want)
                phase.fail(
                    f"op {n} query mismatch box=({op.box.min.lng}, {op.box.min.lat}, "
                    f"{op.box.max.lng}, {op.box.max.lat}) mode={op.mode} "
                    f"interval={op.interval}: missing {missing} extra {extra} "
                    f"returned {len(got)} (distinct {len(set(got))})"
                )
        elif kind == "insert":
            if not out.ok or len(out.statuses) < 3:
                phase.fail(f"op {n} insert {out.oid} report not ok: {out.statuses}")
            else:
                live.add(op.feature, len(out.statuses))
        else:
            rows = live.rows(op.oid)
            statuses = [s for _, s in out.per_tile]
            if not out.ok or len(statuses) != rows:
                phase.fail(f"op {n} delete {op.oid} expected {rows} OK rows, got {statuses}")
            live.remove(op.oid)
    return phase


def percentile_line(samples: list[float]) -> tuple[float, float | None, int]:
    """(p50, p90 or None, samples above p90); p90 needs ten samples above it."""
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    rank = math.ceil(0.9 * len(ordered))
    above = len(ordered) - rank
    return p50, (ordered[rank - 1] if above >= 10 else None), above


def stored_ratio(cluster: Cluster, live: LiveSet) -> tuple[float, int, int]:
    stored = sum(
        len(encode_packet(row.packet))
        for node in cluster.engines.values()
        for row in node.engine.objects.values()
    )
    user = live.user_bytes()
    return stored / user if user else 0.0, stored, user


def program_counters(cluster: Cluster) -> dict[str, int]:
    fwd = [f.stats for f in cluster.fabric.forwarders]
    eng = [n.engine.stats for n in cluster.engines.values()]
    bf = cluster.bloom_server
    return {
        "no_route_drops": sum(s.no_route_drops for s in fwd),
        "pit_aggregated": sum(s.pit_aggregated for s in fwd),
        "cs_hits": sum(s.cs_hits for s in fwd),
        "qdata_invalidations": sum(s.qdata_invalidations for s in eng),
        "denied": sum(s.denied_queries + s.denied_inserts + s.denied_deletes for s in eng),
        "bf_updates_applied": bf.updates_applied if bf else 0,
        "bf_updates_dropped": bf.updates_dropped if bf else 0,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "platform": platform.platform(),
    }


def _close(cluster: Cluster, fe) -> None:
    fe.close()
    cluster.close()


def _untraced(w: Workload, seed: int, seconds: float, preload, pool, report: dict):
    """End-to-end metrics: several set-ups, then one timed phase on the last."""
    setups = []
    cluster = fe = None
    for _ in range(SETUPS):
        if cluster is not None:
            _close(cluster, fe)
            cluster = fe = live = None
            gc.collect()
        cluster, fe, secs, live = build(w, preload)
        setups.append(secs)
    report["setup_runs_s"] = setups
    report["sizes"]["preload_rows"] = live.total_rows()
    phase = timed_phase(w, seed, fe, live, pool, seconds)
    ratio, stored, user = stored_ratio(cluster, live)
    _close(cluster, fe)
    metrics = {"setup_s": Metric(statistics.median(setups), "s", f"median of {SETUPS} set-ups")}
    block = 10 * w.query_every
    rates = phase.block_rates(block) or [phase.ops_per_s]
    metrics["ops_per_s"] = Metric(
        statistics.median(rates), "ops/s",
        f"median of {len(rates)} blocks of {block} ops; "
        f"n={len(phase.durations)} ops in {phase.busy_s:.3f} s of calls")
    for kind in ("query", "insert", "delete"):
        lat = phase.latencies[kind]
        if not lat:
            continue
        p50, p90, above = percentile_line(lat)
        metrics[f"{kind}_p50_ms"] = Metric(p50 * 1000, "ms", f"n={len(lat)}")
        if p90 is not None:
            metrics[f"{kind}_p90_ms"] = Metric(p90 * 1000, "ms", f"n={len(lat)}, {above} above")
    metrics["failed_ratio"] = Metric(
        phase.failed / phase.attempted if phase.attempted else 0.0, "ratio",
        f"{phase.failed} failed / {phase.attempted} attempted")
    metrics["stored_bytes_per_user_byte"] = Metric(
        ratio, "ratio", f"{stored} stored bytes / {user} GeoJSON bytes")
    return metrics, [phase]


def _traced(w: Workload, seed: int, seconds: float, preload, pool, report: dict,
            out_dir: Path | None):
    """Per-layer metrics: an untraced half for reference, then a traced half."""
    cluster, fe, _, live = build(w, preload)
    plain = timed_phase(w, seed, fe, live, pool, seconds / 2)
    _close(cluster, fe)
    del cluster, fe, live
    gc.collect()
    tracer = Tracer()
    with Instrumentation(tracer):
        cluster, fe, _, live = build(w, preload, tracer)
        traced = timed_phase(w, seed, fe, live, pool, seconds / 2, tracer)
    counters = program_counters(cluster)
    _close(cluster, fe)
    metrics = layer_metrics(tracer.spans, counters)
    metrics["trace.overhead_ratio"] = Metric(
        traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0, "ratio",
        f"traced {traced.ops_per_s:.4g} ops/s / untraced {plain.ops_per_s:.4g} ops/s")
    counts = exact_counts(tracer.spans, COUNT_OPS)
    base = f"first {counts['ops']} timed ops"
    for key in ("subqueries", "master_fetches", "verify_calls", "sign_calls", "qdata_hits"):
        metrics[f"counts.{key}"] = Metric(counts[key], "count", base)
    metrics["counts.preload_rows"] = Metric(
        counts["preload_rows"], "count", f"{counts['preload_inserts']} preload inserts")
    report["spans"] = len(tracer.spans)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(out_dir / f"{w.name}.spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    return metrics, [plain, traced]


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path | None = None) -> dict:
    """One run; returns the report, whose `result` is the final JSON line."""
    preload, pool = features(w, seed)
    report = {
        "workload": w.name,
        "why": w.why,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(root, seed),
        "sizes": {
            "preload_features": len(preload),
            "insert_pool_features": len(pool),
            "query_side_deg": list(w.side),
            "k": K,
            "use_bf": w.use_bf,
            "query_every": w.query_every,
        },
    }
    if trace:
        metrics, phases = _traced(w, seed, seconds, preload, pool, report, out_dir)
    else:
        metrics, phases = _untraced(w, seed, seconds, preload, pool, report)
    metrics["peak_rss_mb"] = Metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss")
    failed = sum(p.failed for p in phases)
    report["failures"] = [f for p in phases for f in p.failures]
    report["metrics"] = {k: {"value": m.value, "unit": m.unit, "base": m.base}
                         for k, m in metrics.items()}
    report["result"] = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {k: {"value": metrics[k].value, "unit": metrics[k].unit}
                    for k in (PER_LAYER if trace else END_TO_END) if k in metrics},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1) + "\n")
    return report
