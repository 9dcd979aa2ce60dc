"""Per-layer metrics computed from the spans of one traced run.

Layers are geoshard's modules. Every metric is a total over the ops of
one kind divided by a base that is printed with it: per query over the
timed range queries, per insert over every traced insert (the preload and
the timed phase), per write over every traced insert and delete.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from geoshard.icn.packets import reassemble

from geobench.tracing import Span, self_times

MS = 1000.0


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    base: str  # what the value was divided by, or where a count was read


def container_rows(segments) -> int:
    """Rows in a tile container: the length-prefixed packets of its payload."""
    raw = reassemble(segments)
    rows = pos = 0
    while pos < len(raw):
        (length,) = struct.unpack_from("!I", raw, pos)
        pos += 4 + length
        rows += 1
    return rows


@dataclass
class _OpTotals:
    """Sums over the spans of one op kind."""

    ops: int = 0
    tess_s: float = 0.0
    tiles: int = 0
    periods: int = 0
    bf_s: float = 0.0
    bf_calls: int = 0
    bf_items: int = 0
    bf_kept: int = 0
    bf_errors: int = 0
    publish_s: float = 0.0
    fanout_s: float = 0.0
    postfilter_s: float = 0.0
    query_s: float = 0.0
    subqueries: int = 0
    master_fetches: int = 0
    ipres: int = 0
    gets: int = 0
    get_packets: int = 0
    expresses: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fwd_self_s: float = 0.0
    decode_s: float = 0.0
    decoded: int = 0
    returned: int = 0
    tq_encode_s: float = 0.0
    tq_calls: int = 0
    tq_hits: int = 0
    tq_self_s: float = 0.0
    tq_rows: int = 0
    of_calls: int = 0
    of_hits: int = 0
    of_self_s: float = 0.0
    bulk_s: float = 0.0
    bulk_rows: int = 0
    delete_rows: int = 0
    delete_s: float = 0.0
    verify_calls: int = 0
    verify_s: float = 0.0
    sign_calls: int = 0
    sign_s: float = 0.0
    build_s: float = 0.0
    build_rows: int = 0
    cert_fetches: int = 0


def _op_totals(spans: list[Span], op_kind: dict[int, str]) -> tuple[dict[str, _OpTotals], list]:
    """Totals per op kind, plus (rows, seconds) for every tile query that missed the cache."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    totals: dict[str, _OpTotals] = defaultdict(_OpTotals)
    tile_gets: dict[int, list[Span]] = defaultdict(list)
    model_points: list[tuple[int, float]] = []
    for s in spans:
        t = totals[op_kind.get(s.op, "setup")]
        name, d = s.name, s.duration
        if name.startswith("op."):
            t.ops += 1
        elif name == "frontend.range_query":
            t.query_s += d
            t.returned += s.attrs.get("returned", 0)
        elif name in ("tessellate.constrained_tessellation", "tessellate.temporal_decompose"):
            t.tess_s += d
            t.tiles += s.attrs.get("tiles", 0)
            t.periods += s.attrs.get("periods", 0)
        elif name == "bloomsvc.membership":
            t.bf_s += d
            t.bf_calls += 1
            t.bf_items += s.attrs.get("items", 0)
            t.bf_kept += s.attrs.get("kept", 0)
            t.bf_errors += "error" in s.attrs
        elif name == "bloomsvc.publish":
            t.publish_s += d
        elif name == "icn.consumer_get":
            t.gets += 1
            mark = s.attrs.get("mark")
            if mark == "TILE":
                t.subqueries += 1
                tile_gets[s.op].append(s)
            elif mark == "DATA":
                t.master_fetches += 1
            elif mark == "CERT":
                t.cert_fetches += 1
        elif name == "icn.consumer_get_packet":
            t.get_packets += 1
            t.ipres += s.attrs.get("mark") == "IP-RES"
        elif name == "icn.express_interest":
            t.expresses += 1
            t.timeouts += s.attrs.get("error") == "GetTimeoutError"
        elif name == "icn.retransmission":
            t.retransmissions += 1
        elif name == "icn.forwarder_handle":
            t.fwd_self_s += selfs[s.id]
        elif name == "icn.decode_packet_stream":
            t.decode_s += d
            t.decoded += s.attrs.get("items", 0)
        elif name == "icn.encode_packet_stream":
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "engine.handle_tile_query":
                t.tq_encode_s += d
        elif name == "engine.handle_tile_query":
            reply = s.attrs.get("reply")
            if reply is None:
                continue
            t.tq_calls += 1
            t.tq_self_s += selfs[s.id]
            rows = container_rows(reply)
            t.tq_rows += rows
            if any(c.name == "icn.encode_packet_stream" for c in children[s.id]):
                model_points.append((rows, d))
            else:
                t.tq_hits += 1
        elif name == "engine.handle_object_fetch":
            if s.attrs.get("served"):
                t.of_calls += 1
                t.of_self_s += selfs[s.id]
                if not any(c.name == "icn.encode_packet_stream" for c in children[s.id]):
                    t.of_hits += 1
        elif name == "engine.bulk_insert":
            t.bulk_s += d
            t.bulk_rows += s.attrs.get("items", 0)
        elif name == "engine.handle_delete":
            t.delete_s += d
            t.delete_rows += 1
        elif name == "trust.verify_bytes":
            t.verify_calls += 1
            t.verify_s += d
        elif name == "trust.sign_bytes":
            t.sign_calls += 1
            t.sign_s += d
        elif name == "objects.build_object_packets":
            t.build_s += d
            t.build_rows += s.attrs.get("items", 0)
    # fan-out: first sub-query start to last sub-query end; post-filter: from
    # there to the end of the range query
    for s in spans:
        if s.name != "frontend.range_query":
            continue
        t = totals[op_kind.get(s.op, "setup")]
        gets = tile_gets.get(s.op)
        if gets:
            first = min(g.start for g in gets)
            last = max(g.end for g in gets)
            t.fanout_s += last - first
            t.postfilter_s += s.end - last
        else:
            before = [c.end for c in children[s.id]
                      if c.name in ("bloomsvc.membership", "tessellate.constrained_tessellation",
                                    "tessellate.temporal_decompose")]
            t.postfilter_s += s.end - max(before, default=s.start)
    return totals, model_points


def fit_tile_query_model(points: list[tuple[int, float]]) -> tuple[float, float, float] | None:
    """Least squares TQp = C1 + C2 * Ni over (rows, seconds); returns C1 ms, C2 ms, r^2.

    None when the rows never vary, which leaves C1 and C2 unidentifiable.
    """
    if len({p[0] for p in points}) < 2:
        return None
    n = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float) * MS
    a = np.column_stack([np.ones_like(n), n])
    (c1, c2), *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ np.array([c1, c2])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return float(c1), float(c2), r2


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, Metric]:
    """The per-layer metrics of one traced run.

    A metric whose base is zero here (for example per-delete time on a
    read-only workload) is left out rather than reported as zero.
    """
    op_kind = {s.id: s.name[3:] for s in spans if s.name.startswith("op.")}
    totals, model_points = _op_totals(spans, op_kind)
    q = totals["query"]
    ins_timed, pre, dele = totals["insert"], totals["preload"], totals["delete"]
    n_ins = ins_timed.ops + pre.ops
    n_writes = n_ins + dele.ops
    # inserts: the preload plus the timed phase
    ins = _OpTotals(**{
        f: getattr(ins_timed, f) + getattr(pre, f) for f in _OpTotals.__dataclass_fields__
    })
    out: dict[str, Metric] = {}

    def put(name: str, num: float, den: float, unit: str, base: str, scale: float = 1.0):
        if den:
            out[name] = Metric(num * scale / den, unit, f"{num * scale:.6g} / {den:g} {base}")

    def count(name: str, value: int, base: str):
        out[name] = Metric(value, "count", base)

    nq = q.ops
    put("tessellate.ms_per_query", q.tess_s, nq, "ms", "queries", MS)
    put("tessellate.tiles_per_query", q.tiles, nq, "count", "queries")
    put("tessellate.periods_per_query", q.periods, nq, "count", "queries")
    put("bloomsvc.ms_per_query", q.bf_s, nq if q.bf_calls else 0, "ms", "queries", MS)
    put("bloomsvc.kept_ratio", q.bf_kept, q.bf_items, "ratio", "tiles before pruning")
    put("bloomsvc.publish_ms_per_write",
        ins.publish_s + dele.publish_s, n_writes, "ms", "writes", MS)
    count("bloomsvc.fallbacks", q.bf_errors, "membership calls that raised")
    count("bloomsvc.updates_applied", counters["bf_updates_applied"], "filter server counter")
    count("bloomsvc.updates_dropped", counters["bf_updates_dropped"], "filter server counter")
    put("frontend.fanout_ms_per_query", q.fanout_s, nq, "ms", "queries", MS)
    put("frontend.subqueries_per_query", q.subqueries, nq, "count", "queries")
    put("frontend.postfilter_ms_per_query", q.postfilter_s, nq, "ms", "queries", MS)
    put("frontend.postfilter_share", q.postfilter_s, q.query_s, "ratio", "range-query seconds")
    put("frontend.master_fetches_per_query", q.master_fetches, nq, "count", "queries")
    put("frontend.decoded_per_returned", q.decoded, q.returned, "ratio", "objects returned")
    put("frontend.ipres_lookups_per_insert", ins.ipres, n_ins, "count", "inserts")
    put("icn.consumer_gets_per_query", q.gets, nq, "count", "queries")
    put("icn.segments_per_get", q.expresses - q.get_packets, q.gets, "count", "gets in queries")
    put("icn.interests_per_query", q.expresses + q.retransmissions, nq, "count", "queries")
    put("icn.forwarder_self_ms_per_query", q.fwd_self_s, nq, "ms", "queries", MS)
    put("icn.decode_ms_per_query", q.decode_s, nq, "ms", "queries", MS)
    put("icn.encode_ms_per_subquery", q.tq_encode_s, q.subqueries, "ms", "sub-queries", MS)
    all_ops = [totals[k] for k in ("query", "insert", "delete")]
    count("icn.retransmissions", sum(t.retransmissions for t in all_ops), "timed ops")
    count("icn.timeouts", sum(t.timeouts for t in all_ops), "timed ops")
    count("icn.no_route_drops", counters["no_route_drops"], "forwarder counters")
    count("icn.pit_aggregated", counters["pit_aggregated"], "forwarder counters")
    count("icn.cs_hits", counters["cs_hits"], "forwarder counters")
    put("engine.tile_query_self_ms", q.tq_self_s, q.tq_calls, "ms", "tile queries", MS)
    put("engine.rows_per_subquery", q.tq_rows, q.tq_calls, "count", "tile queries")
    put("engine.qdata_hit_ratio", q.tq_hits, q.tq_calls, "ratio", "tile queries")
    put("engine.object_fetch_self_ms", q.of_self_s, q.of_calls, "ms", "object fetches", MS)
    put("engine.object_cache_hit_ratio", q.of_hits, q.of_calls, "ratio", "object fetches")
    put("engine.bulk_insert_ms_per_row", ins.bulk_s, ins.bulk_rows, "ms", "rows inserted", MS)
    put("engine.delete_ms_per_row", dele.delete_s, dele.delete_rows, "ms", "rows deleted", MS)
    put("engine.qdata_invalidations_per_write",
        counters["qdata_invalidations"], n_writes, "count", "writes")
    count("engine.denied", counters["denied"], "engine counters")
    put("trust.verify_per_query", q.verify_calls, nq, "count", "queries")
    put("trust.verify_ms_per_query", q.verify_s, nq, "ms", "queries", MS)
    put("trust.sign_per_query", q.sign_calls, nq, "count", "queries")
    put("trust.sign_ms_per_query", q.sign_s, nq, "ms", "queries", MS)
    put("trust.sign_ms_per_insert", ins.sign_s, n_ins, "ms", "inserts", MS)
    put("trust.verify_ms_per_insert", ins.verify_s, n_ins, "ms", "inserts", MS)
    count("trust.cert_fetches", sum(t.cert_fetches for t in totals.values()), "whole traced run")
    put("objects.build_ms_per_insert", ins.build_s, n_ins, "ms", "inserts", MS)
    put("objects.rows_per_insert", ins.build_rows, n_ins, "count", "inserts")
    fit = fit_tile_query_model(model_points)
    if fit is not None:
        base = f"fit over {len(model_points)} tile queries that missed the cache"
        out["model.c1_ms"] = Metric(fit[0], "ms", base)
        out["model.c2_ms"] = Metric(fit[1], "ms", base)
        out["model.r2"] = Metric(fit[2], "ratio", base)
    return out


def exact_counts(spans: list[Span], first_ops: int) -> dict[str, int]:
    """Counts over the preload and the first `first_ops` timed ops.

    With a fixed seed these repeat exactly from run to run, so a later
    change can cite them as counts.
    """
    op_kind = {s.id: s.name[3:] for s in spans if s.name.startswith("op.")}
    timed = sorted(i for i, k in op_kind.items() if k in ("query", "insert", "delete"))
    keep = set(timed[:first_ops])
    prefix = [s for s in spans if s.op in keep]
    totals, _ = _op_totals(prefix, op_kind)
    pre, _ = _op_totals([s for s in spans if op_kind.get(s.op) == "preload"], op_kind)
    pre = pre["preload"]
    ts = list(totals.values())
    return {
        "ops": len(keep),
        "subqueries": sum(t.subqueries for t in ts),
        "master_fetches": sum(t.master_fetches for t in ts),
        "verify_calls": sum(t.verify_calls for t in ts),
        "sign_calls": sum(t.sign_calls for t in ts),
        "qdata_hits": sum(t.tq_hits for t in ts),
        "preload_inserts": pre.ops,
        "preload_rows": pre.build_rows,
    }
