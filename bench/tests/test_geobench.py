"""The benchmark's own tests: span arithmetic, wrapper removal, oracle, smoke runs.

    python3 -m pytest -q bench/tests
"""

import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from geoshard.geogrid import BBox
from geoshard.icn.consumer import Consumer

from geobench.layers import fit_tile_query_model
from geobench.oracle import LiveSet
from geobench.runner import END_TO_END, PER_LAYER, build, run, timed_phase
from geobench.tracing import Instrumentation, Span, Tracer, self_times, wrap_targets
from geobench.workloads import WORKLOADS, features

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, 0, 1, "root", 0.0, 10.0),
        Span(2, 1, 1, "a", 1.0, 4.0),
        Span(3, 1, 1, "b", 3.0, 6.0),  # overlaps a: parallel children count once
        Span(4, 1, 1, "c", 8.0, 12.0),  # runs past the parent's end
        Span(5, 2, 1, "grandchild", 1.5, 3.5),  # covers a, not root
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 3.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 2.0})


def test_pool_thread_spans_belong_to_op_in_flight():
    tracer = Tracer()
    with tracer.op("query") as root:
        inner = tracer.start("frontend.range_query")
        seen = []
        t = threading.Thread(target=lambda: seen.append(tracer.start("pool")))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        tracer.finish(inner)
    (pool_span,) = seen
    assert pool_span.op == root.id
    assert pool_span.parent == inner.id


def test_wrappers_are_removed_and_untraced_run_calls_originals():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in wrap_targets()}
    w = replace(WORKLOADS["lab_grid"], preload=30)
    preload, pool = features(w, 1)
    tracer = Tracer()
    with Instrumentation(tracer):
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
        cluster, fe, _, live = build(w, preload, tracer)
        timed_phase(w, 1, fe, live, pool, 0.2, tracer)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    assert Consumer.get is originals[(Consumer, "get")]
    recorded = len(tracer.spans)
    assert recorded > 0
    phase = timed_phase(w, 2, fe, live, pool, 0.2)
    assert phase.attempted > 0 and phase.failed == 0
    assert len(tracer.spans) == recorded


def test_oracle_uses_closed_box_and_closed_interval():
    live = LiveSet()
    edge = {"type": "Feature",
            "geometry": {"type": "MultiPoint", "coordinates": [[12.5, 41.5], [12.7, 41.7]]},
            "properties": {"oid": "edge"},
            "temporalExtent": {"validTime": {"type": "interval", "value": [600, 700]}}}
    live.add(edge, 6)
    box = BBox.of(12.4, 41.4, 12.5, 41.5)  # the first point sits on the NE corner
    assert live.expected(box, "intersect", None) == {"edge"}
    assert live.expected(box, "include", None) == set()
    assert live.expected(box, "intersect", (0, 600)) == {"edge"}
    assert live.expected(box, "intersect", (0, 599)) == set()


def test_model_fit_needs_varying_rows():
    assert fit_tile_query_model([(1, 0.001), (1, 0.002)]) is None
    c1, c2, r2 = fit_tile_query_model([(0, 0.001), (10, 0.002), (20, 0.003)])
    assert c1 == pytest.approx(1.0) and c2 == pytest.approx(0.1) and r2 == pytest.approx(1.0)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


TINY = {"transit_query": 40, "lab_grid": 400, "transit_churn": 40}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run(name, trace, tmp_path):
    w = replace(WORKLOADS[name], preload=TINY[name], insert_pool=min(WORKLOADS[name].insert_pool, 2000))
    report = run(w, seed=7, seconds=2.0, trace=trace, root=ROOT, out_dir=tmp_path)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0, report["failures"]
    got = set(result["metrics"])
    if trace:
        assert got == set(PER_LAYER)
    else:
        assert got == set(END_TO_END)
        assert all(result["metrics"][k]["value"] > 0 for k in got)
        queries = int(report["metrics"]["query_p50_ms"]["base"].split("=")[1])
        assert ("query_p90_ms" in report["metrics"]) == (queries >= 100)
