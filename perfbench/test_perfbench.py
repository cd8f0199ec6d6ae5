"""The benchmark's own tests: tracer accounting, metric catalogue, percentiles.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run
from tracer import Spans, Tracer, load_spans, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- self-time accounting -----------------------------------------------------------
def test_self_times_on_a_nested_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_self_times_count_overlapping_children_once():
    # Two children of one parent overlap on [3, 4]: covered time is the
    # union [2, 6], not the sum of the two durations.
    parent = np.array([-1, 0, 0])
    start = np.array([0.0, 2.0, 3.0])
    end = np.array([10.0, 4.0, 6.0])
    np.testing.assert_allclose(self_times(parent, start, end), [6.0, 2.0, 3.0])


class _Tree:
    def root(self):
        time.sleep(0.001)
        self.mid()
        self.leaf()

    def mid(self):
        time.sleep(0.001)
        self.leaf()

    def leaf(self):
        time.sleep(0.001)


def test_tracer_records_the_call_tree(tmp_path):
    tracer = Tracer()
    for attr in ("root", "mid", "leaf"):
        tracer.wrap(_Tree, attr, attr)
    try:
        _Tree().root()
    finally:
        tracer.uninstall()
    assert _Tree.root.__name__ == "root" and not hasattr(_Tree.root, "__wrapped__")

    path = str(tmp_path / "spans.npz")
    tracer.dump(path)
    spans = load_spans(path)
    names = [spans.names[i] for i in spans.name]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert spans.parent.tolist() == [-1, 0, 1, 0]
    own = self_times(spans.parent, spans.start, spans.end)
    # Self times partition the root's wall time.
    assert own.sum() == pytest.approx(spans.end[0] - spans.start[0], abs=1e-12)
    assert (own >= 0.0009).all()


def test_layer_metrics_split_loop_sweeps_from_build_and_finalize():
    names = [layers.CHAIN, layers.FULL, layers.SIM_INIT, layers.FINALIZE, layers.INTERN]
    # init [0,2] > full [0.5,1.5]; chain [2,8] > full [3,5], intern [6,7];
    # finalize [8,10] > full [8.5,9.5]
    spans = Spans(
        names,
        name=np.array([2, 1, 0, 1, 4, 3, 1]),
        parent=np.array([-1, 0, -1, 2, 2, -1, 5]),
        start=np.array([0.0, 0.5, 2.0, 3.0, 6.0, 8.0, 8.5]),
        end=np.array([2.0, 1.5, 8.0, 5.0, 7.0, 10.0, 9.5]),
        gauges={"tasks.live": 7},
    )
    out = layers.layer_metrics(spans, loop_s=6.0)
    assert out["repair.full_calls"] == 1
    assert out["repair.full_ms"] == pytest.approx(2000.0)
    assert out["intern.calls"] == 1
    assert out["finalize.ms"] == pytest.approx(2000.0)
    assert out["chain.self_ms"] == pytest.approx(3000.0)
    assert out["trace.coverage"] == pytest.approx(0.5)
    assert out["tasks.live"] == 7


# -- metric catalogue ------------------------------------------------------------------
def _catalogue(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_end_to_end_metrics_match_benchmark_json():
    assert _catalogue(BENCHMARK["end_to_end"]) == list(run.END_TO_END)


def test_per_layer_metrics_match_benchmark_json():
    assert _catalogue(BENCHMARK["per_layer"]) == list(layers.LAYER_METRICS)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _fake_result(proposed, loop_s):
    trace = SimpleNamespace(proposed=proposed, times_s=[loop_s / 2, loop_s], accepted=1)
    return SimpleNamespace(
        extras={"traces": {"data_parallel": trace}, "route_counts": {"full": proposed}},
        cache_stats=SimpleNamespace(hits=1, lookups=4),
        store_stats=SimpleNamespace(hits=0, lookups=0),
    )


def test_search_layer_report_covers_every_per_layer_metric():
    tracer = Tracer()
    out = run.search_layer_metrics(tracer.spans(), _fake_result(10, 2.0), _fake_result(10, 2.5))
    assert set(out) == {name for name, _, _ in layers.LAYER_METRICS}
    assert out["trace.overhead"] == pytest.approx(0.8)
    assert out["cache.hit_ratio"] == pytest.approx(0.25)


# -- served percentiles -------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.5) == 50
    assert run.percentile([3.0], 0.9) == 3.0


def test_latency_percentiles_are_per_request_class():
    cold = [500.0, 510.0, 520.0, 530.0]
    warm = [20.0, 21.0, 22.0, 23.0]
    got = run.latency_metrics(cold, warm)
    # A pooled median would land between the classes (~265 ms).
    assert got["request_cold_p50_ms"] == 515.0
    assert got["request_warm_p50_ms"] == 21.5
    assert got["request_p90_ms"] == 530.0


def test_time_to_best_is_first_hold_of_the_final_best():
    trace = SimpleNamespace(best_costs=[9.0, 7.0, 5.0, 5.0], times_s=[0.1, 0.2, 0.3, 0.4])
    assert run.time_to_best(trace) == 0.3
