"""Span arithmetic and wrapper installation of the benchmark tracer.

    python3 -m pytest -q bench/test_tracing.py
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphsplines.cli  # noqa: E402
import graphsplines.spectral  # noqa: E402
from graphsplines import cycle_graph  # noqa: E402

from tracing import BUCKETS, COUNTERS, TRACE_METRICS, Span, Tracer, layer_metrics, self_times, unit  # noqa: E402


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        Span("cli.main", "cli.self", 0.0, 10.0, -1),
        Span("spectral.decompose_graph", "spectral.eigendecompose", 1.0, 4.0, 0),
        Span("spectral.laplacian", "spectral.laplacian", 2.0, 3.0, 1),
        Span("io.write_edge_csv", "io.write", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    metrics = layer_metrics(spans, {})
    assert metrics["cli.self_s"] == 5.0
    assert metrics["spectral.eigendecompose_s"] == 2.0
    assert metrics["spectral.laplacian_s"] == 1.0


def test_overlapping_children_are_covered_once():
    spans = [Span("a", "cli.self", 0.0, 10.0, -1), Span("b", "io.read", 1.0, 5.0, 0), Span("c", "io.read", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


def test_layers_without_calls_report_zero():
    metrics = layer_metrics([Span("cli.main", "cli.self", 0.0, 1.0, -1)], {"io.bytes_written": 12})
    assert set(metrics) == {f"{b}_s" for b in BUCKETS} | set(COUNTERS)
    assert metrics["graphs.metric_s"] == 0.0
    assert metrics["interpolation.systems"] == 0.0
    assert metrics["io.bytes_written"] == 12.0


def test_installed_tracer_wraps_every_binding_and_restores_it():
    original = graphsplines.spectral.decompose_graph
    assert graphsplines.cli.decompose_graph is original
    tracer = Tracer()
    with tracer.installed():
        assert graphsplines.cli.decompose_graph is graphsplines.spectral.decompose_graph is not original
        graphsplines.cli.decompose_graph(cycle_graph(8))
    assert graphsplines.cli.decompose_graph is original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("graphs.build_graph", -1),
        ("spectral.decompose_graph", -1),
        ("spectral.laplacian", 1),
        ("spectral.eigendecompose", 1),
    ]
    metrics = tracer.metrics()
    assert metrics["spectral.eigh_calls"] == 1.0
    assert metrics["spectral.eigh_flops"] == 9 * 8**3
    assert metrics["interpolation.solve_s"] == 0.0


def test_benchmark_json_declares_exactly_what_a_traced_run_reports():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = [f"{b}_s" for b in BUCKETS] + list(COUNTERS) + list(TRACE_METRICS)
    assert sorted(m["name"] for m in declared) == sorted(reported)
    assert all(m["unit"] == unit(m["name"]) for m in declared)
