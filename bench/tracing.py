"""Per-layer spans recorded from outside the package.

The tracer replaces each traced function in every graphsplines module that
binds it, so a call is recorded wherever its caller looks the name up
(``graphsplines.cli.decompose_graph`` and ``graphsplines.spectral.decompose_graph``
are the same object and get the same wrapper). Spans stay in memory; the
caller writes them out when the run ends. Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _own_dijkstra

# Bucket of every traced function, keyed by (module it is defined in, name).
# ``graphs.dijkstra`` is scipy's solver as bound in graphs.py: the all-pairs
# metric calls it exactly once per build.
TARGETS = {
    ("cli", "main"): "cli.self",
    ("io", "read_edge_csv"): "io.read",
    ("io", "read_points_csv"): "io.read",
    ("io", "read_function_csv"): "io.read",
    ("io", "read_nodes_csv"): "io.read",
    ("io", "write_edge_csv"): "io.write",
    ("io", "write_function_csv"): "io.write",
    ("io", "write_nodes_csv"): "io.write",
    ("io", "write_interpolant_csv"): "io.write",
    ("io", "write_profile_csv"): "io.write",
    ("io", "write_fit_csv"): "io.write",
    ("io", "write_report_csv"): "io.write",
    ("io", "write_pairs_csv"): "io.write",
    ("io", "write_matrix_csv"): "io.write",
    ("io", "write_manifest"): "io.write",
    ("graphs", "knn_graph"): "graphs.knn_graph",
    ("graphs", "build_graph"): "graphs.build_graph",
    ("graphs", "dijkstra"): "graphs.metric",
    ("graphs", "graph_metrics"): "graphs.metric",
    ("spectral", "laplacian"): "spectral.laplacian",
    ("spectral", "eigendecompose"): "spectral.eigendecompose",
    ("spectral", "decompose_graph"): "spectral.eigendecompose",
    ("spectral", "pseudo_inverse_power"): "spectral.kernel",
    ("spectral", "sobolev_seminorm"): "spectral.seminorm",
    ("interpolation", "native_semi_inner_product"): "spectral.seminorm",
    ("interpolation", "solve_interpolant"): "interpolation.solve",
    ("interpolation", "evaluate"): "interpolation.solve",
    ("interpolation", "lagrange_basis"): "interpolation.solve",
    ("interpolation", "local_lagrange"): "interpolation.solve",
    ("interpolation", "truncated_lagrange"): "interpolation.solve",
    ("ml", "spline_regress"): "interpolation.solve",
    ("ml", "load_dataset"): "ml.load_dataset",
    ("ml", "cross_validate"): "ml.cv_self",
    ("diagnostics", "decay_profile"): "diagnostics.decay",
    ("diagnostics", "fit_exponential_decay"): "diagnostics.decay",
}

# Every bucket and counter is reported, as zero when nothing recorded it.
BUCKETS = sorted(set(TARGETS.values()))
COUNTERS = (
    "interpolation.systems",
    "interpolation.rhs",
    "interpolation.factor_flops",
    "spectral.eigh_calls",
    "spectral.eigh_flops",
    "spectral.kernel_bytes",
    "graphs.metric_builds",
    "io.bytes_written",
    "ml.folds",
    "ml.nnr_fallbacks",
)

MODULES = ("cli", "io", "graphs", "spectral", "interpolation", "diagnostics", "ml")

# Whole-job figures a traced run adds to the layer metrics.
TRACE_METRICS = ("trace.job_s", "trace.spans", "trace.overhead_frac")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes") or name == "io.bytes_written":
        return "B"
    if name.endswith("_frac"):
        return "1"
    return "count"


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    end: float
    parent: int  # index into the job's span list; -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """``<bucket>_s`` self time per bucket plus every counter; absent ones are 0."""
    metrics = {f"{bucket}_s": 0.0 for bucket in BUCKETS}
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span.bucket}_s"] += own
    for name in COUNTERS:
        metrics[name] = float(counts.get(name, 0.0))
    return metrics


# --- counters: work done per call, from its bound arguments and result ------

def _add(counts, name, amount):
    counts[name] = counts.get(name, 0) + amount


def _count_system(counts, m, rhs):
    _add(counts, "interpolation.systems", 1)
    _add(counts, "interpolation.rhs", rhs)
    _add(counts, "interpolation.factor_flops", m**3 / 3)


def _count_spline_regress(counts, result, a):
    m = np.unique(np.asarray(a["known"])).size
    if m < a["g"].n_vertices:
        values = np.asarray(a["values"])
        _count_system(counts, m, 1 if values.ndim == 1 else values.shape[1])


def _count_solve_interpolant(counts, result, a):
    _count_system(counts, a["p"].nodes.size, 1)


def _count_lagrange_basis(counts, result, a):
    m = np.asarray(a["nodes"]).size
    _count_system(counts, m, m)


def _count_local_lagrange(counts, result, a):
    # The neighbourhood is found with the tracer's own Dijkstra so that a lazy
    # metric in the package is never built on the tracer's behalf.
    graph = a["graph"]
    edges = np.asarray(graph.edges)
    n = graph.n_vertices
    lengths = coo_matrix((edges[:, 3], (edges[:, 0].astype(int), edges[:, 1].astype(int))), shape=(n, n))
    dist = _own_dijkstra(lengths.tocsr(), directed=False, indices=int(a["center"]))
    _count_system(counts, int(np.count_nonzero(dist[np.asarray(a["nodes"])] <= a["radius"])), 1)


def _count_eigendecompose(counts, result, a):
    n = result.n
    _add(counts, "spectral.eigh_calls", 1)
    # symmetric QR with eigenvectors: about 9 n^3 flops (Golub & Van Loan, sec. 8.3)
    _add(counts, "spectral.eigh_flops", 9 * n**3)


def _count_kernel(counts, result, a):
    _add(counts, "spectral.kernel_bytes", result.matrix.nbytes)


def _count_metric(counts, result, a):
    _add(counts, "graphs.metric_builds", 1)


def _count_write(counts, result, a):
    _add(counts, "io.bytes_written", os.path.getsize(a["path"]))


def _count_manifest(counts, result, a):
    _add(counts, "io.bytes_written", os.path.getsize(str(a["output_path"]) + ".manifest.json"))


def _count_cv(counts, result, a):
    _add(counts, "ml.folds", a["cfg"].folds * a["cfg"].repeats)
    _add(counts, "ml.nnr_fallbacks", result.nnr_fallbacks)


COUNT_HOOKS = {
    ("ml", "spline_regress"): _count_spline_regress,
    ("interpolation", "solve_interpolant"): _count_solve_interpolant,
    ("interpolation", "lagrange_basis"): _count_lagrange_basis,
    ("interpolation", "local_lagrange"): _count_local_lagrange,
    ("spectral", "eigendecompose"): _count_eigendecompose,
    ("spectral", "pseudo_inverse_power"): _count_kernel,
    ("graphs", "dijkstra"): _count_metric,
    ("io", "write_manifest"): _count_manifest,
    ("ml", "cross_validate"): _count_cv,
}
for _key, _bucket in TARGETS.items():
    if _bucket == "io.write":
        COUNT_HOOKS.setdefault(_key, _count_write)


class Tracer:
    """Collects spans and counters for one job at a time while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, func, name: str, bucket: str, count):
        spans = self.spans
        stack = self._stack
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):  # compiled functions may carry none
            signature = None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, bucket, start, end, parent)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments if signature else {}
                count(self.counts, result, bound)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Record spans into a fresh job record while the block runs."""
        self.spans, self.counts, self._stack = [], {}, []
        by_module = {m: importlib.import_module(f"graphsplines.{m}") for m in MODULES}
        modules = [importlib.import_module("graphsplines"), *by_module.values()]
        replaced = []
        for (home, name), bucket in TARGETS.items():
            original = getattr(by_module[home], name)
            wrapper = self._wrap(original, f"{home}.{name}", bucket, COUNT_HOOKS.get((home, name)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(replaced):
                setattr(module, attr, value)

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts)
