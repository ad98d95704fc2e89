"""Finite connected weighted graphs with an edge-length shortest-path metric.

Vertices are the integers ``0 .. n_vertices-1``. Every edge carries a positive
weight (used by the Laplacian) and a positive length (used by the metric).
The metric ``rho`` is the shortest-path distance induced by edge lengths, so a
direct edge that is longer than some indirect route is overridden by the route.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    DuplicatePoint,
    EmptyNodeSet,
    NonPositiveLength,
    NonPositiveWeight,
    SelfLoop,
    TooFewVertices,
)

Edge = tuple[int, int, float, float]


class WeightedGraph:
    """Undirected weighted graph, immutable after construction.

    Use :func:`build_graph` (or one of the generators below) instead of the
    constructor; they validate the edges and check connectivity. The edges form
    one (m, 4) table of ``(u, v, weight, length)`` rows, oriented ``u < v`` and
    sorted; ``edges``, the dense weights and the sparse lengths come from it.
    Distances are computed on each query and nothing is cached, so instances
    are safe to share between threads.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge] | np.ndarray):
        self.n_vertices = n = int(n_vertices)
        table = np.asarray(edges, dtype=float).reshape(-1, 4)
        u, v = np.sort(table[:, :2], axis=1).astype(int).T
        order = np.lexsort((v, u))
        u, v, w, ell = u[order], v[order], table[order, 2], table[order, 3]
        self.edges: tuple[Edge, ...] = tuple(zip(u.tolist(), v.tolist(), w.tolist(), ell.tolist()))
        self._weights = np.zeros((n, n))
        self._weights[u, v] = self._weights[v, u] = w
        self._sparse_lengths = csr_matrix(
            (np.tile(ell, 2), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
        )

    @property
    def weights(self) -> np.ndarray:
        """Dense adjacency matrix of edge weights (zero where no edge)."""
        return self._weights

    @property
    def lengths(self) -> np.ndarray:
        """Dense matrix of edge lengths (zero where no edge), built on each access."""
        return self._sparse_lengths.toarray()

    @property
    def metric(self) -> np.ndarray:
        """All-pairs shortest-path distances, computed on each access."""
        return dijkstra(self._sparse_lengths, directed=False)

    @property
    def rho_max(self) -> float:
        """Longest edge length."""
        return float(self._sparse_lengths.data.max())

    def distances_from(self, sources: int | Sequence[int]) -> np.ndarray:
        """Distance from every vertex to the nearest of ``sources`` (one vertex or several)."""
        src = np.asarray(sources)
        bad = src[(src < 0) | (src >= self.n_vertices)]
        if bad.size:
            raise ValueError(f"source vertex {bad[0]} out of range for {self.n_vertices} vertices")
        return dijkstra(self._sparse_lengths, directed=False, indices=sources, min_only=True)

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self._weights[v] > 0)

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor counts (unweighted degrees)."""
        return np.count_nonzero(self._weights, axis=1)

    def __repr__(self) -> str:
        return f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={len(self.edges)})"


@dataclass(frozen=True)
class GraphMetrics:
    """Summary scalars: max unweighted degree, max edge length, diameter."""

    max_degree: int
    rho_max: float
    diameter: float


def graph_metrics(g: WeightedGraph) -> GraphMetrics:
    return GraphMetrics(
        max_degree=int(g.degrees.max()),
        rho_max=g.rho_max,
        diameter=float(g.metric.max()),
    )


def build_graph(edge_list: Iterable[Edge] | np.ndarray, n_vertices: int | None = None) -> WeightedGraph:
    """Validate an undirected edge list and return a connected graph.

    Parameters
    ----------
    edge_list : iterable of (u, v, weight, length), or an (m, 4) array
        One entry per undirected edge; listing both orientations of the same
        pair is rejected as a duplicate.
    n_vertices : int, optional
        Number of vertices; defaults to ``max index + 1``. Declaring more
        vertices than the edges touch raises :class:`DisconnectedGraph`.

    Each check runs over all edges before the next and names the first failing
    edge: vertex range (``ValueError``), :class:`SelfLoop`, :class:`DuplicateEdge`,
    then ``0 < x < inf`` for weights and lengths (:class:`NonPositiveWeight`/``Length``).
    """
    rows = edge_list if isinstance(edge_list, np.ndarray) else list(edge_list)
    edges = np.array(rows, dtype=float).reshape(len(rows), 4)
    if n_vertices is None:
        if not len(edges):
            raise TooFewVertices("graph needs at least 2 vertices and an edge list")
        n_vertices = int(edges[:, :2].max()) + 1
    n_vertices = int(n_vertices)
    if n_vertices < 2:
        raise TooFewVertices(f"graph needs at least 2 vertices, got {n_vertices}")

    u, v, w, ell = edges.T

    def reject(bad: np.ndarray, error: type[Exception], what: str) -> None:
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise error(f"edge {i} ({u[i]:.17g},{v[i]:.17g}) " + what.format(w=w[i], ell=ell[i]))

    in_range = (0 <= edges[:, :2]) & (edges[:, :2] < n_vertices)
    reject(~in_range.all(axis=1), ValueError, f"out of range for {n_vertices} vertices")
    reject(u == v, SelfLoop, "is a self-loop")
    keys = np.minimum(u, v) * n_vertices + np.maximum(u, v)
    repeated = np.ones(len(edges), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    reject(repeated, DuplicateEdge, "is listed more than once")
    reject(~((0 < w) & (w < np.inf)), NonPositiveWeight, "has weight {w}")
    reject(~((0 < ell) & (ell < np.inf)), NonPositiveLength, "has length {ell}")

    g = WeightedGraph(n_vertices, edges)
    n_comp, _ = connected_components(g._sparse_lengths, directed=False)
    if n_comp != 1:
        raise DisconnectedGraph(f"graph has {n_comp} connected components")
    return g


def cycle_graph(n: int, weight: float = 1.0, length: float = 1.0) -> WeightedGraph:
    """Ring v0 - v1 - ... - v_{n-1} - v0 with uniform weight and length."""
    if n < 3:
        raise TooFewVertices(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n, weight, length) for i in range(n)]
    return build_graph(edges, n)


def lattice_graph(rows: int, cols: int, weight: float = 1.0, length: float = 1.0) -> WeightedGraph:
    """4-neighbor grid with ``rows * cols`` vertices in row-major order."""
    if rows * cols < 2:
        raise TooFewVertices("lattice needs at least 2 vertices")
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])
    pairs = np.concatenate([right, down])
    return build_graph(np.column_stack([pairs, np.full((len(pairs), 2), (weight, length))]), rows * cols)


_KNN_BLOCK_ROWS = 128


def knn_graph(points: np.ndarray, k: int) -> WeightedGraph:
    """Symmetrized k-nearest-neighbor graph of a point cloud.

    Each point is linked to its ``k`` nearest neighbors in Euclidean distance
    (ties broken by lower index); the directed relation is symmetrized by
    union. Edge length is the Euclidean distance, edge weight its reciprocal.

    Raises :class:`DuplicatePoint` if two points coincide (a zero-length edge
    would have infinite weight) and :class:`DisconnectedGraph` if the union is
    not connected; the caller should raise ``k`` in that case.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n < 2:
        raise TooFewVertices("need at least 2 points")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    # row blocks keep the difference tensor at block x n x d and the sort at block x n;
    # a stable sort breaks ties by lower index, so each row starts with its own point
    kk = min(k, n - 1)
    dist = np.empty((n, n))
    nearest = np.empty((n, kk + 1), dtype=np.intp)
    for lo in range(0, n, _KNN_BLOCK_ROWS):
        hi = min(lo + _KNN_BLOCK_ROWS, n)
        diff = pts[lo:hi, None, :] - pts[None, :, :]
        np.sqrt((diff * diff).sum(axis=2), out=dist[lo:hi])
        nearest[lo:hi] = np.argsort(dist[lo:hi], axis=1, kind="stable")[:, : kk + 1]

    rows = np.arange(n)
    coincide = np.flatnonzero(dist[rows, nearest[:, 1]] == 0.0)
    if coincide.size:
        raise DuplicatePoint(f"points {coincide[0]} and {nearest[coincide[0], 1]} coincide")

    ends = np.sort(np.column_stack([np.repeat(rows, kk), nearest[:, 1:].ravel()]), axis=1)
    u, v = np.divmod(np.unique(ends[:, 0] * n + ends[:, 1]), n)
    d = dist[u, v]
    return build_graph(np.column_stack([u, v, 1.0 / d, d]), n)


def ball(g: WeightedGraph, center: int, r: float) -> np.ndarray:
    """Closed metric ball: vertices v with rho(v, center) <= r."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return np.flatnonzero(g.distances_from(center) <= r)


def annulus(g: WeightedGraph, center: int, r0: float, r1: float) -> np.ndarray:
    """Vertices in the closed ball of radius r1 but not in that of r0."""
    if r0 > r1:
        raise ValueError(f"need r0 <= r1, got {r0} > {r1}")
    d = g.distances_from(center)
    return np.flatnonzero((d > r0) & (d <= r1))


def complement(g: WeightedGraph, vertices: np.ndarray) -> np.ndarray:
    mask = np.ones(g.n_vertices, dtype=bool)
    mask[vertices] = False
    return np.flatnonzero(mask)


def fill_distance(g: WeightedGraph, nodes: Sequence[int]) -> float:
    """Worst-case distance from any vertex to the nearest node.

    ``max over v of min over nodes of rho(node, v)``, from one multi-source
    shortest-path search; zero when the node set is all of the vertex set.
    """
    nodes = np.asarray(nodes, dtype=int)
    if nodes.size == 0:
        raise EmptyNodeSet("fill distance needs a nonempty node set")
    return float(g.distances_from(nodes).max())


def random_connected_graph(n: int, rng: np.random.Generator) -> WeightedGraph:
    """Random spanning tree plus ``n // 2`` extra random edges; used by test harnesses.

    Weights are drawn from (0.5, 2.0), lengths from (0.5, 1.5); a repeated extra
    pair is redrawn, up to 20n times. Deterministic for a given generator state.
    """
    if n < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {n}")

    def draw(u: int, v: int) -> Edge:
        return (u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 1.5)))

    order = rng.permutation(n)
    pairs: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        pairs.add((min(u, v), max(u, v)))
        edges.append(draw(u, v))

    n_extra = n // 2
    attempts = 0
    while n_extra > 0 and attempts < 20 * n:
        attempts += 1
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or (min(u, v), max(u, v)) in pairs:
            continue
        pairs.add((min(u, v), max(u, v)))
        edges.append(draw(u, v))
        n_extra -= 1

    return build_graph(edges, n)
