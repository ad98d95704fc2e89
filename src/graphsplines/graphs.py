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
    constructor; they validate the edges and check connectivity. Each edge is
    stored once, in two CSR matrices holding both orientations: ``adjacency``
    of edge weights and the edge lengths. The ``edges`` tuples, dense views and
    distances are built from them on each access and nothing is cached, so
    instances are safe to share between threads.

    The CSR arrays are assembled directly: one ``argsort`` of the key
    ``row * n + col`` orders the 2m directed ends, and that permutation gives
    the sorted column indices and both data arrays; ``indptr`` is the running
    count of ends per row. The keys are unique because :func:`build_graph`
    refuses non-integer ids, self-loops and repeated pairs, so the result is
    the canonical CSR (sorted indices, no duplicates) that scipy's COO to CSR
    conversion gives, with no duplicate folding or format conversion.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Edge] | np.ndarray):
        self.n_vertices = n = int(n_vertices)
        u, v, w, ell = np.asarray(edges, dtype=float).reshape(-1, 4).T
        u, v = u.astype(np.int64), v.astype(np.int64)
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.argsort(rows * n + cols)
        index = np.int32 if max(n, rows.size) <= np.iinfo(np.int32).max else np.int64
        indices = cols[order].astype(index)
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self.adjacency = csr_matrix((np.tile(w, 2)[order], indices, indptr), shape=(n, n))
        self._sparse_lengths = csr_matrix((np.tile(ell, 2)[order], indices, indptr), shape=(n, n))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """``(u, v, weight, length)`` per edge with ``u < v``, sorted by ``(u, v)``; built on each access."""
        A = self.adjacency
        rows = np.repeat(np.arange(self.n_vertices), np.diff(A.indptr))
        upper = A.indices > rows  # the lengths share this sorted CSR pattern
        columns = (rows[upper], A.indices[upper], A.data[upper], self._sparse_lengths.data[upper])
        return tuple(zip(*(c.tolist() for c in columns)))

    @property
    def weights(self) -> np.ndarray:
        """Dense adjacency matrix of edge weights (zero where no edge), built on each access."""
        return self.adjacency.toarray()

    @property
    def lengths(self) -> np.ndarray:
        """Dense matrix of edge lengths (zero where no edge), built on each access."""
        return self._sparse_lengths.toarray()

    @property
    def metric(self) -> np.ndarray:
        """All-pairs shortest-path distances, computed on each access (see :meth:`distances_from`)."""
        return dijkstra(self._sparse_lengths, directed=True)

    @property
    def rho_max(self) -> float:
        """Longest edge length."""
        return float(self._sparse_lengths.data.max())

    def distances_from(self, sources: int | Sequence[int]) -> np.ndarray:
        """Distance from every vertex to the nearest of ``sources`` (one vertex or several).

        The search runs with ``directed=True`` on the stored lengths. Both
        orientations of every edge are stored, so the directed search relaxes
        exactly the edges an undirected one would and gives the same distances;
        it skips the transpose and CSR conversion that ``directed=False`` makes
        on each call.
        """
        src = np.asarray(sources)
        bad = src[(src < 0) | (src >= self.n_vertices)]
        if bad.size:
            raise ValueError(f"source vertex {bad[0]} out of range for {self.n_vertices} vertices")
        return dijkstra(self._sparse_lengths, directed=True, indices=sources, min_only=True)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of ``v`` in ascending order."""
        return self.adjacency[v].indices.astype(np.intp)

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor counts (unweighted degrees)."""
        return np.diff(self.adjacency.indptr)

    def __repr__(self) -> str:
        return f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={self.adjacency.nnz // 2})"


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
    edge: vertex range and integer ids (``ValueError``), :class:`SelfLoop`, :class:`DuplicateEdge`,
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

    u, v, w, ell = np.ascontiguousarray(edges.T)  # masks over contiguous columns are several times faster

    def reject(bad: np.ndarray, error: type[Exception], what: str) -> None:
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise error(f"edge {i} ({u[i]:.17g},{v[i]:.17g}) " + what.format(w=w[i], ell=ell[i]))

    in_range = (0 <= u) & (u < n_vertices) & (0 <= v) & (v < n_vertices)
    reject(~in_range, ValueError, f"out of range for {n_vertices} vertices")
    reject((np.floor(u) != u) | (np.floor(v) != v), ValueError, "has a vertex id that is not an integer")
    reject(u == v, SelfLoop, "is a self-loop")
    keys = np.minimum(u, v) * n_vertices + np.maximum(u, v)
    repeated = np.ones(len(edges), dtype=bool)
    repeated[np.unique(keys, return_index=True)[1]] = False
    reject(repeated, DuplicateEdge, "is listed more than once")
    reject(~((0 < w) & (w < np.inf)), NonPositiveWeight, "has weight {w}")
    reject(~((0 < ell) & (ell < np.inf)), NonPositiveLength, "has length {ell}")

    g = WeightedGraph(n_vertices, edges)
    # both orientations are stored, so strong components are the undirected ones (and need no transpose)
    n_comp, _ = connected_components(g._sparse_lengths, directed=True, connection="strong")
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

    Neighbours are picked in blocks of 128 rows. One matrix product per block
    gives approximate squared distances of the centred points; every column
    within their rounding error of the row's (k + 1)-th smallest value is a
    candidate. Only the candidates' exact distances, ``sqrt(sum((a - b)**2))``,
    are computed and ranked by (distance, index). Memory is O(128 n) plus the
    candidates' coordinates, about k + 1 per row unless the points sit far
    below the rounding scale of the cloud's spread.

    Raises :class:`DuplicatePoint` if two points coincide (a zero-length edge
    would have infinite weight) and :class:`DisconnectedGraph` if the union is
    not connected; the caller should raise ``k`` in that case.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    if n < 2:
        raise TooFewVertices("need at least 2 points")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    kk = min(k, n - 1)
    c = pts - pts.mean(axis=0)
    sq = (c * c).sum(axis=1)
    nearest = np.empty((n, kk + 1), dtype=np.intp)
    near_dist = np.empty((n, kk + 1))
    for lo in range(0, n, _KNN_BLOCK_ROWS):
        hi = min(lo + _KNN_BLOCK_ROWS, n)
        approx = (-2.0 * c[lo:hi]) @ c.T
        approx += sq
        approx += sq[lo:hi, None]
        t = np.partition(approx, kk, axis=1)[:, kk]
        # s bounds |approx - exact squared distance|: the rounding of the product,
        # the sums, the centring and the ranked distances below. The kk + 1 columns
        # at or below t have exact values <= t + s, so each true neighbour (ties
        # included) is at most t + s exactly and at most t + 2s approximately, and
        # no true neighbour is dropped. A nan or inf from overflow keeps the column.
        s = 16 * (dim + 2) * np.finfo(float).eps * (sq[lo:hi] + sq.max())
        row, col = np.divmod(np.flatnonzero(~(approx > (t + 2 * s)[:, None])), n)
        diff = pts[lo + row] - pts[col]
        dist = np.sqrt((diff * diff).sum(axis=1))
        # candidates come in (row, index) order and lexsort is stable, so this
        # ranks by row, then distance, then lower index: each row starts with its own point
        order = np.lexsort((dist, row))
        start = np.searchsorted(row, np.arange(hi - lo))
        take = order[start[:, None] + np.arange(kk + 1)]
        nearest[lo:hi] = col[take]
        near_dist[lo:hi] = dist[take]

    coincide = np.flatnonzero(near_dist[:, 1] == 0.0)
    if coincide.size:
        raise DuplicatePoint(f"points {coincide[0]} and {nearest[coincide[0], 1]} coincide")

    # (a - b)**2 == (b - a)**2, so both rows of a pair kept the same distance for it
    ends = np.sort(np.column_stack([np.repeat(np.arange(n), kk), nearest[:, 1:].ravel()]), axis=1)
    pairs, first = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True)
    d = near_dist[:, 1:].ravel()[first]
    return build_graph(np.column_stack([*np.divmod(pairs, n), 1.0 / d, d]), n)


def ball(g: WeightedGraph, center: int, r: float) -> np.ndarray:
    """Closed metric ball: vertices v with rho(v, center) <= r."""
    if not r >= 0:  # refuses nan too
        raise ValueError(f"radius must be >= 0, got {r}")
    return np.flatnonzero(g.distances_from(center) <= r)


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
