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
    of edge weights and the edge lengths. The ``edges`` tuples and the distances
    from given sources (:meth:`distances_from`) are built from them on each call
    and nothing is cached, so instances are safe to share between threads.

    The CSR arrays are assembled directly: ``order``, the :func:`build_graph`
    ``argsort`` of the key ``row * n + col`` of every end (``u0 v0``, ``v0 u0``,
    ``u1 v1``, ...), gives the sorted column indices and both data arrays;
    ``indptr`` is the running count of ends per row. The keys are unique as
    :func:`build_graph` refuses non-integer ids, self-loops and repeated
    pairs, so the result is the canonical CSR (sorted indices, no duplicates)
    that scipy's COO to CSR conversion gives, with no duplicate folding or
    format conversion.
    """

    def __init__(self, n_vertices: int, ends: np.ndarray, weights: np.ndarray, lengths: np.ndarray, order: np.ndarray):
        self.n_vertices = n = int(n_vertices)
        index = np.int32 if max(n, ends.size) <= np.iinfo(np.int32).max else np.int64
        indices = ends[:, ::-1].ravel()[order].astype(index)
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(ends.ravel(), minlength=n), out=indptr[1:])
        self.adjacency = csr_matrix((np.repeat(weights, 2)[order], indices, indptr), shape=(n, n))
        self._sparse_lengths = csr_matrix((np.repeat(lengths, 2)[order], indices, indptr), shape=(n, n))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """``(u, v, weight, length)`` per edge with ``u < v``, sorted by ``(u, v)``; built on each access."""
        A = self.adjacency
        rows = np.repeat(np.arange(self.n_vertices), np.diff(A.indptr))
        upper = A.indices > rows  # the lengths share this sorted CSR pattern
        columns = (rows[upper], A.indices[upper], A.data[upper], self._sparse_lengths.data[upper])
        return tuple(zip(*(c.tolist() for c in columns)))

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
    """The one all-pairs search in the package: its largest distance is the diameter."""
    diameter = float(dijkstra(g._sparse_lengths, directed=True).max())
    return GraphMetrics(max_degree=int(g.degrees.max()), rho_max=g.rho_max, diameter=diameter)


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
    # one sort of the directed keys orders the CSR store; two share a key only if a pair is listed
    # twice, and as equal keys sort in no set order, np.unique then finds each pair's first listing
    ends = np.column_stack([u, v]).astype(np.int64)
    keys = (ends * n_vertices + ends[:, ::-1]).ravel()
    order = np.argsort(keys)
    repeated = np.zeros(len(edges), dtype=bool)
    if (np.diff(keys[order]) == 0).any():
        repeated[:] = True
        repeated[np.unique(keys.reshape(-1, 2).min(axis=1), return_index=True)[1]] = False
    reject(repeated, DuplicateEdge, "is listed more than once")
    reject(~((0 < w) & (w < np.inf)), NonPositiveWeight, "has weight {w}")
    reject(~((0 < ell) & (ell < np.inf)), NonPositiveLength, "has length {ell}")

    g = WeightedGraph(n_vertices, ends, w, ell, order)
    # both orientations are stored, so strong components are the undirected ones (and need no transpose)
    n_comp, _ = connected_components(g._sparse_lengths, directed=True, connection="strong")
    if n_comp != 1:
        raise DisconnectedGraph(f"graph has {n_comp} connected components")
    return g


def cycle_graph(n: int, weight: float = 1.0, length: float = 1.0) -> WeightedGraph:
    """Ring v0 - v1 - ... - v_{n-1} - v0 with uniform weight and length."""
    if n < 3:
        raise TooFewVertices(f"cycle needs at least 3 vertices, got {n}")
    ring = np.arange(n)
    return build_graph(np.column_stack([ring, (ring + 1) % n, np.full((n, 2), (weight, length))]), n)


def lattice_graph(rows: int, cols: int, weight: float = 1.0, length: float = 1.0) -> WeightedGraph:
    """4-neighbor grid with ``rows * cols`` vertices in row-major order."""
    if min(rows, cols) < 1 or rows * cols < 2:
        raise TooFewVertices(f"lattice needs at least 2 vertices, got {rows} rows and {cols} cols")
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

    Neighbours are picked in blocks of 128 rows. With ``c`` the centred points
    and ``sq`` their squared norms, one product per block,
    ``[-2c, 1, sq][lo:hi] @ [c, sq, 1]^T``, gives approximate squared distances;
    every column within their rounding error of the row's (k + 1)-th smallest
    value is a candidate.
    Only the candidates' exact distances, ``sqrt(sum((a - b)**2))``, are
    computed, and each block ranks its own candidates by distance, then index.
    Memory is O(128 n): a block's candidates are at most 128 n, and about k + 1
    per row unless the points sit far below the rounding scale of the spread.
    The product's d + 2 terms have absolute sum at most ``2 (sq_i + sq_j)``
    (Cauchy-Schwarz), so in any order, fused or not, it is off by at most
    ``gamma_{d+2} 2 (sq_i + sq_j) ~ (d + 2) eps (sq_i + max sq)`` (Higham 2002,
    sec. 3.1), a sixteenth of the slack ``s`` below.

    Raises :class:`DuplicatePoint` if two points coincide (a zero-length edge
    would have infinite weight) and :class:`DisconnectedGraph` if the union is
    not connected; the caller should raise ``k`` in that case. Raises
    ``ValueError`` naming a point when ``4 max sq`` overflows, since that
    bounds every exact squared distance and every partial sum of the product,
    and naming two points that differ but whose nearest distance underflows
    to 0.
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
    with np.errstate(over="ignore", invalid="ignore"):
        c = pts - pts.mean(axis=0)
        sq = (c * c).sum(axis=1)
        reach = 4 * sq.max()
    if not np.isfinite(reach):
        # every exact |a - b|^2 and every partial sum of the product is at most 4 max sq
        far = np.argmax(np.abs(c).max(axis=1))
        raise ValueError(f"point {far} lies too far from the mean: squared distances overflow a double")
    left, right = np.column_stack([-2.0 * c, np.ones(n), sq]), np.column_stack([c, sq, np.ones(n)])
    nearest = np.empty((n, kk + 1), dtype=np.intp)
    near_dist = np.empty((n, kk + 1))
    for lo in range(0, n, _KNN_BLOCK_ROWS):
        approx = left[lo : lo + _KNN_BLOCK_ROWS] @ right.T
        t = np.partition(approx, kk, axis=1)[:, kk]
        # s bounds |approx - exact squared distance|: the product (see above), the centring
        # and the ranked distances below. The kk + 1 columns at or below t have exact values
        # <= t + s, so each true neighbour (ties included) is at most t + s exactly and at most
        # t + 2s approximately, and no true neighbour is dropped. A nan or inf keeps the column.
        s = 16 * (dim + 2) * np.finfo(float).eps * (sq[lo : lo + len(t)] + sq.max())
        row, col = np.divmod(np.flatnonzero(~(approx > (t + 2 * s)[:, None])), n)
        diff = pts[lo + row] - pts[col]
        dist = np.sqrt((diff * diff).sum(axis=1))
        # each row's candidates, in index order, padded with +inf to the widest row; a stable
        # sort ranks by distance, then lower index, and puts the padding after a real +inf
        counts = np.bincount(row, minlength=len(t))
        starts = np.cumsum(counts) - counts
        ranked = np.full((len(t), counts.max()), np.inf)
        ranked[row, np.arange(row.size) - starts[row]] = dist
        take = starts[:, None] + np.argsort(ranked, axis=1, kind="stable")[:, : kk + 1]
        nearest[lo : lo + len(t)], near_dist[lo : lo + len(t)] = col[take], dist[take]

    coincide = np.flatnonzero(near_dist[:, 1] == 0.0)
    if coincide.size:
        i, j = coincide[0], nearest[coincide[0], 1]
        if (pts[i] != pts[j]).any():
            raise ValueError(f"points {i} and {j} differ, but their squared distance underflows to 0")
        raise DuplicatePoint(f"points {i} and {j} coincide")

    # (a - b)**2 == (b - a)**2, so both rows of a pair kept the same distance for it, and
    # any of a pair's (at most two) listings gives its distance
    here, there = np.repeat(np.arange(n), kk), nearest[:, 1:].ravel()
    keys = np.minimum(here, there) * n + np.maximum(here, there)
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    d = near_dist[:, 1:].ravel()[order[first]]
    return build_graph(np.column_stack([*np.divmod(keys[first], n), 1.0 / d, d]), n)


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
