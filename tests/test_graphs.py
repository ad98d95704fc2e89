import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from graphsplines import (
    ball,
    build_graph,
    complement,
    cycle_graph,
    fill_distance,
    graph_metrics,
    knn_graph,
    lattice_graph,
    random_connected_graph,
)
from graphsplines.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    DuplicatePoint,
    EmptyNodeSet,
    InconsistentDimensions,
    NonPositiveLength,
    NonPositiveWeight,
    SelfLoop,
    TooFewVertices,
)


class TestBuildGraph:
    def test_minimal_two_vertex_graph(self):
        g = build_graph([(0, 1, 1.0, 1.0)])
        assert g.n_vertices == 2
        assert g.adjacency.toarray()[0, 1] == g.adjacency.toarray()[1, 0] == 1.0

    def test_declared_isolated_vertex_is_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph([(0, 1, 1.0, 1.0)], n_vertices=3)

    def test_both_orientations_are_a_duplicate(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(0, 1, 1.0, 1.0), (1, 0, 2.0, 1.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph([(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)])

    def test_rejects_nonpositive_weight_and_length(self):
        with pytest.raises(NonPositiveWeight):
            build_graph([(0, 1, 0.0, 1.0)])
        with pytest.raises(NonPositiveLength):
            build_graph([(0, 1, 1.0, -2.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight_and_length(self, bad):
        with pytest.raises(NonPositiveWeight):
            build_graph([(0, 1, bad, 1.0), (1, 2, 1.0, 1.0)])
        with pytest.raises(NonPositiveLength):
            build_graph([(0, 1, 1.0, bad), (1, 2, 1.0, 1.0)])

    def test_rejects_single_vertex(self):
        with pytest.raises(TooFewVertices):
            build_graph([], n_vertices=1)

    def test_rejects_an_empty_edge_list_with_no_vertex_count(self):
        with pytest.raises(TooFewVertices, match=r"^graph needs at least 2 vertices and an edge list$"):
            build_graph([])

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            build_graph([(0, 5, 1.0, 1.0)], n_vertices=2)


class TestGenerators:
    def test_cycle_4(self):
        g = cycle_graph(4)
        assert g.n_vertices == 4
        assert len(g.edges) == 4
        assert np.all(g.degrees == 2)

    def test_cycle_too_small(self):
        with pytest.raises(TooFewVertices):
            cycle_graph(2)

    def test_knn_of_one_point_is_refused(self):
        with pytest.raises(TooFewVertices, match=r"^need at least 2 points$"):
            knn_graph(np.zeros((1, 2)), 1)

    def test_random_connected_graph_of_one_vertex_is_refused(self):
        with pytest.raises(TooFewVertices, match=r"^need at least 2 vertices, got 1$"):
            random_connected_graph(1, np.random.default_rng(0))

    def test_cycle_6_shortest_path(self):
        assert cycle_graph(6).distances_from(0)[3] == 3.0

    def test_cycle_256_diameter(self):
        assert graph_metrics(cycle_graph(256)).diameter == 128.0

    def test_lattice_20x20(self):
        g = lattice_graph(20, 20)
        assert g.n_vertices == 400
        assert len(g.edges) == 760  # 2 * 20 * 19

    def test_lattice_1x2_single_edge(self):
        g = lattice_graph(1, 2)
        assert len(g.edges) == 1

    def test_lattice_2x2(self):
        g = lattice_graph(2, 2)
        assert len(g.edges) == 4
        assert np.all(g.degrees == 2)

    def test_knn_line_structure(self):
        # nearest-neighbor structure on collinear points 0, 1, 3 is forced
        g = knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1)
        assert sorted((u, v) for u, v, _, _ in g.edges) == [(0, 1), (1, 2)]
        lengths = {(u, v): ell for u, v, _, ell in g.edges}
        weights = {(u, v): w for u, v, w, _ in g.edges}
        assert lengths[(0, 1)] == 1.0 and lengths[(1, 2)] == 2.0
        assert weights[(0, 1)] == 1.0 and weights[(1, 2)] == 0.5

    def test_knn_duplicate_points(self):
        with pytest.raises(DuplicatePoint):
            knn_graph(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]), k=1)

    def test_knn_two_far_clusters_disconnected(self):
        pts = np.array([[0.0], [0.1], [0.2], [100.0], [100.1]])
        with pytest.raises(DisconnectedGraph):
            knn_graph(pts, k=1)

    def test_knn_adjacency_symmetric_with_degree_bounds(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 2))
        g = knn_graph(pts, k=5)
        assert np.all(g.adjacency.toarray() == g.adjacency.toarray().T)
        assert g.degrees.min() >= 1
        assert g.degrees.max() < 30


def _all_pairs(g):
    """All-pairs distances, one single-source search per row."""
    return np.array([g.distances_from(c) for c in range(g.n_vertices)])


class TestMetricSets:
    @pytest.mark.parametrize("vertex", [-1, 6])
    def test_complement_refuses_an_id_off_the_graph(self, vertex):
        # -1 used to wrap to the last vertex and 6 to raise a bare IndexError
        with pytest.raises(InconsistentDimensions, match=f"^vertex {vertex} out of range for 6 vertices$"):
            complement(cycle_graph(6), [vertex])
        assert complement(cycle_graph(6), [5, 0]).tolist() == [1, 2, 3, 4]

    def test_ball_on_cycle(self):
        g = cycle_graph(8)
        assert set(ball(g, 0, 1.0)) == {7, 0, 1}
        assert set(ball(g, 0, 0.0)) == {0}

    def test_ball_refuses_a_nan_radius(self):
        with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
            ball(cycle_graph(8), 0, float("nan"))

    def test_ball_at_diameter_is_everything(self):
        g = cycle_graph(9)
        d = graph_metrics(g).diameter
        assert ball(g, 4, d).size == 9

    def test_fill_distance_examples(self):
        g = cycle_graph(8)
        assert fill_distance(g, np.arange(8)) == 0.0
        assert fill_distance(g, np.arange(0, 8, 2)) == 1.0
        assert fill_distance(cycle_graph(256), np.arange(0, 256, 4)) == 2.0

    def test_fill_distance_empty(self):
        with pytest.raises(EmptyNodeSet):
            fill_distance(cycle_graph(4), [])

    def test_fill_distance_monotone_in_nodes(self):
        g = cycle_graph(32)
        small = np.arange(0, 32, 8)
        large = np.arange(0, 32, 4)  # superset
        assert fill_distance(g, small) >= fill_distance(g, large)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_metric_triangle_inequality(self, n, seed):
        g = random_connected_graph(n, np.random.default_rng(seed))
        rho = _all_pairs(g)
        assert np.all(np.abs(rho - rho.T) < 1e-12)
        assert np.all(rho[np.eye(n, dtype=bool)] == 0)
        # rho(u,v) <= rho(u,w) + rho(w,v) for all triples
        via = rho[:, :, None] + rho[None, :, :]
        assert np.all(rho <= via.min(axis=1) + 1e-9)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_distances_from_match_metric_rows_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        rho = _all_pairs(g)
        nodes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        assert np.array_equal(g.distances_from(nodes), rho[nodes].min(axis=0))

    def test_metric_against_floyd_warshall(self):
        g = random_connected_graph(25, np.random.default_rng(5))
        dist = np.full((25, 25), np.inf)
        for u, v, _, ell in g.edges:
            dist[u, v] = dist[v, u] = ell
        np.fill_diagonal(dist, 0.0)
        for k in range(25):
            dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
        assert np.allclose(_all_pairs(g), dist, atol=1e-12)

    def test_direct_edge_longer_than_path_is_overridden(self):
        # edge 0-2 is longer than the route through vertex 1
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 1.0, 10.0)])
        assert g.distances_from(0)[2] == 2.0

    def test_diameter_is_the_largest_single_source_distance_bit_for_bit(self):
        rng = np.random.default_rng(11)
        graphs = [random_connected_graph(n, rng) for n in (2, 9, 40)]
        graphs += [lattice_graph(5, 7, length=0.3), knn_graph(rng.uniform(size=(60, 5)), 4)]
        for g in graphs:
            assert graph_metrics(g).diameter == _all_pairs(g).max()


def knn_reference(points, k):
    """Edges of the k-NN graph from the full n x n x d difference tensor."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    n = points.shape[0]
    pairs = set()
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))
        for j in order[order != i][:k]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    return [(u, v, 1.0 / dist[u, v], dist[u, v]) for u, v in sorted(pairs)]


class TestKnnBlocks:
    def test_one_dimensional_points_are_one_column(self):
        line = np.array([0.0, 1.0, 3.0, 7.0, 7.5, 12.0])
        assert knn_graph(line, 2).edges == knn_graph(line[:, None], 2).edges

    @pytest.mark.parametrize("k", [4, 6])
    def test_integer_grid_with_exact_ties_matches_full_tensor(self, k):
        # 400 points span several row blocks; grid distances tie exactly
        grid = np.array([(x, y) for x in range(20) for y in range(20)], dtype=float)
        assert list(knn_graph(grid, k).edges) == knn_reference(grid, k)

    def test_random_cloud_matches_full_tensor(self):
        pts = np.random.default_rng(5).normal(size=(300, 3))
        assert list(knn_graph(pts, 5).edges) == knn_reference(pts, 5)

    @pytest.mark.parametrize("k", [6, 8])
    def test_a_row_of_exact_ties_beside_rows_of_k_plus_one_candidates(self, k):
        # the centre is exactly 1105 from each of the 108 integer points of its circle, so its
        # row ranks all 109 of them (itself included) while the block's other rows, the circle
        # points and a cloud just outside it, mostly have only the k + 1 they keep
        R = 5 * 13 * 17
        ring = sorted({(x, s * y) for x in range(-R, R + 1) for y in [math.isqrt(R * R - x * x)] for s in (1, -1)
                       if x * x + y * y == R * R})
        assert len(ring) == 108
        rng = np.random.default_rng(0)
        angle, radius = rng.uniform(0, 2 * np.pi, 59), R * (1.001 + 0.004 * rng.random(59))
        cloud = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        pts = np.vstack([[(0.0, 0.0)], np.array(ring, dtype=float), cloud])
        assert list(knn_graph(pts, k).edges) == knn_reference(pts, k)

    def test_duplicate_point_in_a_later_block(self):
        pts = np.random.default_rng(6).normal(size=(200, 2))
        pts[190] = pts[150]
        with pytest.raises(DuplicatePoint, match="points 150 and 190"):
            knn_graph(pts, 3)


def knn_outcome(build, points, k):
    """Edge tuples of ``build(points, k)``, or its exception type and message."""
    try:
        return list(build(points, k).edges)
    except Exception as exc:
        return type(exc), str(exc)


def reference_graph(points, k):
    """``knn_reference`` with ``knn_graph``'s coincident-point check in front of it."""
    diff = points[:, None, :] - points[None, :, :]
    zero = (diff * diff).sum(axis=2) == 0.0
    np.fill_diagonal(zero, False)
    if zero.any():
        i = int(np.flatnonzero(zero.any(axis=1))[0])
        raise DuplicatePoint(f"points {i} and {np.flatnonzero(zero[i])[0]} coincide")
    return build_graph(knn_reference(points, k), points.shape[0])


CLOUD_KINDS = ["gaussian", "offset", "lattice", "two scales", "offset lattice", "duplicate"]


def adversarial_cloud(kind, seed):
    """Seeded cloud of 20-700 points in 1-9 dimensions, and a k in 1-11."""
    rng = np.random.default_rng([CLOUD_KINDS.index(kind), seed])
    n, d, k = int(rng.integers(20, 701)), int(rng.integers(1, 10)), int(rng.integers(1, 12))
    if kind in ("lattice", "offset lattice"):
        side = int(np.ceil(n ** (1 / d))) + 1
        cells = rng.choice(side**d, size=n, replace=False)
        pts = np.stack(np.unravel_index(cells, (side,) * d), axis=1).astype(float)
        if kind == "lattice" and seed % 3 == 0:
            pts[rng.integers(n)] = pts[rng.integers(n)]
        return (3.7 + 0.1 * pts if kind == "offset lattice" else pts), k
    pts = rng.normal(size=(n, d))
    if kind == "offset":
        pts = 1e6 + 1e-7 * pts
    elif kind == "two scales":
        m = int(rng.integers(1, k + 1))
        pts = np.concatenate([1e-9 * pts[:m], 1e5 + 1e4 * pts[m:]])
    elif kind == "duplicate":
        i, j = rng.choice(n, size=2, replace=False)
        pts[j] = pts[i]
    return pts, k


class TestKnnCandidates:
    # the matrix-product candidates are approximate; rounding must never drop a
    # true neighbour or change a tie, on clouds whose distances round badly
    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    def test_seeded_clouds_match_the_reference(self, kind):
        for seed in range(10):
            pts, k = adversarial_cloud(kind, seed)
            assert knn_outcome(knn_graph, pts, k) == knn_outcome(reference_graph, pts, k), (kind, seed)

    def test_overflowing_distances_are_refused(self):
        # 4 max sq bounds every squared distance and partial sum; here it passes the double range
        pts = 1e160 * np.random.default_rng(12).normal(size=(50, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^point \d+ lies too far from the mean"):
                knn_graph(pts, 4)

    def test_distinct_points_whose_distance_underflows_are_refused(self):
        # (1e-170)^2 underflows to 0, but the points are not duplicates
        pts = np.array([[0.0, 0.0], [1e-170, 0.0], [3e-170, 0.0]])
        with pytest.raises(ValueError, match="points 0 and 1 differ"):
            knn_graph(pts, 1)

    # the former 128 x n x d difference tensor and full-row sort peaked at 56 MB here
    def test_knn_graph_memory_is_a_few_row_blocks(self):
        pts = np.random.default_rng(3000).normal(size=(3000, 8))
        assert traced_peak_mb(lambda: knn_graph(pts, 10)) <= 28.0


@st.composite
def badly_rounding_clouds(draw):
    """Up to 300 points, and a k, whose squared distances round badly in one fused product.

    An integer lattice scaled by 2^e (every distance exact, many tied), the same lattice shifted
    by a far offset (the centring and the product cancel), or a tight cluster beside a far one
    (the slack is set by the far cluster's norms).
    """
    kind = draw(st.sampled_from(["lattice", "far lattice", "two clusters"]))
    n, d, k = draw(st.integers(3, 300)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-40, 40))
    if kind == "two clusters":
        m = draw(st.integers(1, n - 1))
        tight = 2.0 ** draw(st.integers(-30, -10)) * rng.normal(size=(m, d))
        return np.concatenate([scale * tight, scale * (1e3 + rng.normal(size=(n - m, d)))]), k
    side = int(np.ceil(n ** (1 / d))) + 1
    cells = rng.choice(side**d, size=n, replace=False)
    pts = scale * np.stack(np.unravel_index(cells, (side,) * d), axis=1).astype(float)
    if kind == "far lattice":
        pts += scale * 2.0 ** draw(st.integers(10, 40)) * rng.uniform(1.0, 2.0, size=d)
    return pts, k


class TestKnnProperty:
    @given(badly_rounding_clouds())
    @settings(max_examples=30, deadline=None)
    def test_knn_graph_matches_the_reference(self, cloud):
        pts, k = cloud
        assert knn_outcome(knn_graph, pts, k) == knn_outcome(reference_graph, pts, k)


class TestEdgeTable:
    def test_array_input_matches_tuple_list(self):
        rng = np.random.default_rng(3)
        edges = list(random_connected_graph(30, rng).edges)
        rng.shuffle(edges)
        edges = [(v, u, w, ell) if i % 2 else (u, v, w, ell) for i, (u, v, w, ell) in enumerate(edges)]
        from_list = build_graph(edges, 30)
        from_array = build_graph(np.array(edges), 30)
        assert from_array.edges == from_list.edges
        assert all(type(u) is int and type(v) is int and u < v for u, v, _, _ in from_array.edges)
        assert np.array_equal(from_array.adjacency.toarray(), from_list.adjacency.toarray())
        assert np.array_equal(_all_pairs(from_array), _all_pairs(from_list))

    def test_each_error_names_the_first_offending_edge(self):
        path = [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)]
        with pytest.raises(DuplicateEdge, match=r"edge 3 \(2,1\) is listed more than once"):
            build_graph(path + [(2, 1, 1.0, 1.0), (1, 0, 1.0, 1.0)])
        with pytest.raises(NonPositiveLength, match=r"edge 2 \(2,3\) has length -1"):
            build_graph(path[:2] + [(2, 3, 1.0, -1.0), (3, 0, 1.0, 0.0)])
        with pytest.raises(ValueError, match=r"edge 1 \(1,7\) out of range for 4"):
            build_graph(path[:1] + [(1, 7, 1.0, 1.0)] + path[1:], n_vertices=4)

    def test_checks_run_in_order_across_the_whole_list(self):
        # a bad weight on edge 0 loses to the self-loop on edge 3
        edges = [(0, 1, -1.0, 1.0), (1, 2, 1.0, 1.0), (2, 0, 1.0, 1.0), (2, 2, 1.0, 1.0)]
        with pytest.raises(SelfLoop, match=r"edge 3 \(2,2\)"):
            build_graph(edges)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (3, 4), (5, 1)])
    def test_lattice_matches_loop_reference(self, rows, cols):
        expected = sorted(
            [(r * cols + c, r * cols + c + 1, 2.0, 0.5) for r in range(rows) for c in range(cols - 1)]
            + [(r * cols + c, (r + 1) * cols + c, 2.0, 0.5) for r in range(rows - 1) for c in range(cols)]
        )
        assert list(lattice_graph(rows, cols, weight=2.0, length=0.5).edges) == expected

    def test_rows_must_have_four_fields(self):
        with pytest.raises(ValueError):
            build_graph([(0, 1, 1.0), (1, 2, 1.0)])

    def test_rho_max_is_the_longest_edge(self):
        for seed in range(5):
            g = random_connected_graph(25, np.random.default_rng(seed))
            assert g.rho_max == graph_metrics(g).rho_max == max(ell for _, _, _, ell in g.edges)
        assert knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1).rho_max == 2.0

    def test_seeded_random_graphs_are_unchanged(self):
        # digest of the edge tables these seeds gave before the edge table was vectorised
        import hashlib

        h = hashlib.sha256()
        for n in (2, 3, 5, 17, 40, 101):
            for seed in range(5):
                h.update(np.array(random_connected_graph(n, np.random.default_rng(seed)).edges).tobytes())
        assert h.hexdigest() == "f8b35e0019060a7068c95ba29a279dec3afdf9a8fe784f61003aae5a4c2ef5b0"

    @pytest.mark.parametrize("source", [-1, 8, [0, 8], np.array([3, -2])])
    def test_out_of_range_sources_are_rejected(self, source):
        g = cycle_graph(8)
        with pytest.raises(ValueError, match="out of range for 8 vertices"):
            g.distances_from(source)
        with pytest.raises(ValueError):
            fill_distance(g, source if np.ndim(source) else [source])
        if np.ndim(source) == 0:
            with pytest.raises(ValueError):
                ball(g, source, 1.0)


class TestKnnSelection:
    @pytest.mark.parametrize("extra", [0, 7])
    def test_k_at_least_n_minus_one_gives_the_complete_graph(self, extra):
        pts = np.random.default_rng(8).normal(size=(150, 2))
        edges = list(knn_graph(pts, 149 + extra).edges)
        assert len(edges) == 150 * 149 // 2
        assert edges == knn_reference(pts, 149)

    def test_three_coincident_points_report_the_lowest_pair(self):
        pts = np.random.default_rng(9).normal(size=(200, 3))
        pts[[60, 140]] = pts[170]
        with pytest.raises(DuplicatePoint, match="points 60 and 140 coincide"):
            knn_graph(pts, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_rejected(self, bad):
        pts = np.random.default_rng(10).normal(size=(20, 2))
        pts[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            knn_graph(pts, 3)


def traced_peak_mb(build):
    """Peak traced allocation, in MB, while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestSparseStorage:
    def test_edges_are_stored_once_in_csr(self):
        g = random_connected_graph(40, np.random.default_rng(11))
        assert not [name for name, value in vars(g).items() if isinstance(value, np.ndarray)]
        assert g.adjacency.format == "csr" and g.adjacency.nnz == 2 * len(g.edges)
        dense = np.zeros((40, 40))
        for u, v, w, _ in g.edges:
            dense[u, v] = dense[v, u] = w
        assert np.array_equal(g.adjacency.toarray(), dense)

    def test_edges_are_built_from_the_csr_store(self):
        g = random_connected_graph(40, np.random.default_rng(12))
        assert "edges" not in vars(g)
        assert all(type(w) is float and type(ell) is float for _, _, w, ell in g.edges)
        assert repr(g) == f"WeightedGraph(n_vertices=40, n_edges={len(g.edges)})"

    def test_neighbors_and_degrees_match_the_dense_weights(self):
        for seed in range(5):
            g = random_connected_graph(30, np.random.default_rng(seed))
            W = g.adjacency.toarray()
            for v in range(g.n_vertices):
                assert np.array_equal(g.neighbors(v), np.flatnonzero(W[v] > 0))
            assert np.array_equal(g.degrees, np.count_nonzero(W, axis=1))

    # one dense 1500 x 1500 float matrix is 18 MB; the kept k + 1 nearest are 0.2 MB
    def test_knn_graph_builds_no_n_by_n_matrix(self):
        pts = np.random.default_rng(1500).random((1500, 2))
        assert traced_peak_mb(lambda: knn_graph(pts, 8)) < 18.0

    # one dense weight matrix of the 3600 vertices would be 104 MB
    def test_lattice_graph_builds_no_dense_weights(self):
        assert traced_peak_mb(lambda: lattice_graph(60, 60)) < 10.0


def test_non_integer_vertex_ids_are_refused_before_the_duplicate_check():
    # (0, 1.5) would otherwise fold into (0, 1) and (1, 2.7) become (1, 2)
    with pytest.raises(ValueError, match=r"edge 1 \(0,1.5\) has a vertex id that is not an integer"):
        build_graph([(0, 1, 1.0, 1.0), (0, 1.5, 2.0, 1.0), (1, 2, 1.0, 1.0), (2, 0, 1.0, 1.0)])
    with pytest.raises(ValueError, match=r"edge 2 \(1,2.7000000000000002\) has a vertex id"):
        build_graph(np.array([(0, 1, 1.0, 1.0), (2, 0, 1.0, 1.0), (1, 2.7, 1.0, 1.0)]), n_vertices=3)


def _coo_built(n, table, column):
    """Both orientations of every edge through scipy's COO to CSR conversion."""
    u, v = table[:, 0].astype(int), table[:, 1].astype(int)
    return csr_matrix((np.tile(table[:, column], 2), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))


def _same_csr(a, b):
    return all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    )


def _assembly_cases():
    graphs = [random_connected_graph(n, np.random.default_rng(seed)) for seed, n in enumerate((2, 3, 17, 64, 300))]
    graphs += [lattice_graph(7, 9), cycle_graph(256), knn_graph(np.random.default_rng(768).normal(size=(768, 8)), 10)]
    rng = np.random.default_rng(18)
    for g in graphs:
        table = np.array(g.edges)
        yield g.n_vertices, table
        yield g.n_vertices, table[::-1]
        yield g.n_vertices, table[rng.permutation(len(table))]
        yield g.n_vertices, table[:, [1, 0, 2, 3]]  # every edge listed as (v, u)


class TestCsrAssembly:
    def test_weights_and_lengths_equal_the_coo_built_csr(self):
        for n, table in _assembly_cases():
            g = build_graph(table, n)
            assert _same_csr(g.adjacency, _coo_built(n, table, 2))
            assert _same_csr(g._sparse_lengths, _coo_built(n, table, 3))

    def test_distances_equal_the_undirected_search_bit_for_bit(self):
        for n, table in _assembly_cases():
            g = build_graph(table, n)
            lengths = _coo_built(n, table, 3)
            sources = np.arange(0, n, 5)
            assert np.array_equal(g.distances_from(n - 1), dijkstra(lengths, directed=False, indices=n - 1))
            expected = dijkstra(lengths, directed=False, indices=sources, min_only=True)
            assert np.array_equal(g.distances_from(sources), expected)
            assert np.array_equal(_all_pairs(g), dijkstra(lengths, directed=False))
