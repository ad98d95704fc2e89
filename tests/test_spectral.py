import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix

from graphsplines import (
    LaplacianKind,
    build_graph,
    complement,
    cycle_graph,
    decompose_graph,
    dirichlet_eigenvalue,
    eigendecompose,
    knn_graph,
    laplacian,
    laplacian_power,
    lattice_graph,
    pseudo_inverse_power,
    random_connected_graph,
    sobolev_seminorm,
)
from graphsplines.errors import (
    EigensolverFailure,
    EmptyInterior,
    EmptySubset,
    FullVertexSet,
    MultipleZeroEigenvalues,
    NonPositiveAlpha,
)
from graphsplines.spectral import (
    _bipartite_eigenpairs,
    _colour_classes,
    _dirichlet_system,
    _fix_signs,
    _power,
    _sparse_laplacian,
)
from longdouble import cycle_power, extended

NORM = LaplacianKind.NORMALIZED
UNNORM = LaplacianKind.UNNORMALIZED


def two_vertex_graph():
    return build_graph([(0, 1, 1.0, 1.0)])


class TestLaplacian:
    def test_cycle_normalized_is_circulant(self):
        n = 7
        L = laplacian(cycle_graph(n), NORM)
        row = np.zeros(n)
        row[0], row[1], row[-1] = 1.0, -0.5, -0.5
        for i in range(n):
            assert np.allclose(L[i], np.roll(row, i))

    def test_two_vertex_unnormalized(self):
        L = laplacian(two_vertex_graph(), UNNORM)
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_unnormalized_row_sums_vanish(self):
        g = random_connected_graph(17, np.random.default_rng(0))
        L = laplacian(g, UNNORM)
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)


def stored_degrees(g):
    """Each row's stored weights added one by one, in stored order."""
    A = g.adjacency
    return np.array([sum(A.data[A.indptr[i] : A.indptr[i + 1]]) for i in range(g.n_vertices)])


def dense_laplacian(g, kind, deg=None):
    """The Laplacian from the dense weight matrix, as ``D - A`` scaled by ``outer(dinv, dinv)``;
    the degrees are the stored-order sums unless given."""
    A = g.adjacency.toarray()
    deg = stored_degrees(g) if deg is None else deg
    L = np.diag(deg) - A
    if kind is NORM:
        dinv = 1.0 / np.sqrt(deg)
        L = L * np.outer(dinv, dinv)
    return L


@pytest.mark.parametrize("kind", [NORM, UNNORM])
def test_sparse_built_laplacian_equals_the_dense_formula_bit_for_bit(kind):
    graphs = [random_connected_graph(n, np.random.default_rng(n)) for n in (2, 9, 64, 150)]
    graphs.append(knn_graph(np.random.default_rng(4).normal(size=(300, 3)), 6))
    for g in graphs:
        L = laplacian(g, kind)
        assert np.array_equal(L, dense_laplacian(g, kind))
        assert np.array_equal(L, L.T)
        # degrees as dense row sums of the weight matrix round differently; these graphs measured 2 ulps at most
        row_sums = dense_laplacian(g, kind, g.adjacency.toarray().sum(axis=1))
        assert np.abs(L - row_sums).max() <= 4 * np.finfo(float).eps * np.abs(L).max()


def fix_signs_loop(vectors):
    """Column by column: flip so the first entry above 1e-12 in magnitude is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def test_vectorised_sign_fix_matches_the_column_loop():
    matrices = [scipy.linalg.eigh(laplacian(cycle_graph(256), NORM))[1]]
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = random_connected_graph(int(rng.integers(2, 65)), rng)
        matrices.append(scipy.linalg.eigh(laplacian(g, NORM))[1])
    # columns led by tiny entries of either sign, and one with no entry above the threshold
    matrices.append(np.array([[-1e-13, 1e-13, -1e-13], [0.5, -0.5, 1e-14], [-0.2, 0.3, -1e-15]]))
    for Q in matrices:
        fixed = _fix_signs(Q)
        assert np.array_equal(fixed, fix_signs_loop(Q))
        assert fixed.flags.c_contiguous


def _seeded_graph(name):
    """A cycle-256 with weights in [0.95, 1.05], or a k = 10 graph of 768 uniform points in 8-D; seed 0."""
    rng = np.random.default_rng(0)
    if name == "weighted-cycle-256":
        w = rng.uniform(0.95, 1.05, 256)
        return build_graph([(i, (i + 1) % 256, float(w[i]), 1.0) for i in range(256)])
    return knn_graph(rng.random((768, 8)), 10)


class TestEigendecompose:
    def test_cycle4_normalized_spectrum(self):
        # independent oracle: circulant eigenvalues 1 - cos(2 pi k / n)
        s = decompose_graph(cycle_graph(4), NORM)
        expected = np.sort(1.0 - np.cos(2 * np.pi * np.arange(4) / 4))
        assert np.allclose(s.eigenvalues, expected, atol=1e-12)
        assert np.allclose(s.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_two_vertex_spectrum_by_characteristic_polynomial(self):
        # det([[1-t, -1], [-1, 1-t]]) = t(t-2) -> {0, 2}
        s = decompose_graph(two_vertex_graph(), UNNORM)
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-14)

    def test_kernel_vector_matches_degrees(self):
        g = random_connected_graph(12, np.random.default_rng(3))
        s = decompose_graph(g, NORM)
        assert s.eigenvalues[0] == 0.0
        assert s.eigenvalues[1] > s.zero_tolerance
        expected = np.sqrt(g.adjacency.toarray().sum(axis=1))
        expected /= np.linalg.norm(expected)
        assert np.allclose(s.kernel_vector, expected, atol=1e-9)
        assert np.all(s.kernel_vector >= -1e-12)

    def test_eigenvectors_orthonormal(self):
        s = decompose_graph(random_connected_graph(20, np.random.default_rng(4)), NORM)
        assert np.allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(20), atol=1e-12)

    @pytest.mark.parametrize("graph", ["weighted-cycle-256", "knn-768"])
    def test_eigenvectors_orthonormal_to_a_few_ulps(self, graph):
        # dsyevd: about 2e-15 on the cycle and 3e-15 on the k-NN graph; dsyevr gave 3.6e-13 and 1.2e-12
        Q = decompose_graph(_seeded_graph(graph), NORM).eigenvectors
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-13

    @pytest.mark.parametrize("graph", ["weighted-cycle-256", "knn-768"])
    def test_residual_is_kept_and_within_the_check_tolerance(self, graph):
        s = decompose_graph(_seeded_graph(graph), NORM)
        assert 0.0 < s.residual <= max(100 * s.zero_tolerance, 1e-10)

    def test_disconnected_input_detected(self):
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        L = scipy.linalg.block_diag(block, block)
        with pytest.raises(MultipleZeroEigenvalues):
            eigendecompose(L, UNNORM)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]), UNNORM)

    def test_significantly_negative_eigenvalue_is_refused(self):
        with pytest.raises(EigensolverFailure, match="smallest eigenvalue .* is significantly negative"):
            eigendecompose(-laplacian(cycle_graph(5), UNNORM), UNNORM)

    def test_normalized_eigenvalue_above_two_is_refused(self):
        # three times a normalized 5-cycle Laplacian: its largest eigenvalue is 3 (1 + cos(pi / 5)) = 5.4
        with pytest.raises(EigensolverFailure, match="exceeds the bound 2"):
            eigendecompose(3.0 * laplacian(cycle_graph(5), NORM), NORM)

    def test_symmetry_is_checked_to_an_absolute_1e_12(self):
        L = laplacian(cycle_graph(8), UNNORM)
        L[2, 3] += 1e-13  # one off-diagonal entry of one pair: not exactly symmetric, still accepted
        assert eigendecompose(L, UNNORM).n == 8
        L[2, 3] += 1e-11
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            eigendecompose(L, UNNORM)


def _bipartite_family():
    """Connected bipartite graphs: uniform and weighted even cycles, lattices, K_{3,5}, a star, a path,
    the 2-vertex graph and the 4-cycle (the colour classes differ in size in the 15 x 17 and 3 x 3 lattices,
    K_{3,5}, the star and the path)."""
    rng = np.random.default_rng(0)

    def weighted_cycle(n):
        w = rng.uniform(0.5, 2.0, n)
        return build_graph([(i, (i + 1) % n, float(w[i]), 1.0) for i in range(n)])

    return {
        "cycle-256": cycle_graph(256),
        "weighted-cycle-256": weighted_cycle(256),
        "weighted-cycle-512": weighted_cycle(512),
        "lattice-20x20": lattice_graph(20, 20),
        "lattice-15x17": lattice_graph(15, 17),
        "lattice-3x3": lattice_graph(3, 3),
        "K3,5": build_graph([(i, 3 + j, 1.0, 1.0) for i in range(3) for j in range(5)]),
        "star-12": build_graph([(0, j, 1.0, 1.0) for j in range(1, 12)]),
        "path-31": build_graph([(i, i + 1, 1.0, 1.0) for i in range(30)]),
        "two-vertex": two_vertex_graph(),
        "cycle-4": cycle_graph(4),
    }


class TestBipartiteRoute:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _bipartite_family().items()])
    def test_agrees_with_divide_and_conquer(self, g, decompositions):
        # measured against dsyevd: eigenvalues 2.1e-15, L^1.5 3.8e-15 relative, Q^T Q 2.4e-15, residual 3.4e-15
        L = laplacian(g, NORM)
        s = eigendecompose(L, NORM)
        assert decompositions == ["svd"]
        w, Q = scipy.linalg.eigh(L, driver="evd")
        w[0] = 0.0
        assert np.abs(s.eigenvalues - w).max() <= 2.1e-14
        ours = laplacian_power(g, 1.5, s)
        ref = (Q * np.where(w > 0, np.abs(w) ** 1.5, 0.0)) @ Q.T
        assert np.abs(ours - ref).max() <= 3.8e-14 * np.abs(ref).max()
        assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(g.n_vertices)).max() <= 2.4e-14
        assert s.residual <= 3.4e-14
        assert s.eigenvalues[0] == 0.0 and np.all(s.kernel_vector > 0)

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _bipartite_family().items()])
    def test_residual_from_the_blocks_is_the_dense_reconstruction_error(self, g):
        # the route reads max |Q diag(w) Q^T - L| from U, s and V^T block by block; the dense product of
        # the assembled Q and w also rounds sqrt(1/2) and 1 -+ s. Measured: 0 to 3.4e-15 by block, 2.2e-16
        # to 3.4e-15 dense, apart by at most 1.5 eps
        L = laplacian(g, NORM)
        w, Q, residual = _bipartite_eigenpairs(L, *_colour_classes(L))
        assert abs(residual - np.abs((Q * w) @ Q.T - L).max()) <= 4 * np.finfo(float).eps
        assert residual <= 3.4e-14

    @pytest.mark.parametrize("tamper", ["scaled-u-column", "swapped-vt-rows"])
    @pytest.mark.parametrize("name", ["weighted-cycle-256", "lattice-15x17"])
    def test_singular_vectors_that_do_not_reconstruct_are_refused(self, monkeypatch, name, tamper):
        # a U that is not orthonormal shows in U U^T - D_P; singular vectors paired with the wrong
        # partners keep V V^T and the eigenvalues but show in B - U_k S V_k^T
        svd = scipy.linalg.svd

        def tampered(*args, **kwargs):
            U, s, Vt = svd(*args, **kwargs)
            if tamper == "scaled-u-column":
                U[:, 3] *= 1 + 1e-6
            else:
                Vt[[0, 1]] = Vt[[1, 0]]
            return U, s, Vt

        monkeypatch.setattr(scipy.linalg, "svd", tampered)
        with pytest.raises(EigensolverFailure, match="does not reconstruct the input"):
            decompose_graph(_bipartite_family()[name], NORM)

    def test_divide_and_conquer_keeps_the_dense_reconstruction_check(self, monkeypatch):
        eigh = scipy.linalg.eigh

        def tampered(*args, **kwargs):
            w, Q = eigh(*args, **kwargs)
            Q[:, 3] *= 1 + 1e-6
            return w, Q

        monkeypatch.setattr(scipy.linalg, "eigh", tampered)
        with pytest.raises(EigensolverFailure, match="does not reconstruct the input"):
            decompose_graph(cycle_graph(9), NORM)

    @pytest.mark.parametrize(
        "graph, kind",
        [
            (cycle_graph(9), NORM),
            (knn_graph(np.random.default_rng(1).random((60, 3)), 5), NORM),
            (cycle_graph(8), UNNORM),
            (lattice_graph(4, 5), UNNORM),
        ],
        ids=["odd-cycle", "knn", "unnormalized-cycle", "unnormalized-lattice"],
    )
    def test_other_input_takes_divide_and_conquer(self, graph, kind, decompositions):
        s = decompose_graph(graph, kind)
        assert decompositions == ["eigh"]
        assert s.residual <= 1e-13

    def test_normalized_kind_off_the_unit_diagonal_takes_divide_and_conquer(self, decompositions):
        # half a normalized 8-cycle Laplacian: bipartite, but its diagonal is 0.5
        s = eigendecompose(0.5 * laplacian(cycle_graph(8), NORM), NORM)
        assert decompositions == ["eigh"]
        expected = np.sort(0.5 * (1.0 - np.cos(2 * np.pi * np.arange(8) / 8)))
        assert np.abs(s.eigenvalues - expected).max() <= 1e-15

    @pytest.mark.parametrize(
        "block",
        [laplacian(cycle_graph(4), NORM), laplacian(cycle_graph(3), NORM)],
        ids=["two-4-cycles", "two-triangles"],
    )
    def test_disconnected_pattern_is_refused_by_divide_and_conquer(self, block, decompositions):
        # two triangles double-cover in two components, as one bipartite graph does, but keep i beside n + i
        with pytest.raises(MultipleZeroEigenvalues):
            eigendecompose(scipy.linalg.block_diag(block, block), NORM)
        assert decompositions == ["eigh"]


_GRAM_GRAPHS = {
    "weighted-cycle-256": lambda: _seeded_graph("weighted-cycle-256"),
    "lattice-20x20": lambda: lattice_graph(20, 20),
    "knn-400-3d": lambda: knn_graph(np.random.default_rng(400).standard_normal((400, 3)), 6),
}


class TestDirichletSystem:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("name", sorted(_GRAM_GRAPHS))
    def test_a_fractional_block_is_exactly_symmetric_and_matches_the_power(self, name, alpha):
        # the Gram form G G^T is one symmetric product; against the rows of the eigenpair power it differs by
        # rounding only: at most 6.7e-16 of the largest entry in the block and 3.2e-15 in the right-hand side,
        # with one or two BLAS threads
        g = _GRAM_GRAPHS[name]()
        n = g.n_vertices
        rng = np.random.default_rng([n, int(10 * alpha)])
        unknown = np.sort(rng.permutation(n)[: n // 2])
        f0 = np.zeros((n, 2))
        f0[complement(g, unknown)] = rng.standard_normal((n - unknown.size, 2))
        s = decompose_graph(g)
        A, rhs = _dirichlet_system(g, alpha, s, unknown, f0)
        assert np.array_equal(A, A.T)
        assert np.linalg.eigvalsh(A)[0] > 0
        rows = _power(g, alpha, s, unknown)
        assert np.abs(A - rows[:, unknown]).max() <= 1e-14 * np.abs(rows).max()
        assert np.abs(rhs + rows @ f0).max() <= 4e-14 * np.abs(rows @ f0).max()

    @extended
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_a_fractional_system_matches_the_closed_form_cycle_power(self, n, alpha):
        # against the circulant L^alpha of the uniform cycle in long double; measured at most 4.7e-15 of
        # max|A| and 5.8e-15 of max|rhs|
        g = cycle_graph(n)
        nodes = np.arange(0, n, 4)
        unknown = complement(g, nodes)
        f0 = np.zeros(n)
        f0[nodes] = np.random.default_rng(n).standard_normal(nodes.size)
        A, rhs = _dirichlet_system(g, alpha, decompose_graph(g), unknown, f0)
        power = cycle_power(n, alpha)
        reference = power[np.ix_(unknown, unknown)]
        assert np.abs(A - reference).max() <= 5e-14 * np.abs(reference).max()
        reference = -(power[unknown] @ f0)
        assert np.abs(rhs - reference).max() <= 6e-14 * np.abs(reference).max()


class TestPseudoInversePower:
    def test_two_vertex_hand_value(self):
        s = decompose_graph(two_vertex_graph(), UNNORM)
        k = pseudo_inverse_power(s, 1.0)
        assert np.allclose(k.matrix, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_matches_scipy_pinv_oracle(self):
        g = random_connected_graph(15, np.random.default_rng(8))
        L = laplacian(g, NORM)
        s = eigendecompose(L, NORM)
        assert np.allclose(pseudo_inverse_power(s, 1.0).matrix, np.linalg.pinv(L), atol=1e-10)

    def test_power_consistency(self):
        s = decompose_graph(cycle_graph(10), NORM)
        k1 = pseudo_inverse_power(s, 1.0).matrix
        k2 = pseudo_inverse_power(s, 2.0).matrix
        assert np.allclose(k1 @ k1, k2, atol=1e-10)

    def test_annihilates_kernel_vector(self):
        s = decompose_graph(random_connected_graph(9, np.random.default_rng(2)), NORM)
        k = pseudo_inverse_power(s, 2.5)
        assert np.allclose(k.matrix @ s.kernel_vector, 0.0, atol=1e-10)

    def test_rejects_nonpositive_alpha(self):
        s = decompose_graph(cycle_graph(4), NORM)
        with pytest.raises(NonPositiveAlpha):
            pseudo_inverse_power(s, 0.0)


class TestSobolevSeminorm:
    def test_kernel_vector_has_zero_seminorm(self):
        s = decompose_graph(cycle_graph(6), NORM)
        assert sobolev_seminorm(s, s.kernel_vector, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_eigenvector_scaling(self):
        s = decompose_graph(cycle_graph(6), NORM)
        for k in (1, 3, 5):
            for alpha in (1.0, 2.0, 3.5):
                expected = s.eigenvalues[k] ** (alpha / 2)
                assert sobolev_seminorm(s, s.eigenvectors[:, k], alpha) == pytest.approx(expected, rel=1e-10)

    def test_two_vertex_hand_value(self):
        s = decompose_graph(two_vertex_graph(), UNNORM)
        # L f = (-1, 1) for f = (0, 1), so the alpha=2 semi-norm is sqrt(2)
        assert sobolev_seminorm(s, np.array([0.0, 1.0]), 2.0) == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_alpha2_matches_direct_matrix_action(self):
        g = random_connected_graph(14, np.random.default_rng(6))
        L = laplacian(g, NORM)
        s = eigendecompose(L, NORM)
        f = np.random.default_rng(7).standard_normal(14)
        assert sobolev_seminorm(s, f, 2.0) == pytest.approx(np.linalg.norm(L @ f), abs=1e-10)

    def test_empty_subset_rejected(self):
        s = decompose_graph(cycle_graph(4), NORM)
        with pytest.raises(EmptySubset):
            sobolev_seminorm(s, np.ones(4), 2.0, subset=[])


class TestDirichletEigenvalue:
    def test_single_vertex_interior_on_cycle(self):
        assert dirichlet_eigenvalue(laplacian(cycle_graph(8), NORM), [3]) == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_pair_interior(self):
        # eigenvalues of [[1, -1/2], [-1/2, 1]] are 1/2 and 3/2
        assert dirichlet_eigenvalue(laplacian(cycle_graph(8), NORM), [3, 4]) == pytest.approx(0.5, abs=1e-12)

    def test_full_and_empty_interiors_rejected(self):
        L = laplacian(cycle_graph(5), NORM)
        with pytest.raises(FullVertexSet):
            dirichlet_eigenvalue(L, list(range(5)))
        with pytest.raises(EmptyInterior):
            dirichlet_eigenvalue(L, [])


class TestSpectralInvariants:
    def test_projection_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(3, 30)), rng)
            s = decompose_graph(g, NORM)
            for alpha in (1.0, 2.0):
                f = rng.standard_normal(g.n_vertices)
                lhs = s.apply_power(s.apply_power(f, alpha), -alpha)
                expected = f - (f @ s.kernel_vector) * s.kernel_vector
                assert np.allclose(lhs, expected, atol=1e-8)

    def test_normalized_eigenvalues_bounded_by_two(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = decompose_graph(random_connected_graph(int(rng.integers(2, 40)), rng), NORM)
            assert s.eigenvalues[0] >= -1e-9
            assert s.eigenvalues[-1] <= 2.0 + 1e-9


class TestLaplacianPower:
    @pytest.mark.parametrize("kind", [NORM, UNNORM])
    def test_integer_power_matches_eigenpairs(self, kind):
        from graphsplines import laplacian_power

        rng = np.random.default_rng(14)
        for _ in range(5):
            g = random_connected_graph(int(rng.integers(3, 30)), rng)
            s = decompose_graph(g, kind)
            for alpha in (1, 2, 3):
                expected = (s.eigenvectors * s.eigenvalues**alpha) @ s.eigenvectors.T
                got = laplacian_power(g, float(alpha), s)
                assert np.allclose(got, expected, atol=1e-10)
        assert np.array_equal(laplacian_power(g, 1.0), laplacian(g, NORM))

    def test_integer_power_needs_no_eigendecomposition(self, monkeypatch):
        from graphsplines import laplacian_power

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr("graphsplines.spectral.eigendecompose", refuse)
        L = laplacian(cycle_graph(9), NORM)
        assert np.allclose(laplacian_power(cycle_graph(9), 2.0), L @ L, atol=1e-15)

    def test_integer_power_builds_no_dense_laplacian(self, monkeypatch):
        from graphsplines import laplacian_power

        g = random_connected_graph(40, np.random.default_rng(17))
        expected = laplacian(g, NORM)

        def refuse(*args, **kwargs):
            raise AssertionError("dense Laplacian built")

        monkeypatch.setattr("graphsplines.spectral.laplacian", refuse)
        assert np.allclose(laplacian_power(g, 2.0), expected @ expected, atol=1e-14)

    @pytest.mark.parametrize("kind", [NORM, UNNORM])
    def test_integer_power_is_the_product_of_the_sparse_laplacian(self, kind):
        from graphsplines import laplacian_power

        rng = np.random.default_rng(16)
        graphs = [random_connected_graph(n, rng) for n in (3, 17, 60, 120)] + [knn_graph(rng.normal(size=(200, 3)), 6)]
        for g in graphs:
            s = decompose_graph(g, kind)
            L = csr_matrix(laplacian(g, kind))
            power = L
            for alpha in (1, 2, 3, 4):
                assert np.array_equal(laplacian_power(g, float(alpha), s).view(np.uint64), power.toarray().view(np.uint64))
                power = power @ L
        # scipy's products leave their rows unsorted, so the last product must take the first
        # factor's entries in stored order to add each entry's terms as scipy does
        assert not (L @ L).has_sorted_indices and not (L @ L @ L).has_sorted_indices

    def test_fractional_power_is_symmetric_square_root(self):
        from graphsplines import laplacian_power

        g = random_connected_graph(12, np.random.default_rng(15))
        half = laplacian_power(g, 0.5)
        assert np.array_equal(half, half.T)
        assert np.allclose(half @ half, laplacian(g, NORM), atol=1e-12)

    def test_non_positive_alpha_rejected(self):
        from graphsplines import laplacian_power

        with pytest.raises(NonPositiveAlpha):
            laplacian_power(cycle_graph(5), 0.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_non_finite_alpha_is_refused(alpha):
    from graphsplines import laplacian_power, native_semi_inner_product

    g = cycle_graph(6)
    s = decompose_graph(g, NORM)
    f = np.arange(6.0)
    with pytest.raises(NonPositiveAlpha, match="positive and finite"):
        pseudo_inverse_power(s, alpha)
    with pytest.raises(NonPositiveAlpha, match="positive and finite"):
        laplacian_power(g, alpha)
    with pytest.raises(NonPositiveAlpha, match=">= 0 and finite"):
        sobolev_seminorm(s, f, alpha)
    with pytest.raises(NonPositiveAlpha, match=">= 0 and finite"):
        native_semi_inner_product(s, f, f, alpha)
    assert sobolev_seminorm(s, f, 0.0) == pytest.approx(np.linalg.norm(f))
    assert native_semi_inner_product(s, f, f, 0.0) == pytest.approx(f @ f)


def _laplacian_through_coo(g, kind):
    """The CSR Laplacian built with a COO to CSR conversion, from the stored-order degrees."""
    n, deg = g.n_vertices, stored_degrees(g)
    A = g.adjacency.tocoo()
    off, diag = -A.data, deg
    if kind is NORM:
        dinv = 1.0 / np.sqrt(deg)
        off = off * (dinv[A.row] * dinv[A.col])
        diag = deg * (dinv * dinv)
    idx = np.arange(n)
    rows, cols = np.concatenate([A.row, idx]), np.concatenate([A.col, idx])
    return csr_matrix((np.concatenate([off, diag]), (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("kind", [NORM, UNNORM])
def test_sparse_laplacian_arrays_equal_the_coo_built_csr(kind):
    graphs = [random_connected_graph(n, np.random.default_rng(n)) for n in (2, 9, 64, 150, 300)]
    graphs += [lattice_graph(7, 9), cycle_graph(256), knn_graph(np.random.default_rng(768).normal(size=(768, 8)), 10)]
    for g in graphs:
        L, expected = _sparse_laplacian(g, kind), _laplacian_through_coo(g, kind)
        for got, want in ((L.indptr, expected.indptr), (L.indices, expected.indices), (L.data, expected.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kind", [NORM, UNNORM])
def test_the_laplacian_build_needs_memory_in_proportion_to_the_stored_entries(kind):
    # a 150 x 150 lattice: any n-wide dense block of rows would dwarf the 1.4 MB result
    g = lattice_graph(150, 150)
    tracemalloc.start()
    try:
        L = _sparse_laplacian(g, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes)


def test_reading_an_edge_list_and_its_laplacian_builds_no_coo_matrix(tmp_path, monkeypatch):
    # the CSR arrays are assembled with numpy, so no COO matrix (and no COO to CSR pass) is made
    from scipy.sparse import _coo

    from graphsplines import io as gio

    path = tmp_path / "g.csv"
    gio.write_edge_csv(path, random_connected_graph(200, np.random.default_rng(5)))
    made = []
    init = _coo._coo_base.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_coo._coo_base, "__init__", counting)
    g = gio.read_edge_csv(path)
    for kind in (NORM, UNNORM):
        _sparse_laplacian(g, kind)
    g.distances_from([0, 7])
    assert made == []


@pytest.mark.parametrize("columns", [32, 3])
def test_apply_power_filters_each_column_of_a_matrix(columns):
    # Q^T F holds one row per eigenvalue, so the powers scale its rows whatever F's width
    g = cycle_graph(32)
    s = decompose_graph(g, NORM)
    F = np.random.default_rng(columns).standard_normal((32, columns))
    assert np.abs(s.apply_power(F, 1.0) - laplacian(g, NORM) @ F).max() <= 1e-12
    by_column = np.column_stack([s.apply_power(F[:, j], -1.5) for j in range(columns)])
    assert np.abs(s.apply_power(F, -1.5) - by_column).max() <= 1e-12 * np.abs(by_column).max()


def test_apply_power_refuses_a_function_of_another_length():
    from graphsplines.errors import DimensionMismatch

    s = decompose_graph(cycle_graph(6), NORM)
    with pytest.raises(DimensionMismatch):
        s.apply_power(np.ones(5), 1.0)


def test_seminorm_on_a_subset_restricts_the_filtered_function():
    g = cycle_graph(8)
    s = decompose_graph(g, NORM)
    f = np.arange(8.0)
    subset = [1, 4, 6]
    expected = np.linalg.norm((laplacian(g, NORM) @ f)[subset])
    assert sobolev_seminorm(s, f, 2.0, subset=subset) == pytest.approx(expected, rel=1e-12)
