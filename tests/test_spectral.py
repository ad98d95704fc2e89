import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix

from graphsplines import (
    LaplacianKind,
    build_graph,
    cycle_graph,
    decompose_graph,
    dirichlet_eigenvalue,
    eigendecompose,
    knn_graph,
    laplacian,
    lattice_graph,
    pseudo_inverse_power,
    random_connected_graph,
    sobolev_seminorm,
)
from graphsplines.errors import (
    EmptyInterior,
    EmptySubset,
    FullVertexSet,
    MultipleZeroEigenvalues,
    NonPositiveAlpha,
)
from graphsplines.spectral import _fix_signs, _sparse_laplacian

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


def dense_laplacian(g, kind):
    """The Laplacian from the dense weight matrix, as ``D - A`` scaled by ``outer(dinv, dinv)``."""
    A = g.weights
    deg = A.sum(axis=1)
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
        expected = np.sqrt(g.weights.sum(axis=1))
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
        assert dirichlet_eigenvalue(cycle_graph(8), [3], NORM) == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_pair_interior(self):
        # eigenvalues of [[1, -1/2], [-1/2, 1]] are 1/2 and 3/2
        assert dirichlet_eigenvalue(cycle_graph(8), [3, 4], NORM) == pytest.approx(0.5, abs=1e-12)

    def test_full_and_empty_interiors_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(FullVertexSet):
            dirichlet_eigenvalue(g, list(range(5)), NORM)
        with pytest.raises(EmptyInterior):
            dirichlet_eigenvalue(g, [], NORM)


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
        from scipy.sparse import csr_matrix

        from graphsplines import laplacian_power

        rng = np.random.default_rng(16)
        for n in (3, 17, 60, 120):
            g = random_connected_graph(n, rng)
            s = decompose_graph(g, kind)
            L = csr_matrix(laplacian(g, kind))
            power = L
            for alpha in (1, 2, 3):
                assert np.array_equal(laplacian_power(g, float(alpha), s).view(np.uint64), power.toarray().view(np.uint64))
                power = power @ L

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
    """The CSR Laplacian built with a COO to CSR conversion, from the same block degrees."""
    A, n = g.adjacency, g.n_vertices
    deg = np.concatenate([A[lo : lo + 128].toarray().sum(axis=1) for lo in range(0, n, 128)])
    A = A.tocoo()
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
