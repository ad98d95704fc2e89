import numpy as np
import pytest

from graphsplines import (
    InterpolationProblem,
    LaplacianKind,
    build_graph,
    cycle_graph,
    decompose_graph,
    evaluate,
    knn_graph,
    lagrange_basis,
    lattice_graph,
    local_lagrange,
    native_semi_inner_product,
    pseudo_inverse_power,
    random_connected_graph,
    sobolev_seminorm,
    solve_interpolant,
    truncated_lagrange,
)
from graphsplines.errors import InconsistentDimensions, SingularSystem


@pytest.fixture(scope="module")
def cycle4_setup():
    g = cycle_graph(4)
    s = decompose_graph(g, LaplacianKind.NORMALIZED)
    k = pseudo_inverse_power(s, 2.0)
    return g, s, k


def make_setup(n, rng, n_nodes=None, alpha=2.0):
    g = random_connected_graph(n, rng)
    s = decompose_graph(g, LaplacianKind.NORMALIZED)
    k = pseudo_inverse_power(s, alpha)
    if n_nodes is None:
        return g, s, k
    nodes = np.sort(rng.choice(n, size=n_nodes, replace=False))
    return g, s, k, nodes


class TestSolveInterpolant:
    def test_full_node_set_reproduces_data_exactly(self, cycle4_setup):
        g, s, k = cycle4_setup
        data = np.eye(4)[0]
        p = InterpolationProblem(g, s, k.alpha, np.arange(4), data)
        assert np.allclose(evaluate(solve_interpolant(p), p), data, atol=1e-10)

    def test_two_node_symmetry_example(self, cycle4_setup):
        g, s, k = cycle4_setup
        p = InterpolationProblem(g, s, k.alpha, np.array([0, 2]), np.array([1.0, 0.0]))
        values = evaluate(solve_interpolant(p), p)
        assert np.allclose(values, [1.0, 0.5, 0.0, 0.5], atol=1e-10)

    def test_constant_data_is_pure_kernel_vector(self, cycle4_setup):
        # on a regular 4-cycle the kernel eigenvector is e/2, so constant 1 = 2 * v0
        g, s, k = cycle4_setup
        p = InterpolationProblem(g, s, k.alpha, np.array([0, 2]), np.array([1.0, 1.0]))
        i = solve_interpolant(p)
        assert i.constant == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(i.coefficients, 0.0, atol=1e-12)
        assert np.allclose(evaluate(i, p), 1.0, atol=1e-12)

    def test_side_condition_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g, s, k, nodes = make_setup(int(rng.integers(5, 40)), rng, n_nodes=4)
            p = InterpolationProblem(g, s, k.alpha, nodes, rng.standard_normal(4))
            i = solve_interpolant(p)
            assert abs(i.coefficients @ s.kernel_vector[nodes]) < 1e-9

    def test_node_data_reproduced(self):
        rng = np.random.default_rng(1)
        g, s, k, nodes = make_setup(30, rng, n_nodes=11)
        data = rng.standard_normal(11)
        p = InterpolationProblem(g, s, k.alpha, nodes, data)
        values = evaluate(solve_interpolant(p), p)
        assert np.allclose(values[nodes], data, atol=1e-8)

    def test_value_count_mismatch(self, cycle4_setup):
        g, s, k = cycle4_setup
        with pytest.raises(InconsistentDimensions):
            InterpolationProblem(g, s, k.alpha, np.array([0, 2]), np.array([1.0]))

    @pytest.mark.parametrize("nodes", [[], [0, 2, -1], [0, 2, 4], [0, 2, 2]])
    def test_bad_node_sets_rejected_by_every_solve(self, cycle4_setup, nodes):
        g, s, k = cycle4_setup
        with pytest.raises(InconsistentDimensions):
            InterpolationProblem(g, s, k.alpha, np.array(nodes, dtype=int), np.zeros(len(nodes)))
        with pytest.raises(InconsistentDimensions):
            lagrange_basis(k.alpha, s, g, nodes)
        with pytest.raises(InconsistentDimensions):
            local_lagrange(k.alpha, s, g, nodes, 0, 4.0)

    def test_singular_system_on_extreme_smoothness(self):
        # one node at alpha = 8: (L^8)_UU on the other 63 vertices has rcond about 5e-20, below eps
        g = cycle_graph(64)
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        k = pseudo_inverse_power(s, 8.0)
        with pytest.raises(SingularSystem):
            lagrange_basis(k.alpha, s, g, [0])
        # with every vertex a node there is no system to solve: the basis is the unit vectors
        assert np.array_equal(lagrange_basis(k.alpha, s, g, np.arange(64)).columns, np.eye(64))


def _normalized_eigenpairs(g):
    """Eigenpairs of the normalized Laplacian from ``np.linalg.eigh``, the zero eigenvalue set to 0."""
    dinv = 1.0 / np.sqrt(g.weights.sum(axis=1))
    lam, vecs = np.linalg.eigh(np.eye(g.n_vertices) - g.weights * np.outer(dinv, dinv))
    lam[0] = 0.0
    return lam, vecs


def dirichlet_oracle(g, alpha, nodes, data):
    """Interpolant from ``s_U = -(L^a)_UU^-1 (L^a)_UK F``, built with plain numpy.

    The spline has ``(L^a s)_U = 0`` on the unknown vertices U, so this solve
    needs neither the kernel nor the bordered system.
    """
    n = g.n_vertices
    lam, vecs = _normalized_eigenpairs(g)
    power = (vecs * lam**alpha) @ vecs.T
    unknown = np.setdiff1d(np.arange(n), nodes)
    out = np.empty(n)
    out[nodes] = data
    if unknown.size:
        out[unknown] = -np.linalg.solve(power[np.ix_(unknown, unknown)], power[np.ix_(unknown, nodes)] @ data)
    return out


def bordered_oracle(g, alpha, nodes, data):
    """Interpolant ``Phi(., K) beta + C v0`` from the bordered kernel system, built with plain numpy.

    The kernel ``Phi = sum_{k>=1} lambda_k^-a v_k v_k^T`` comes from the eigenpairs, and
    ``np.linalg.solve`` solves the (m+1) x (m+1) system ``[Phi~ v0~; v0~^T 0] [beta; C] = [F; 0]``.
    This is the kernel form of the spline, independent of the Dirichlet form the library solves.
    """
    nodes = np.asarray(nodes)
    lam, vecs = _normalized_eigenpairs(g)
    v0 = vecs[:, 0]
    kernel = (vecs[:, 1:] * lam[1:] ** -alpha) @ vecs[:, 1:].T
    m = nodes.size
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = kernel[np.ix_(nodes, nodes)]
    bordered[:m, m] = bordered[m, :m] = v0[nodes]
    sol = np.linalg.solve(bordered, np.append(data, 0.0))
    return kernel[:, nodes] @ sol[:m] + sol[m] * v0


class TestDirichletOracle:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_bordered_solve_matches_oracle(self, alpha):
        # solve_interpolant's coefficients, evaluated in the kernel form Phi beta + C v0 that the
        # bordered system describes, against the plain-numpy Dirichlet solve
        rng = np.random.default_rng(int(alpha * 10))
        for trial in range(12):
            n = int(rng.integers(4, 41))
            size = (1, n, int(rng.integers(2, n)))[trial % 3]
            g, s, k, nodes = make_setup(n, rng, n_nodes=size, alpha=alpha)
            data = rng.standard_normal(size)
            p = InterpolationProblem(g, s, k.alpha, nodes, data)
            values = evaluate(solve_interpolant(p), p)
            expected = dirichlet_oracle(g, alpha, nodes, data)
            assert np.abs(values - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())


class TestEvaluate:
    def test_pure_constant_term(self, cycle4_setup):
        g, s, k = cycle4_setup
        p = InterpolationProblem(g, s, k.alpha, np.arange(4), np.zeros(4))
        from graphsplines import Interpolant

        i = Interpolant(constant=1.0, coefficients=np.zeros(4), alpha=2.0, nodes=np.arange(4))
        assert np.allclose(evaluate(i, p), s.kernel_vector, atol=1e-14)

    def test_cardinal_data_on_all_vertices(self, cycle4_setup):
        g, s, k = cycle4_setup
        p = InterpolationProblem(g, s, k.alpha, np.arange(4), np.eye(4)[2])
        assert np.allclose(evaluate(solve_interpolant(p), p), np.eye(4)[2], atol=1e-10)


class TestNativeSemiInnerProduct:
    def test_kernel_vector_orthogonal_to_everything(self):
        rng = np.random.default_rng(2)
        g, s, k = make_setup(12, rng)
        f = rng.standard_normal(12)
        assert native_semi_inner_product(s, s.kernel_vector, f, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_eigenvector_orthogonality_and_scaling(self):
        s = decompose_graph(cycle_graph(7), LaplacianKind.NORMALIZED)
        assert native_semi_inner_product(s, s.eigenvectors[:, 1], s.eigenvectors[:, 4], 2.0) == pytest.approx(0.0, abs=1e-12)
        for alpha in (1.0, 2.0, 3.0):
            got = native_semi_inner_product(s, s.eigenvectors[:, 3], s.eigenvectors[:, 3], alpha)
            assert got == pytest.approx(s.eigenvalues[3] ** alpha, rel=1e-12)

    def test_consistent_with_seminorm(self):
        rng = np.random.default_rng(3)
        g, s, k = make_setup(15, rng)
        f = rng.standard_normal(15)
        assert native_semi_inner_product(s, f, f, 2.0) == pytest.approx(
            sobolev_seminorm(s, f, 2.0) ** 2, rel=1e-10
        )


class TestLagrangeBasis:
    def test_all_vertices_gives_unit_vectors(self, cycle4_setup):
        g, s, k = cycle4_setup
        basis = lagrange_basis(k.alpha, s, g, np.arange(4))
        assert np.allclose(basis.columns, np.eye(4), atol=1e-10)

    def test_columns_are_exactly_cardinal(self, cycle256_setup):
        # the columns are Dirichlet-form splines, which take the unit vectors as their node values
        _, _, _, nodes, basis = cycle256_setup
        assert np.array_equal(basis.columns[nodes], np.eye(nodes.size))
        g = lattice_graph(20, 20)  # acceptance criterion 7's lattice and nodes
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        nodes = np.array([r * 20 + c for r in range(0, 20, 2) for c in range(0, 20, 2)])
        basis = lagrange_basis(2.0, s, g, nodes)
        assert np.array_equal(basis.columns[nodes], np.eye(nodes.size))

    def test_cycle4_half_value(self, cycle4_setup):
        g, s, k = cycle4_setup
        basis = lagrange_basis(k.alpha, s, g, np.array([0, 2]))
        assert basis.columns[1, 0] == pytest.approx(0.5, abs=1e-10)

    def test_cardinality(self, cycle256_setup):
        _, _, _, nodes, basis = cycle256_setup
        on_nodes = basis.columns[nodes, :]
        assert np.allclose(on_nodes, np.eye(nodes.size), atol=1e-8)

    def test_far_envelope_much_smaller_than_near(self, cycle256_setup):
        # envelope over one node gap (width 4) so node zeros do not mask the level
        g, _, _, nodes, basis = cycle256_setup
        chi = np.abs(basis.columns[:, 0])
        d = g.metric[0]
        far = chi[d >= 64].max()
        near = chi[np.abs(d - 8) <= 2].max()
        assert far < near / 1e3

    def test_partition_of_unity_on_regular_graph(self, cycle256_setup):
        _, _, _, _, basis = cycle256_setup
        total = basis.columns.sum(axis=1)
        assert np.allclose(total, 1.0, atol=1e-8)

    def test_coefficient_symmetry_matches_inner_products(self):
        rng = np.random.default_rng(4)
        g, s, k, nodes = make_setup(25, rng, n_nodes=8)
        basis = lagrange_basis(k.alpha, s, g, nodes)
        coeffs = basis.coefficients
        assert np.abs(coeffs - coeffs.T).max() < 1e-8
        for a in range(0, 8, 3):
            for b in range(1, 8, 2):
                ip = native_semi_inner_product(s, basis.columns[:, a], basis.columns[:, b], 2.0)
                assert ip == pytest.approx(coeffs[b, a], abs=1e-8)

    def test_reproduces_expansions_of_the_same_form(self):
        rng = np.random.default_rng(5)
        g, s, k, nodes = make_setup(20, rng, n_nodes=6)
        beta = rng.standard_normal(6)
        u = s.kernel_vector[nodes]
        beta -= (beta @ u) / (u @ u) * u  # admissible coefficients satisfy the side condition
        f = k.matrix[:, nodes] @ beta + 1.7 * s.kernel_vector
        p = InterpolationProblem(g, s, k.alpha, nodes, f[nodes])
        assert np.allclose(evaluate(solve_interpolant(p), p), f, atol=1e-8)


class TestMinimalNorm:
    def test_orthogonality_and_minimality(self):
        rng = np.random.default_rng(6)
        g, s, k, nodes = make_setup(30, rng, n_nodes=9)
        p = InterpolationProblem(g, s, k.alpha, nodes, rng.standard_normal(9))
        s_fun = evaluate(solve_interpolant(p), p)
        s_norm = sobolev_seminorm(s, s_fun, 2.0)
        for _ in range(20):
            perturbation = rng.standard_normal(30)
            perturbation[nodes] = 0.0
            ip = native_semi_inner_product(s, perturbation, s_fun, 2.0)
            assert abs(ip) < 1e-8 * max(1.0, sobolev_seminorm(s, perturbation, 2.0) * s_norm)
            assert sobolev_seminorm(s, s_fun + perturbation, 2.0) >= s_norm * (1 - 1e-12)


class TestTruncatedLagrange:
    def test_radius_beyond_diameter_is_exact(self, cycle256_setup):
        g, s, _, _, basis = cycle256_setup
        chi = basis.columns[:, 0]
        trunc = truncated_lagrange(basis.alpha, s, g, basis.nodes, 0, 128.0)
        assert np.abs(trunc - chi).max() < 1e-10

    def test_single_kept_coefficient_is_projected_to_zero(self, cycle256_setup):
        g, s, k, nodes, basis = cycle256_setup
        # radius below the node spacing keeps only the center; the projection
        # against a single nonzero entry zeroes it, leaving the constant term
        trunc = truncated_lagrange(basis.alpha, s, g, nodes, 0, 1.0)
        expected = basis.constants[basis.center_index(0)] * s.kernel_vector
        assert np.allclose(trunc, expected, atol=1e-12)

    def test_projection_can_be_disabled(self, cycle256_setup):
        g, s, k, nodes, basis = cycle256_setup
        raw = truncated_lagrange(basis.alpha, s, g, nodes, 0, 1.0, reimpose_side_condition=False)
        j = basis.center_index(0)
        expected = k.matrix[:, [0]] @ basis.coefficients[[j], j] + basis.constants[j] * s.kernel_vector
        assert np.allclose(raw, expected, atol=1e-12)

    def test_truncation_error_against_tail_mass(self, cycle256_setup):
        g, s, k, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        kernel_sup = np.abs(k.matrix).max()
        for radius, recorded in ((16.0, 3.5), (32.0, 3.5e-2), (64.0, 1e-6)):
            trunc = truncated_lagrange(basis.alpha, s, g, nodes, 0, radius)
            dropped = g.metric[0, nodes] > radius
            tail_mass = np.abs(basis.coefficients[dropped, 0]).sum()
            diff = np.abs(trunc - chi).max()
            assert diff <= 10.0 * tail_mass * kernel_sup
            assert diff <= recorded  # regression bound from the dense-solve run


class TestLocalLagrange:
    def test_radius_beyond_diameter_matches_full(self, cycle256_setup):
        g, s, k, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        local = local_lagrange(k.alpha, s, g, nodes, 0, 128.0)
        assert np.abs(local - chi).max() < 1e-8

    def test_cardinality_on_neighborhood(self, cycle256_setup):
        g, s, k, nodes, _ = cycle256_setup
        local = local_lagrange(k.alpha, s, g, nodes, 0, 24.0)
        inside = nodes[g.metric[0, nodes] <= 24.0]
        expected = (inside == 0).astype(float)
        assert np.allclose(local[inside], expected, atol=1e-8)

    def test_cardinality_on_uneven_cycle_weights(self):
        # weights in [0.5, 2] on a cycle: the radius-24 system stays well posed and must be solved
        n = 256
        nodes = np.arange(0, n, 4)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            weights = rng.uniform(0.5, 2.0, n)
            g = build_graph([(min(i, (i + 1) % n), max(i, (i + 1) % n), weights[i], 1.0) for i in range(n)])
            s = decompose_graph(g, LaplacianKind.NORMALIZED)
            k = pseudo_inverse_power(s, 2.0)
            center = int(rng.choice(nodes))
            local = local_lagrange(k.alpha, s, g, nodes, center, 24.0)
            inside = nodes[g.metric[center, nodes] <= 24.0]
            assert np.allclose(local[inside], (inside == center).astype(float), atol=1e-8)

    def test_center_must_be_a_node(self, cycle256_setup):
        g, s, k, nodes, _ = cycle256_setup
        with pytest.raises(ValueError):
            local_lagrange(k.alpha, s, g, nodes, 1, 4.0)

    def test_zero_radius_is_refused(self, cycle256_setup):
        g, s, k, nodes, basis = cycle256_setup
        for refuse in (
            lambda: local_lagrange(k.alpha, s, g, nodes, 0, 0.0),
            lambda: truncated_lagrange(basis.alpha, s, g, nodes, 0, 0.0),
        ):
            with pytest.raises(ValueError, match="radius must be positive, got 0.0"):
                refuse()


def test_nan_radius_is_refused_and_infinite_radius_is_not(cycle256_setup):
    g, s, k, nodes, basis = cycle256_setup
    for refuse in (
        lambda: local_lagrange(k.alpha, s, g, nodes, 0, float("nan")),
        lambda: truncated_lagrange(basis.alpha, s, g, nodes, 0, float("nan")),
    ):
        with pytest.raises(ValueError, match="radius must be positive, got nan"):
            refuse()
    full = local_lagrange(k.alpha, s, g, nodes, 0, np.inf)
    assert np.array_equal(full[nodes], (nodes == 0).astype(float))


def _weighted_cycle(seed, n=256):
    """A cycle with seeded weights in [0.5, 2], every 4th vertex a node, a seeded center, truncation radius 32."""
    rng = np.random.default_rng([seed, n])
    weights = rng.uniform(0.5, 2.0, n)
    nodes = np.arange(0, n, 4)
    graph = build_graph([(i, (i + 1) % n, weights[i], 1.0) for i in range(n)])
    return graph, nodes, int(rng.choice(nodes)), 32.0


def _knn(seed, n=200):
    """k-NN graph of seeded points in the unit square, a quarter of them nodes, truncation radius 0.3."""
    rng = np.random.default_rng([seed, n])
    graph = knn_graph(rng.random((n, 2)), 8)
    nodes = np.sort(rng.permutation(n)[: n // 4])
    return graph, nodes, int(nodes[0]), 0.3


def _truncation_through_the_kernel(s, graph, nodes, center, radius, alpha, reproject):
    """The truncated function from the n x n kernel and all |K| cardinal functions of ``lagrange_basis``."""
    k = pseudo_inverse_power(s, alpha)
    basis = lagrange_basis(k.alpha, s, graph, nodes)
    j = int(np.flatnonzero(nodes == center)[0])
    kept = nodes[graph.distances_from(center)[nodes] <= radius]
    beta = basis.coefficients[np.isin(nodes, kept), j]
    if reproject:
        u = s.kernel_vector[kept]
        beta = beta - (beta @ u) / (u @ u) * u
    return k.matrix[:, kept] @ beta + basis.constants[j] * s.kernel_vector


@pytest.mark.parametrize("case", [*(f"cycle-{seed}" for seed in range(8)), *(f"knn-{seed}" for seed in range(3))])
def test_truncation_from_the_eigenpairs_matches_the_kernel_route(case):
    # Both routes read the same eigenpairs and Dirichlet-form cardinal functions: one solve for the
    # center here, one for all |K| of them there. The kept coefficients are applied through the
    # eigenpairs here and through the n x n kernel there, whose conditioning at alpha >= 2 amplifies
    # the last-bit differences: over these cases the worst difference was 9.5e-13 of max|chi| at
    # alpha = 1.5, 2.7e-11 at alpha = 2 and 1.1e-10 at alpha = 2.5.
    kind, seed = case.split("-")
    graph, nodes, center, radius = (_weighted_cycle if kind == "cycle" else _knn)(int(seed))
    s = decompose_graph(graph)
    for alpha in (1.5, 2.0, 2.5):
        for reproject in (True, False):
            chi = truncated_lagrange(alpha, s, graph, nodes, center, radius, reproject)
            reference = _truncation_through_the_kernel(s, graph, nodes, center, radius, alpha, reproject)
            assert np.abs(chi - reference).max() <= 1e-9 * np.abs(reference).max(), (alpha, reproject)


class TestRefusals:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_truncation_refuses_a_non_positive_or_non_finite_alpha(self, cycle256_setup, alpha):
        from graphsplines.errors import NonPositiveAlpha

        g, s, _, nodes, _ = cycle256_setup
        with pytest.raises(NonPositiveAlpha):
            truncated_lagrange(alpha, s, g, nodes, 0, 32.0)

    def test_truncation_refuses_a_center_off_the_nodes(self, cycle256_setup):
        g, s, _, nodes, _ = cycle256_setup
        with pytest.raises(ValueError):
            truncated_lagrange(2.0, s, g, nodes, 1, 32.0)

    def test_problem_refuses_a_decomposition_or_kernel_of_another_size(self, cycle4_setup):
        g, s, k = cycle4_setup
        other = decompose_graph(cycle_graph(5), LaplacianKind.NORMALIZED)
        with pytest.raises(InconsistentDimensions):
            InterpolationProblem(g, other, k.alpha, np.array([0, 2]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_problem_refuses_a_non_positive_or_non_finite_alpha(self, cycle4_setup, alpha):
        from graphsplines.errors import NonPositiveAlpha

        g, s, _ = cycle4_setup
        with pytest.raises(NonPositiveAlpha):
            InterpolationProblem(g, s, alpha, np.array([0, 2]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("nodes", [[0, 1], [0, 1, 2]])
    def test_evaluate_refuses_an_interpolant_of_other_nodes(self, cycle4_setup, nodes):
        g, s, k = cycle4_setup
        p = InterpolationProblem(g, s, k.alpha, np.array([0, 2]), np.array([1.0, 0.0]))
        other = InterpolationProblem(g, s, k.alpha, np.array(nodes), np.zeros(len(nodes)))
        with pytest.raises(InconsistentDimensions):
            evaluate(solve_interpolant(other), p)

    def test_evaluate_refuses_an_interpolant_of_another_alpha(self):
        g = cycle_graph(32)
        s = decompose_graph(g)
        nodes = np.arange(0, 32, 4)
        p = InterpolationProblem(g, s, 2.0, nodes, np.sin(nodes))
        other = InterpolationProblem(g, s, 3.0, nodes, np.sin(nodes))
        with pytest.raises(InconsistentDimensions, match="alpha = 3.0.*alpha = 2.0"):
            evaluate(solve_interpolant(other), p)

    def test_center_index_refuses_a_vertex_off_the_nodes(self, cycle256_setup):
        basis = cycle256_setup[4]
        assert basis.center_index(8) == 2
        with pytest.raises(ValueError):
            basis.center_index(1)


def test_evaluate_reads_no_kernel_matrix():
    # The expansion Phi(., K) beta + C v0 is applied through the eigenpairs, so a problem that holds
    # only alpha, and no kernel matrix, evaluates to the spline the coefficients came from.
    from graphsplines import spline_regress
    from graphsplines.graphs import complement

    rng = np.random.default_rng(7)
    g, s, k, nodes = make_setup(30, rng, n_nodes=9)
    data = rng.standard_normal(9)
    blind = InterpolationProblem(g, s, k.alpha, nodes, data)
    spline = np.empty(30)
    spline[nodes] = data
    spline[complement(g, nodes)] = spline_regress(g, nodes, data, k.alpha, s)
    values = evaluate(solve_interpolant(blind), blind)
    assert np.abs(values - spline).max() <= 1e-12 * np.abs(spline).max()


def test_every_vertex_a_node_at_a_fractional_alpha_decomposes_nothing(monkeypatch):
    # with K = V there is no unknown vertex, so L^1.5 and its eigenpairs are never needed
    import scipy.linalg

    from graphsplines import dirichlet_lagrange

    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    chi = dirichlet_lagrange(cycle_graph(32), range(32), 5, 1.5)
    assert np.array_equal(chi, np.eye(32)[5])
    assert calls == []
