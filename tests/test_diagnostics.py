import numpy as np
import pytest
import scipy.linalg

from graphsplines import (
    DecayProfile,
    LaplacianKind,
    build_graph,
    bulk_ratio,
    cycle_cover_constant,
    cycle_graph,
    decay_profile,
    decay_scale,
    decompose_graph,
    dirichlet_lagrange,
    fill_distance,
    fit_exponential_decay,
    graph_metrics,
    knn_graph,
    laplacian,
    lattice_graph,
    ml_cover_constant,
    random_connected_graph,
    zeros_bound_ratio,
    zeros_lemma_check,
)
from graphsplines.diagnostics import random_known_unknown_graph
from graphsplines.errors import (
    DegenerateDenominator,
    HypothesisViolated,
    InconsistentDimensions,
    InsufficientData,
    NotACycle,
    TooFewNodes,
)


class TestDecayProfile:
    def test_indicator_function(self):
        g = cycle_graph(8)
        p = decay_profile(np.eye(8)[0], g, 0, 1.0)
        assert p.envelopes[0] == 1.0
        assert np.all(p.envelopes[1:] == 0.0)

    def test_constant_function(self):
        g = cycle_graph(8)
        p = decay_profile(np.ones(8), g, 0, 1.0)
        assert np.all(p.envelopes == 1.0)
        assert np.all(np.diff(p.distances) > 0)

    def test_every_vertex_in_exactly_one_bin(self):
        g = random_connected_graph(20, np.random.default_rng(1))
        f = np.random.default_rng(2).standard_normal(20)
        p = decay_profile(f, g, 3, 0.7)
        d = g.distances_from(3)
        counts = sum(int(np.sum(np.floor(d / 0.7 + 0.5) == round(dist / 0.7))) for dist in p.distances)
        assert counts == 20

    @pytest.mark.parametrize("bin_width", [0.37, 1e-9, 1e-300])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_bin_maxima_match_the_per_bin_mask_loop_bit_for_bit(self, bin_width, with_nan):
        rng = np.random.default_rng(5)
        g = knn_graph(rng.random((300, 2)), 6)
        f = rng.standard_normal(300)
        if with_nan:
            f[17] = np.nan
        p = decay_profile(f, g, 4, bin_width)
        bins = np.floor(g.distances_from(4) / bin_width + 0.5)
        uniq = np.unique(bins)
        expected = np.array([np.abs(f[bins == b]).max() for b in uniq])
        assert p.distances.tobytes() == (uniq * bin_width).tobytes()
        assert p.envelopes.tobytes() == expected.tobytes()
        assert np.isnan(p.envelopes).sum() == int(with_nan)

    def test_lagrange_envelope_decreases_over_reliable_range(self, cycle256_setup):
        g, _, _, nodes, basis = cycle256_setup
        p = decay_profile(basis.columns[:, 0], g, 0, 4.0)
        reliable = p.envelopes > 1e-10
        assert np.all(np.diff(p.envelopes[reliable][1:]) < 0)


class TestFitExponentialDecay:
    def test_exact_log_linear_data_recovered(self):
        d = np.arange(11.0)
        profile = DecayProfile(center=0, distances=d, envelopes=2.0 * np.exp(-0.5 * d))
        fit = fit_exponential_decay(profile)
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.no_decay

    def test_rate_reparametrized_by_scale(self):
        d = np.arange(6.0)
        profile = DecayProfile(center=0, distances=d, envelopes=np.exp(-0.5 * d))
        scale = decay_scale(2.0, 1.0)  # 1 / 11
        fit = fit_exponential_decay(profile, scale=scale)
        assert fit.rate == pytest.approx(np.exp(-0.5 / scale), rel=1e-10)
        assert 0 < fit.rate < 1

    def test_constant_envelope_flags_no_decay(self):
        profile = DecayProfile(center=0, distances=np.arange(5.0), envelopes=np.ones(5))
        fit = fit_exponential_decay(profile)
        assert fit.no_decay
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_positive_bins(self):
        profile = DecayProfile(center=0, distances=np.arange(4.0), envelopes=np.array([1.0, 0.5, 0.0, 0.0]))
        with pytest.raises(InsufficientData):
            fit_exponential_decay(profile)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        profile = DecayProfile(center=0, distances=np.arange(5.0), envelopes=np.exp(-0.5 * np.arange(5.0)))
        with pytest.raises(ValueError, match="fit scale"):
            fit_exponential_decay(profile, scale=scale)


class TestBulkRatio:
    def test_below_one_on_cycle(self, cycle256_setup):
        g, s, _, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        h = fill_distance(g, nodes)
        rho_max = graph_metrics(g).rho_max
        r2 = 3 * rho_max + 2 * h + 1
        assert bulk_ratio(chi, s, g, 0, r2, r2 + 8, h, rho_max) < 1.0

    def test_nonincreasing_in_r3(self, cycle256_setup):
        g, s, _, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        h, rho_max = 2.0, 1.0
        r2 = 10.0
        ratios = [bulk_ratio(chi, s, g, 0, r2, r3, h, rho_max) for r3 in (12.0, 16.0, 20.0, 24.0)]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_degenerate_when_function_has_no_tail(self):
        g = cycle_graph(64)
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        # an indicator at the center: L f is supported within distance 1,
        # so the semi-norm outside radius r1 = 4 vanishes identically
        f = np.eye(64)[0]
        with pytest.raises(DegenerateDenominator):
            bulk_ratio(f, s, g, 0, 10.0, 14.0, 1.0, 1.0)

    def test_inadmissible_radii_rejected(self, cycle256_setup):
        g, s, _, nodes, basis = cycle256_setup
        with pytest.raises(ValueError):
            bulk_ratio(basis.columns[:, 0], s, g, 0, 5.0, 9.0, 2.0, 1.0)

    def test_measures_a_tail_far_below_the_semi_norm(self):
        # chi = exp(-2d) on cycle-64: L chi is (1 - cosh 2) exp(-2k) at distance k = 1..31 and
        # exp(-64) - exp(-62) at the antipode, so the tails outside radii 27 and 17 stand near exp(-20);
        # a floor of n eps ||L chi|| on the denominator refused this one as vanishing
        g = cycle_graph(64)
        chi = np.exp(-2.0 * g.distances_from(0))
        k = np.arange(1, 32)
        side = (1.0 - np.cosh(2.0)) * np.exp(-2.0 * k)
        antipode = np.exp(-64.0) - np.exp(-62.0)

        def tail(r):
            return np.sqrt(2.0 * (side[k > r] ** 2).sum() + antipode**2)

        ratio = bulk_ratio(chi, decompose_graph(g, LaplacianKind.NORMALIZED), g, 0, 21.0, 25.0, 1.0, 1.0)
        assert ratio == pytest.approx(tail(27) / tail(17), rel=1e-12)
        assert ratio == pytest.approx(2.0612e-9, rel=1e-4)


class TestZerosBound:
    def test_two_vertex_bound_is_tight(self):
        g = build_graph([(0, 1, 1.0, 1.0)])
        s = decompose_graph(g, LaplacianKind.UNNORMALIZED)
        assert zeros_bound_ratio(s, np.array([0.0, 1.0]), 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function_skipped(self):
        g = build_graph([(0, 1, 1.0, 1.0)])
        s = decompose_graph(g, LaplacianKind.UNNORMALIZED)
        assert zeros_bound_ratio(s, np.zeros(2), 2.0) == 0.0

    def test_random_graphs_never_violate(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            g = random_connected_graph(int(rng.integers(2, 40)), rng)
            for alpha in (1.0, 2.0, 4.0):
                report = zeros_lemma_check(g, alpha, trials=4, seed=int(rng.integers(2**31)))
                assert report.passed
                assert report.max_ratio <= 1.0 + 1e-9


def test_zeros_lemma_suite_decomposes_each_graph_once(monkeypatch):
    from graphsplines import spectral
    from graphsplines.diagnostics import verify_zeros_lemma

    calls = []
    original = spectral.eigendecompose

    def counting(L, kind):
        calls.append(kind)
        return original(L, kind)

    monkeypatch.setattr(spectral, "eigendecompose", counting)
    ok, _, _, rows = verify_zeros_lemma(10, 0)
    assert ok and len(rows) == 30
    assert calls == [LaplacianKind.UNNORMALIZED] * 10


def test_bulk_ratio_filters_the_function_once(monkeypatch):
    from graphsplines import diagnostics

    g = cycle_graph(64)
    s = decompose_graph(g, LaplacianKind.NORMALIZED)
    chi = np.exp(-0.5 * g.distances_from(0))
    calls = []
    original = diagnostics._power

    def counting(graph, alpha, *args):
        calls.append(alpha)
        return original(graph, alpha, *args)

    monkeypatch.setattr(diagnostics, "_power", counting)
    ratio = bulk_ratio(chi, s, g, 0, 8.0, 12.0, 1.0, 1.0)
    assert 0.0 < ratio < 1.0
    assert calls == [1]


def test_bulk_ratio_suite_filters_and_searches_once(monkeypatch):
    from graphsplines import WeightedGraph, diagnostics

    calls = {"_power": 0, "distances_from": 0}
    for owner, name in ((diagnostics, "_power"), (WeightedGraph, "distances_from")):

        def counting(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    ok, _, _, rows = diagnostics.verify_bulk_ratio(16, 0)
    assert ok and len(rows) == 16
    # one filter of chi and one search from the center, beside the one in fill_distance
    assert calls == {"_power": 1, "distances_from": 2}


def test_bulk_ratio_suite_matches_a_least_squares_lagrange_function():
    # At alpha = 2, L^2 = L^T L, so the least-squares fit of L chi = 0 on the non-nodes is the
    # cardinal function. The suite's ratios matched it to 2.8e-8 relative (4.5e-4 when chi came
    # from a bordered kernel solve); the far tails are tiny, so this reads the accuracy of chi.
    from graphsplines.diagnostics import _bulk_ratios, verify_bulk_ratio

    _, _, _, rows = verify_bulk_ratio(100, 0)
    g = cycle_graph(256)
    nodes = np.arange(0, 256, 4)
    lap = laplacian(g, LaplacianKind.NORMALIZED)
    unknown = np.setdiff1d(np.arange(256), nodes)
    chi = np.zeros(256)
    chi[0] = 1.0
    chi[unknown] = np.linalg.lstsq(lap[:, unknown], -lap[:, 0], rcond=None)[0]
    radii = [(float(r2), float(r3)) for r2, r3, _ in rows]
    filtered = decompose_graph(g, LaplacianKind.NORMALIZED).apply_power(chi, 1.0)
    reference = np.array(_bulk_ratios(filtered, g.distances_from(0), radii, fill_distance(g, nodes), g.rho_max))
    ratios = np.array([float(ratio) for _, _, ratio in rows])
    assert np.all(np.abs(ratios - reference) <= 1e-6 * reference)


def _weighted_cycle(n: int, seed: int):
    w = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    return build_graph([(i, (i + 1) % n, float(w[i]), 1.0) for i in range(n)])


_TAIL_CASES = {
    "cycle-256": (lambda: cycle_graph(256), np.arange(0, 256, 4), 0),
    "weighted-cycle-256": (lambda: _weighted_cycle(256, 0), np.arange(0, 256, 4), 0),
    "lattice-20x20": (lambda: lattice_graph(20, 20), np.arange(400).reshape(20, 20)[::2, ::2].ravel(), 210),
}


@pytest.mark.parametrize("case", list(_TAIL_CASES))
def test_bulk_ratio_matches_a_long_double_stencil(case):
    # Every ratio of the suite's 10 x 10 radius sweep whose inner ball leaves some vertex outside,
    # against L chi and its norms in long double from the stored CSR Laplacian on the same chi. The
    # eigenpair route missed by up to 6.2e-9, 1.1e-8 and 5.8e-10 relative; the CSR one by 3.5e-16.
    from graphsplines.spectral import _sparse_laplacian

    make, nodes, center = _TAIL_CASES[case]
    g = make()
    s = decompose_graph(g, LaplacianKind.NORMALIZED)
    chi = dirichlet_lagrange(g, nodes, center, 2.0)
    h, rho_max = fill_distance(g, nodes), g.rho_max
    d = g.distances_from(center)
    L = _sparse_laplacian(g, LaplacianKind.NORMALIZED)
    exact = np.zeros(g.n_vertices, dtype=np.longdouble)
    rows = np.repeat(np.arange(g.n_vertices), np.diff(L.indptr))
    np.add.at(exact, rows, L.data.astype(np.longdouble) * chi[L.indices].astype(np.longdouble))
    checked = 0
    for r2 in 3 * rho_max + 2 * h + 1 + 2.0 * np.arange(10):
        for r3 in r2 + 2.0 * (1 + np.arange(10)):
            r1, r4 = r2 - 2 * rho_max - 2 * h, r3 + 2 * h
            if d.max() <= r1:
                continue
            reference = np.sqrt((exact[d > r4] ** 2).sum()) / np.sqrt((exact[d > r1] ** 2).sum())
            ratio = bulk_ratio(chi, s, g, center, r2, r3, h, rho_max)
            assert abs(ratio - reference) <= 1e-14 * reference
            checked += 1
    assert checked >= 90


def test_bulk_ratio_suite_decomposes_nothing(decompositions):
    from graphsplines.diagnostics import verify_bulk_ratio

    ok, _, _, rows = verify_bulk_ratio(100, 0)
    assert ok and len(rows) == 100
    assert decompositions == []


class TestCycleCoverConstant:
    def test_all_vertices_are_nodes(self):
        # every covering path has a single interior vertex with diagonal 1
        assert cycle_cover_constant(cycle_graph(6), np.arange(6)) == pytest.approx(2.0, rel=1e-12)

    def test_every_other_vertex_against_direct_eigensolve(self):
        g = cycle_graph(8)
        L = laplacian(g, LaplacianKind.NORMALIZED)
        interior = [1, 2, 3]  # interior of the path spanning nodes 0 -> 2 -> 4
        lam = scipy.linalg.eigh(L[np.ix_(interior, interior)], eigvals_only=True)[0]
        expected = 2.0 * (1.0 / lam) ** 2
        assert cycle_cover_constant(g, [0, 2, 4, 6]) == pytest.approx(expected, rel=1e-12)

    def test_rotation_invariance(self):
        g = cycle_graph(12)
        base = cycle_cover_constant(g, [0, 3, 6, 9])
        for shift in (1, 2, 5):
            rotated = cycle_cover_constant(g, (np.array([0, 3, 6, 9]) + shift) % 12)
            assert rotated == pytest.approx(base, rel=1e-12)

    def test_odd_node_count_wraps(self):
        g = cycle_graph(9)
        constant = cycle_cover_constant(g, [0, 3, 6])
        assert np.isfinite(constant) and constant > 0

    def test_two_nodes_allowed(self):
        assert cycle_cover_constant(cycle_graph(6), [0, 3]) > 0

    def test_not_a_cycle(self):
        with pytest.raises(NotACycle):
            cycle_cover_constant(lattice_graph(3, 3), [0, 4])

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes):
            cycle_cover_constant(cycle_graph(6), [2])

    def test_an_out_of_range_node_is_refused(self):
        with pytest.raises(InconsistentDimensions, match="vertex 300 out of range for 8 vertices"):
            cycle_cover_constant(cycle_graph(8), [0, 4, 300])

    def test_relabelled_uneven_cycles_against_hand_walked_ring(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            perm = rng.permutation(n)
            g = build_graph([(int(perm[i]), int(perm[(i + 1) % n]), float(rng.uniform(0.3, 3.0)), 1.0) for i in range(n)])
            nodes = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            # reference: walk the ring from vertex 0, then eigensolve each two-gap path interior
            order = [0]
            while len(order) < n:
                order.append(next(int(v) for v in g.neighbors(order[-1]) if len(order) < 2 or v != order[-2]))
            pos = sorted(order.index(int(v)) for v in nodes)
            L = laplacian(g, LaplacianKind.NORMALIZED)
            worst = 0.0
            for k in range(len(pos)):
                end = pos[(k + 2) % len(pos)] + (n if k + 2 >= len(pos) else 0)
                interior = sorted(order[p % n] for p in range(pos[k] + 1, end))
                lam = scipy.linalg.eigh(L[np.ix_(interior, interior)], eigvals_only=True)[0]
                worst = max(worst, (1.0 / lam) ** 2)
            assert cycle_cover_constant(g, nodes) == pytest.approx(2.0 * worst, rel=1e-12)


class TestMLCoverConstant:
    def test_formula_for_max_degree_two(self):
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
        report = ml_cover_constant(g, known=[0, 2])
        assert report.max_degree == 2
        assert report.formula_bound == 64 * 3**4 * 2**5  # 165888
        assert report.empirical_bound <= report.formula_bound

    def test_unknown_unknown_edge_rejected(self):
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
        with pytest.raises(HypothesisViolated):
            ml_cover_constant(g, known=[0])

    def test_short_edge_rejected(self):
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 4.0, 0.25)])
        with pytest.raises(HypothesisViolated):
            ml_cover_constant(g, known=[0, 2])

    def test_weight_not_inverse_length_rejected(self):
        g = build_graph([(0, 1, 2.0, 1.0), (1, 2, 1.0, 1.0)])
        with pytest.raises(HypothesisViolated):
            ml_cover_constant(g, known=[0, 2])

    def test_an_out_of_range_known_id_is_refused(self):
        # dropping -4 would leave vertices 3..5 unknown and blame the edge (3,4)
        with pytest.raises(InconsistentDimensions, match="vertex -4 out of range for 6 vertices"):
            ml_cover_constant(cycle_graph(6), known=[0, 1, 2, -4])

    def test_star_with_unknown_center(self):
        edges = [(0, i, 1.0, 1.0) for i in range(1, 6)]
        g = build_graph(edges, 6)
        report = ml_cover_constant(g, known=np.arange(1, 6))
        assert report.empirical_bound <= report.formula_bound
        assert report.min_dirichlet > 0

    def test_interiors_match_the_grown_two_hop_neighbourhoods(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g, known = random_known_unknown_graph(int(rng.integers(2, 13)), int(rng.integers(1, 13)), rng)
            unknown = set(range(g.n_vertices)) - set(known.tolist())
            L = laplacian(g, LaplacianKind.NORMALIZED)
            smallest = np.inf
            for v0 in range(g.n_vertices):
                omega = {v0, *g.neighbors(v0).tolist()}
                for u in omega & unknown:
                    omega |= set(g.neighbors(u).tolist())
                interior = sorted({v0} | (omega & unknown))
                smallest = min(smallest, scipy.linalg.eigh(L[np.ix_(interior, interior)], eigvals_only=True)[0])
            assert ml_cover_constant(g, known).min_dirichlet == pytest.approx(smallest, rel=1e-12)

    def test_random_split_graphs_satisfy_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g, known = random_known_unknown_graph(int(rng.integers(2, 10)), int(rng.integers(1, 10)), rng)
            report = ml_cover_constant(g, known)
            assert report.empirical_bound <= report.formula_bound


@pytest.mark.parametrize("which", ["ml", "cycle"])
def test_one_laplacian_per_cover_constant(monkeypatch, which):
    from graphsplines import diagnostics, spectral

    calls = []
    real = spectral.laplacian

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "laplacian", counting)
    monkeypatch.setattr(diagnostics, "laplacian", counting, raising=False)
    if which == "ml":
        g, known = random_known_unknown_graph(30, 30, np.random.default_rng(5))
        report = ml_cover_constant(g, known)
        assert report.min_dirichlet > 0
    else:
        assert cycle_cover_constant(cycle_graph(24), np.arange(0, 24, 4)) > 0
    assert len(calls) == 1


def test_min_norm_suite_fails_a_solve_that_misses_the_values(monkeypatch, capsys):
    # Any expansion Phi(., K) beta + C v0 with v0_K^T beta = 0 is the minimal-norm interpolant of its
    # own node values, so only the check of the node values tells this wrong solve from the right one.
    from graphsplines import Interpolant, cli, diagnostics

    rng = np.random.default_rng(1)

    def wrong_solve(p):
        beta = rng.standard_normal(p.nodes.size)
        u = p.decomposition.kernel_vector[p.nodes]
        beta -= (beta @ u) / (u @ u) * u
        return Interpolant(constant=1.0, coefficients=beta, alpha=p.alpha, nodes=p.nodes)

    monkeypatch.setattr(diagnostics, "solve_interpolant", wrong_solve)
    ok, lines, header, rows = diagnostics.verify_min_norm(100, 0)
    assert not ok and lines[0].endswith("failures=100")
    assert header[-1] == "rel_node_error" and all(float(row[-1]) > 1e-12 for row in rows)
    assert cli.main(["verify", "min-norm", "--trials", "3"]) == 4
    assert capsys.readouterr().out.endswith("-> FAIL\n")


def test_coeff_symmetry_suite_fails_a_basis_without_its_constants(monkeypatch, capsys):
    # The constants enter only the bordered kernel system: symmetry and the Gram read the coefficients.
    from graphsplines import cli, diagnostics

    lagrange_basis = diagnostics.lagrange_basis

    def without_constants(*args):
        basis = lagrange_basis(*args)
        basis.constants = np.zeros_like(basis.constants)
        return basis

    monkeypatch.setattr(diagnostics, "lagrange_basis", without_constants)
    ok, lines, header, rows = diagnostics.verify_coeff_symmetry(100, 0)
    assert not ok and lines[0].endswith("failures=100")
    assert header[-1] == "bordered_residual" and all(float(row[-1]) > 1e-8 for row in rows)
    assert cli.main(["verify", "coeff-symmetry", "--trials", "3"]) == 4
    assert capsys.readouterr().out.endswith("-> FAIL\n")
