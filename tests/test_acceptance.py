"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The regression-experiment criterion needs the 768-row energy-efficiency
CSV, which this repository does not ship; point GSK_ENB_CSV at the file to
enable it (optionally GSK_ENB_FEATURES / GSK_ENB_TARGETS for column names).
"""
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from graphsplines import (
    CVConfig,
    DecayProfile,
    InterpolationProblem,
    LaplacianKind,
    build_graph,
    bulk_ratio,
    cross_validate,
    cycle_graph,
    decay_profile,
    decay_scale,
    decompose_graph,
    evaluate,
    fill_distance,
    fit_exponential_decay,
    graph_metrics,
    lagrange_basis,
    lattice_graph,
    load_dataset,
    local_lagrange,
    native_semi_inner_product,
    pseudo_inverse_power,
    random_connected_graph,
    smoothness_experiment,
    sobolev_seminorm,
    solve_interpolant,
    zeros_bound_ratio,
)


@contextmanager
def criterion(cid, description):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid} [{description}]: FAIL")
        raise
    print(f"\nACCEPTANCE {cid} [{description}]: PASS")


def test_criterion_01_cardinality_and_runtime():
    with criterion(1, "cardinality and exactness on cycle 256, every 4th node"):
        start = time.perf_counter()
        g = cycle_graph(256)
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        k = pseudo_inverse_power(s, 2.0)
        nodes = np.arange(0, 256, 4)
        basis = lagrange_basis(k.alpha, s, g, nodes)
        elapsed = time.perf_counter() - start
        on_nodes = basis.columns[nodes, :]
        assert np.allclose(np.diag(on_nodes), 1.0, atol=1e-8)
        off = on_nodes - np.diag(np.diag(on_nodes))
        assert np.abs(off).max() <= 1e-8
        assert elapsed < 10.0


def test_criterion_02_minimal_norm():
    with criterion(2, "100 perturbations never lower the interpolant semi-norm"):
        rng = np.random.default_rng(1002)
        g = random_connected_graph(60, rng)
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        k = pseudo_inverse_power(s, 2.0)
        nodes = np.sort(rng.choice(60, size=18, replace=False))
        p = InterpolationProblem(g, s, k.alpha, nodes, rng.standard_normal(18))
        s_fun = evaluate(solve_interpolant(p), p)
        s_norm = sobolev_seminorm(s, s_fun, 2.0)
        for _ in range(100):
            perturbation = rng.standard_normal(60)
            perturbation[nodes] = 0.0
            inner = native_semi_inner_product(s, perturbation, s_fun, 2.0)
            scale = max(1.0, sobolev_seminorm(s, perturbation, 2.0) * s_norm)
            assert abs(inner) <= 1e-9 * scale
            assert sobolev_seminorm(s, s_fun + perturbation, 2.0) >= s_norm * (1 - 1e-12)


def test_criterion_03_coefficient_symmetry():
    with criterion(3, "coefficient symmetry equals the semi-inner product on 20 graphs"):
        rng = np.random.default_rng(1003)
        for _ in range(20):
            n = int(rng.integers(6, 101))
            g = random_connected_graph(n, rng)
            s = decompose_graph(g, LaplacianKind.NORMALIZED)
            k = pseudo_inverse_power(s, 2.0)
            m = int(rng.integers(2, min(n, 20) + 1))
            nodes = np.sort(rng.choice(n, size=m, replace=False))
            basis = lagrange_basis(k.alpha, s, g, nodes)
            coeffs = basis.coefficients
            assert np.abs(coeffs - coeffs.T).max() <= 1e-8
            scale = s.eigenvalues**2.0
            hat = s.eigenvectors.T @ basis.columns
            gram = hat.T @ (scale[:, None] * hat)
            assert np.abs(gram - coeffs).max() <= 1e-8


def test_criterion_04_zeros_lemma():
    with criterion(4, "vanishing-point norm bound on 100 random graphs"):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 65))
            g = random_connected_graph(n, rng)
            s = decompose_graph(g, LaplacianKind.UNNORMALIZED)
            for alpha in (1.0, 2.0, 4.0):
                f = rng.standard_normal(n)
                f[int(rng.integers(n))] = 0.0
                ratio = zeros_bound_ratio(s, f, alpha)
                worst = max(worst, ratio)
                assert ratio <= 1.0 + 1e-9
        tight = build_graph([(0, 1, 1.0, 1.0)])
        s2 = decompose_graph(tight, LaplacianKind.UNNORMALIZED)
        ratio = zeros_bound_ratio(s2, np.array([0.0, 1.0]), 2.0)
        assert abs(ratio - 1.0) <= 1e-12
        assert worst <= 1.0 + 1e-9


def test_criterion_05_localization(cycle256_setup):
    with criterion(5, "Lagrange localization beats the kernel column by >= 100x"):
        g, s, k, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        green = k.matrix[:, 0]
        h = fill_distance(g, nodes)
        rho_max = graph_metrics(g).rho_max
        width = 2 * h  # one bin per node gap so cardinality zeros do not split shells
        chi_profile = decay_profile(chi, g, 0, width)
        green_profile = decay_profile(green, g, 0, width)
        at64 = np.flatnonzero(chi_profile.distances == 64.0)[0]
        assert green_profile.envelopes[at64] >= 100.0 * chi_profile.envelopes[at64]

        # fit above the double-precision floor: past ~1e-12 the solved values
        # are roundoff, not function behavior
        reliable = chi_profile.envelopes > 1e-10 * chi_profile.envelopes.max()
        windowed = DecayProfile(
            center=0,
            distances=chi_profile.distances[reliable],
            envelopes=chi_profile.envelopes[reliable],
        )
        fit = fit_exponential_decay(windowed, scale=decay_scale(h, rho_max))
        assert fit.slope < 0.0
        assert not fit.no_decay
        assert fit.r_squared >= 0.9


def test_criterion_06_bulk_ratio_sweep(cycle256_setup):
    with criterion(6, "bulk ratio below one across a 5x5 radius sweep"):
        g, s, k, nodes, basis = cycle256_setup
        chi = basis.columns[:, 0]
        h = fill_distance(g, nodes)
        rho_max = graph_metrics(g).rho_max
        for r2 in 3 * rho_max + 2 * h + 1 + 2.0 * np.arange(5):
            for gap in 2.0 * (1 + np.arange(5)):
                assert bulk_ratio(chi, s, g, 0, r2, r2 + gap, h, rho_max) < 1.0


def test_criterion_07_local_lagrange_closeness():
    with criterion(7, "local basis converges to the full one on the 20x20 lattice"):
        g = lattice_graph(20, 20)
        s = decompose_graph(g, LaplacianKind.NORMALIZED)
        k = pseudo_inverse_power(s, 2.0)
        nodes = np.array([r * 20 + c for r in range(0, 20, 2) for c in range(0, 20, 2)])
        center = 10 * 20 + 10
        basis = lagrange_basis(k.alpha, s, g, nodes)
        chi = basis.columns[:, basis.center_index(center)]
        sup_diffs = []
        for radius in (4.0, 6.0, 8.0, 10.0):
            local = local_lagrange(k.alpha, s, g, nodes, center, radius)
            sup_diffs.append(np.abs(chi - local).max())
        # regression bound recorded from the dense-solve development run (2.008e-2)
        assert sup_diffs[1] <= 2.1e-2
        assert all(b < a for a, b in zip(sup_diffs, sup_diffs[1:]))


def _find_energy_csv():
    env = os.environ.get("GSK_ENB_CSV")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parent.parent
    for name in ("ENB2012.csv", "enb2012.csv", "energy_efficiency.csv"):
        candidate = root / "data" / name
        if candidate.exists():
            return candidate
    return None


def test_criterion_08_regression_experiment():
    path = _find_energy_csv()
    if path is None or not path.exists():
        print("\nACCEPTANCE 8 [energy-efficiency regression vs nearest neighbors]: SKIPPED (no dataset; set GSK_ENB_CSV)")
        pytest.skip("energy-efficiency CSV not provided; the repository ships no data")
    with criterion(8, "energy-efficiency regression vs nearest neighbors"):
        features_env = os.environ.get("GSK_ENB_FEATURES")
        features = features_env.split(",") if features_env else ["X1", "X2", "X3", "X4", "X5", "X6", "X7"]
        targets = os.environ.get("GSK_ENB_TARGETS", "Y1,Y2").split(",")
        dataset = load_dataset(path, features, targets)
        assert dataset.n_rows == 768
        if features_env is None:
            # rows that differ only in the glazing-distribution column coincide
            # in the seven-parameter space; include it as a tie breaker so the
            # nearest-neighbor graph has no zero-length edges
            from graphsplines import knn_graph, normalize
            from graphsplines.errors import DuplicatePoint

            try:
                knn_graph(normalize(dataset).features, 8)
            except DuplicatePoint:
                print("note: coincident rows in 7-feature space; adding X8 as tie breaker")
                dataset = load_dataset(path, features + ["X8"], targets)
        start = time.perf_counter()
        heating = dataset.target_names[0]
        for k_neighbors in (8, 10, 12, 14, 16, 18):
            report = cross_validate(dataset, CVConfig(k_neighbors=k_neighbors, folds=10, repeats=20, seed=0))
            for target in dataset.target_names:
                assert report.row("spline", target).mean_mse < report.row("nnr", target).mean_mse
            if k_neighbors == 10:
                assert 3.2 <= report.row("spline", heating).mean_mse <= 4.2
                assert 4.8 <= report.row("nnr", heating).mean_mse <= 5.8
        assert time.perf_counter() - start < 600.0


def test_criterion_09_smoothness_trend():
    with criterion(9, "interpolation error tracks data smoothness (Spearman > 0.8)"):
        pairs = smoothness_experiment(
            n_points=1000,
            n_bumps_per_axis=4,
            magnitudes=list(range(1, 11)),
            k_neighbors=8,
            alpha=2.0,
            seed=20250810,
        )
        seminorms = [p[0] for p in pairs]
        errors = [p[1] for p in pairs]
        assert spearmanr(seminorms, errors).statistic > 0.8


def test_criterion_10_spectral_sanity():
    with criterion(10, "eigenvalue bounds and projection identity on 100 graphs"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            g = random_connected_graph(n, rng)
            s = decompose_graph(g, LaplacianKind.NORMALIZED)
            assert s.eigenvalues[0] >= -1e-9
            assert s.eigenvalues[-1] <= 2.0 + 1e-9
            assert s.eigenvalues[1] > s.zero_tolerance  # zero eigenvalue is simple
            f = rng.standard_normal(n)
            projected = s.apply_power(s.apply_power(f, 2.0), -2.0)
            expected = f - (f @ s.kernel_vector) * s.kernel_vector
            assert np.abs(projected - expected).max() <= 1e-8
