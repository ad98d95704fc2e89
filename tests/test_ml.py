import weakref

import numpy as np
import pytest

from graphsplines import (
    CVConfig,
    Dataset,
    build_graph,
    complement,
    cross_validate,
    cycle_graph,
    decompose_graph,
    knn_graph,
    load_dataset,
    normalize,
    pseudo_inverse_power,
    smoothness_experiment,
    spline_regress,
    wendland_bump,
)
from graphsplines.errors import (
    InconsistentDimensions,
    MissingValue,
    NonNumericColumn,
    TooFewRows,
    ZeroVarianceColumn,
)
from graphsplines.interpolation import _solve_symmetric
from graphsplines.ml import _fold_blocks, _nnr_predictions
from graphsplines.spectral import _power, laplacian_power


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_small_csv_shapes(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_dataset(path, ["a", "b"], ["y"])
        assert d.features.shape == (3, 2)
        assert d.targets.shape == (3, 1)
        assert d.feature_names == ["a", "b"]

    def test_missing_value(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\nNA,4\n5,6\n")
        with pytest.raises(MissingValue):
            load_dataset(path, ["a"], ["y"])

    def test_non_numeric_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\nfoo,4\n")
        with pytest.raises(NonNumericColumn):
            load_dataset(path, ["a"], ["y"])

    @pytest.mark.parametrize("token", ["inf", "-Infinity"])
    def test_infinite_value_is_rejected_on_read(self, tmp_path, token):
        path = write_csv(tmp_path / "d.tsv", f"a\ty\n1\t2\n3\t{token}\n5\t6\n")
        with pytest.raises(NonNumericColumn, match=r"d.tsv: row 3, column 'y'"):
            load_dataset(path, ["a"], ["y"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv", ["a"], ["y"])

    def test_tab_separated(self, tmp_path):
        path = write_csv(tmp_path / "d.tsv", "a\tb\ty\n1\t2\t3\n4\t5\t6\n")
        d = load_dataset(path, ["a"], ["y"])
        assert d.features[1, 0] == 4.0

    def test_index_columns_without_header(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "1,2,3\n4,5,6\n")
        d = load_dataset(path, [0, 2], [1], header=False)
        assert d.features[0].tolist() == [1.0, 3.0]
        assert d.feature_names == ["col0", "col2"]

    def test_energy_format_selection(self, tmp_path):
        # 768-row file shaped like the energy-efficiency table: 8 numeric
        # parameters X1..X8 and two loads Y1, Y2; seven features are selected
        rng = np.random.default_rng(0)
        lines = ["X1,X2,X3,X4,X5,X6,X7,X8,Y1,Y2"]
        for _ in range(768):
            lines.append(",".join(f"{x:.3f}" for x in rng.uniform(0, 10, size=10)))
        path = write_csv(tmp_path / "enb.csv", "\n".join(lines) + "\n")
        d = load_dataset(path, ["X1", "X2", "X3", "X4", "X5", "X6", "X7"], ["Y1", "Y2"])
        assert d.features.shape == (768, 7)
        assert d.targets.shape == (768, 2)


class TestNormalize:
    def test_zero_mean_unit_stdev(self):
        d = Dataset(np.array([[0.0], [1.0], [2.0]]), np.zeros((3, 1)), ["a"], ["y"])
        nd = normalize(d)
        expected = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)
        assert np.allclose(nd.features[:, 0], expected, atol=1e-12)
        assert abs(nd.features.mean()) < 1e-12
        assert abs(nd.features.std() - 1.0) < 1e-12

    def test_constant_column_rejected(self):
        d = Dataset(np.ones((3, 1)), np.zeros((3, 1)), ["a"], ["y"])
        with pytest.raises(ZeroVarianceColumn):
            normalize(d)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(40, 3)), rng.normal(size=(40, 1)), list("abc"), ["y"])
        once = normalize(d)
        twice = normalize(once)
        assert np.allclose(once.features, twice.features, atol=1e-12)

    def test_targets_untouched(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), list("ab"), list("yz"))
        assert np.array_equal(normalize(d).targets, d.targets)


def nnr_at(g, known, values, query):
    """The baseline's prediction at one query vertex, from ``values`` on ``known`` (every other vertex is the fold)."""
    targets = np.zeros((g.n_vertices, 1))
    targets[known, 0] = values
    fold = complement(g, np.asarray(known))
    [(preds, _)] = _nnr_predictions(g, targets, [fold])
    return float(preds[np.flatnonzero(fold == query)[0], 0])


class TestNNRPredict:
    @pytest.mark.parametrize("k, n_folds", [(2, 2), (5, 7)])
    def test_batched_folds_match_one_fold_per_call_bit_for_bit(self, k, n_folds):
        d = TestCrossValidate().make_dataset(n=60, seed=13)
        g = knn_graph(normalize(d).features, k)
        folds = [np.sort(f) for f in np.array_split(np.random.default_rng(k).permutation(60), n_folds)]
        batched = _nnr_predictions(g, d.targets, folds)
        assert len(batched) == n_folds
        for fold, (preds, isolated) in zip(folds, batched):
            [(alone, alone_isolated)] = _nnr_predictions(g, d.targets, [fold])
            assert preds.shape == (fold.size, 2)
            assert np.array_equal(preds.view(np.uint64), alone.view(np.uint64))
            assert np.array_equal(isolated, alone_isolated)
        if k == 2:  # two folds leave some fold vertices without a known neighbor
            assert any(isolated.any() for _, isolated in batched)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_fold_vertices_without_a_known_neighbor_get_the_known_means_bit_for_bit(self, t):
        d = TestCrossValidate().make_dataset(n=60, seed=13)
        g = knn_graph(normalize(d).features, 2)
        targets = np.random.default_rng(t).standard_normal((60, t)) * 1e3
        folds = [np.sort(f) for f in np.array_split(np.random.default_rng(2).permutation(60), 2)]
        for fold, (preds, isolated) in zip(folds, _nnr_predictions(g, targets, folds)):
            assert isolated.any()
            mean = targets[complement(g, fold)].mean(axis=0)
            assert np.array_equal(preds[isolated], np.broadcast_to(mean, (isolated.sum(), t)))

    def test_equal_weights_average(self):
        g = build_graph([(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
        assert nnr_at(g, [1, 2], np.array([2.0, 4.0]), 0) == 3.0

    def test_single_neighbor(self):
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
        assert nnr_at(g, [0], np.array([7.0]), 1) == 7.0

    def test_no_known_neighbor_falls_back_to_mean(self):
        g = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
        assert nnr_at(g, [0], np.array([7.0]), 2) == 7.0
        g2 = build_graph([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        assert nnr_at(g2, [0, 1], np.array([2.0, 6.0]), 3) == 4.0

    def test_weighted_average(self):
        g = build_graph([(0, 1, 3.0, 1.0), (0, 2, 1.0, 1.0)])
        assert nnr_at(g, [1, 2], np.array([4.0, 8.0]), 0) == pytest.approx(5.0)


class TestSplineRegress:
    def test_all_known_gives_empty_predictions(self):
        g = cycle_graph(4)
        preds = spline_regress(g, np.arange(4), np.ones(4))
        assert preds.shape == (0,)

    def test_cycle4_symmetry_prediction(self):
        g = cycle_graph(4)
        preds = spline_regress(g, np.array([0, 2]), np.array([1.0, 0.0]), alpha=2.0)
        assert np.allclose(preds, [0.5, 0.5], atol=1e-10)

    def test_residual_at_known_vertices_is_zero(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 2))
        g = knn_graph(pts, k=5)
        known = np.sort(rng.choice(40, size=25, replace=False))
        values = rng.normal(size=25)
        s = decompose_graph(g)
        k = pseudo_inverse_power(s, 2.0)
        from graphsplines import InterpolationProblem, evaluate, solve_interpolant

        p = InterpolationProblem(g, s, k.alpha, known, values)
        full = evaluate(solve_interpolant(p), p)
        assert np.abs(full[known] - values).max() < 1e-8
        preds = spline_regress(g, known, values, 2.0, s)
        assert np.allclose(preds, full[complement(g, known)], atol=1e-10)

    def test_unsorted_known_keeps_values_paired(self):
        g = cycle_graph(8)
        sorted_preds = spline_regress(g, [0, 4], np.array([1.0, 0.0]))
        assert np.allclose(spline_regress(g, [4, 0], np.array([0.0, 1.0])), sorted_preds, atol=1e-12)

    @pytest.mark.parametrize("known", [[0, 2, -1], [0, 2, 4], [0, 2, 2]])
    def test_bad_known_sets_rejected(self, known):
        with pytest.raises(InconsistentDimensions):
            spline_regress(cycle_graph(4), known, np.zeros(len(known)))

    def test_near_duplicate_neighbor_dominates(self):
        # the twin edge weight (1e11) dwarfs every other weight (~0.3)
        pts = np.array([[0.0, 0.0], [1e-11, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0], [2.5, 2.5]])
        g = knn_graph(pts, k=2)
        known = np.array([0, 2, 3, 4])
        preds = spline_regress(g, known, np.array([7.0, 1.0, -2.0, 3.0]), 2.0)
        assert abs(preds[0] - 7.0) < 1e-6  # unknown vertex 1 is first in the complement


class TestCrossValidate:
    def make_dataset(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = np.column_stack([X @ [1.0, -1.0, 0.5], np.sin(X).sum(axis=1)])
        return Dataset(X, y, list("abc"), ["t1", "t2"])

    def test_report_shape_and_nonnegativity(self):
        report = cross_validate(self.make_dataset(), CVConfig(k_neighbors=4, folds=2, repeats=1, seed=5))
        assert len(report.rows) == 4  # 2 methods x 2 targets
        for row in report.rows:
            assert row.mean_mse >= 0.0
            assert row.std_mse == 0.0  # single repeat

    def test_report_row_of_an_unknown_method_or_target_is_a_key_error(self):
        report = cross_validate(self.make_dataset(), CVConfig(k_neighbors=4, folds=2, repeats=1, seed=5))
        assert report.row("nnr", "t2").method == "nnr"
        for method, target in (("kriging", "t1"), ("spline", "t3")):
            with pytest.raises(KeyError):
                report.row(method, target)

    def test_constant_targets_give_zero_nnr_mse(self):
        # the spline is not expected to reproduce constants here: the kernel
        # eigenvector is proportional to sqrt(degree), not the constant vector
        d = self.make_dataset()
        d = Dataset(d.features, np.full((d.n_rows, 1), 3.25), d.feature_names, ["const"])
        report = cross_validate(d, CVConfig(k_neighbors=4, folds=4, repeats=2, seed=1))
        assert report.row("nnr", "const").mean_mse == 0.0

    def test_deterministic_for_fixed_seed(self):
        cfg = CVConfig(k_neighbors=4, folds=5, repeats=3, seed=42)
        r1 = cross_validate(self.make_dataset(), cfg)
        r2 = cross_validate(self.make_dataset(), cfg)
        for a, b in zip(r1.rows, r2.rows):
            assert a == b

    def test_different_seeds_differ(self):
        d = self.make_dataset()
        r1 = cross_validate(d, CVConfig(k_neighbors=4, folds=5, repeats=2, seed=1))
        r2 = cross_validate(d, CVConfig(k_neighbors=4, folds=5, repeats=2, seed=2))
        assert any(a.mean_mse != b.mean_mse for a, b in zip(r1.rows, r2.rows))

    def test_one_baseline_product_per_repeat(self, monkeypatch):
        import graphsplines.ml as ml

        calls = []
        original = ml._nnr_predictions

        def counting(g, targets, folds):
            calls.append(len(folds))
            return original(g, targets, folds)

        monkeypatch.setattr(ml, "_nnr_predictions", counting)
        cross_validate(self.make_dataset(), CVConfig(k_neighbors=4, folds=5, repeats=3, seed=1))
        assert calls == [5, 5, 5]

    def test_too_few_rows(self):
        d = self.make_dataset(n=5)
        with pytest.raises(TooFewRows):
            cross_validate(d, CVConfig(k_neighbors=2, folds=10))


def reference_cv(d, cfg):
    """Plain-numpy repeated k-fold CV at alpha = 2.

    A dense W of the symmetrized k-NN graph (weight 1 / distance), the
    normalized Laplacian from its formula, and ``np.linalg.solve`` on 2-D
    blocks of ``L @ L``. Returns ``{(method, target): (mean, std)}``, the
    baseline's fallback count and the largest 1-norm condition number of the
    folds' ``(L^2)_UU``.
    """
    assert cfg.alpha == 2.0
    z = (d.features - d.features.mean(axis=0)) / d.features.std(axis=0)
    n, t = d.targets.shape
    dist = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    rows = np.repeat(np.arange(n), cfg.k_neighbors)
    cols = np.argsort(dist, axis=1, kind="stable")[:, : cfg.k_neighbors].ravel()
    W = np.zeros((n, n))
    W[rows, cols] = W[cols, rows] = 1.0 / dist[rows, cols]
    dinv = 1.0 / np.sqrt(W.sum(axis=1))
    L = np.eye(n) - dinv[:, None] * W * dinv[None, :]
    L2 = L @ L
    mse = {"spline": np.zeros((cfg.repeats, t)), "nnr": np.zeros((cfg.repeats, t))}
    fallbacks, worst_cond = 0, 0.0
    for r in range(cfg.repeats):
        fold_mse = {"spline": [], "nnr": []}
        for fold in np.array_split(np.random.default_rng([cfg.seed, r]).permutation(n), cfg.folds):
            unknown = np.sort(fold)
            known = np.setdiff1d(np.arange(n), unknown)
            data, truth = d.targets[known], d.targets[unknown]
            system = L2[np.ix_(unknown, unknown)]
            worst_cond = max(worst_cond, np.linalg.cond(system, 1))
            spline = -np.linalg.solve(system, L2[np.ix_(unknown, known)] @ data)
            weights = W[np.ix_(unknown, known)]
            totals = weights.sum(axis=1)
            base = data.mean(axis=0)
            nnr = base + weights @ (data - base) / np.where(totals == 0, 1.0, totals)[:, None]
            nnr[totals == 0] = base
            fallbacks += int(np.count_nonzero(totals == 0))
            fold_mse["spline"].append(((spline - truth) ** 2).mean(axis=0))
            fold_mse["nnr"].append(((nnr - truth) ** 2).mean(axis=0))
        for method in mse:
            mse[method][r] = np.mean(fold_mse[method], axis=0)
    stats = {
        (method, name): (mse[method][:, j].mean(), mse[method][:, j].std())
        for method in mse
        for j, name in enumerate(d.target_names)
    }
    return stats, fallbacks, worst_cond


class TestCrossValidateReference:
    # (rows, table seed, k, folds); k = 2 with two folds leaves some held-out rows without a known neighbor
    TABLES = [(60, 11, 5, 5), (80, 12, 6, 4), (60, 13, 2, 2)]

    @pytest.mark.parametrize("n, seed, k, folds", TABLES)
    def test_matches_plain_numpy_reference(self, n, seed, k, folds):
        d = TestCrossValidate().make_dataset(n=n, seed=seed)
        cfg = CVConfig(k_neighbors=k, folds=folds, repeats=3, seed=seed)
        report = cross_validate(d, cfg)
        expected, fallbacks, _ = reference_cv(d, cfg)
        assert len(report.rows) == len(expected)
        for row in report.rows:
            mean, std = expected[(row.method, row.target)]
            assert row.mean_mse == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert row.std_mse == pytest.approx(std, rel=1e-12, abs=0.0)
        assert report.nnr_fallbacks == fallbacks
        if k == 2:
            assert fallbacks > 0

    def test_min_rcond_brackets_the_worst_fold_condition(self):
        d = TestCrossValidate().make_dataset(n=60, seed=11)
        cfg = CVConfig(k_neighbors=5, folds=5, repeats=3, seed=11)
        _, _, kappa = reference_cv(d, cfg)
        # dsycon's estimate is a lower bound on 1 / kappa; the 1e-12 allows for the rounding
        # of both computations, since on systems this small the estimate is exact
        assert (1.0 - 1e-12) / kappa <= cross_validate(d, cfg).min_rcond <= 10.0 / kappa


def dirichlet_reference_cv(d, cfg):
    """Repeated k-fold CV with every fold's spline solved in plain numpy from the Dirichlet form.

    On ``knn_graph`` of the z-scored features, ``M`` is ``L^alpha`` of the dense normalized
    Laplacian: ``L @ L`` at alpha = 2, else ``Q diag(lambda^alpha) Q^T`` from ``np.linalg.eigh``
    with the zero eigenvalue set to 0. Each fold predicts ``s_U = -(M_UU)^-1 M_UK F_K`` with
    ``np.linalg.solve``, and the baseline with ``_nnr_predictions``, one fold per call. Returns
    ``{(method, target): (mean, std)}``, the fallback count and the smallest rcond of
    ``_solve_symmetric`` on the folds' blocks of ``laplacian_power``, gathered rows then columns.
    """
    g = knn_graph(normalize(d).features, cfg.k_neighbors)
    n, t = d.targets.shape
    W = g.adjacency.toarray()
    dinv = 1.0 / np.sqrt(W.sum(axis=1))
    L = np.eye(n) - dinv[:, None] * W * dinv[None, :]
    if cfg.alpha == 2.0:
        M = L @ L
    else:
        lam, Q = np.linalg.eigh(L)
        lam[0] = 0.0
        M = (Q * lam**cfg.alpha) @ Q.T
    power = laplacian_power(g, cfg.alpha)
    mse = {"spline": np.zeros((cfg.repeats, t)), "nnr": np.zeros((cfg.repeats, t))}
    fallbacks, min_rcond = 0, np.inf
    for r in range(cfg.repeats):
        fold_mse = {"spline": [], "nnr": []}
        for fold in np.array_split(np.random.default_rng([cfg.seed, r]).permutation(n), cfg.folds):
            unknown = np.sort(fold)
            known = np.setdiff1d(np.arange(n), unknown)
            data, truth = d.targets[known], d.targets[unknown]
            spline = -np.linalg.solve(M[np.ix_(unknown, unknown)], M[np.ix_(unknown, known)] @ data)
            rows = power[unknown]
            min_rcond = min(min_rcond, _solve_symmetric(rows[:, unknown], -(rows[:, known] @ data))[1])
            [(nnr, isolated)] = _nnr_predictions(g, d.targets, [unknown])
            fallbacks += int(isolated.sum())
            fold_mse["spline"].append(((spline - truth) ** 2).mean(axis=0))
            fold_mse["nnr"].append(((nnr - truth) ** 2).mean(axis=0))
        for method in mse:
            mse[method][r] = np.mean(fold_mse[method], axis=0)
    stats = {
        (method, name): (float(mse[method][:, j].mean()), float(mse[method][:, j].std()))
        for method in mse
        for j, name in enumerate(d.target_names)
    }
    return stats, fallbacks, min_rcond


class TestCrossValidateDirichletReference:
    # each fold's error comes from (L^alpha F)_U and the |U| x |U| block alone; a plain spline solve
    # per fold must give the same scores, and the rcond of today's rows-then-columns block
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_matches_a_plain_numpy_spline_per_fold(self, alpha):
        d = TestCrossValidate().make_dataset(n=90, seed=21)
        cfg = CVConfig(k_neighbors=6, folds=5, repeats=4, alpha=alpha, seed=21)
        report = cross_validate(d, cfg)
        expected, fallbacks, min_rcond = dirichlet_reference_cv(d, cfg)
        assert len(report.rows) == len(expected)
        for row in report.rows:
            mean, std = expected[(row.method, row.target)]
            if row.method == "nnr":
                assert (row.mean_mse, row.std_mse) == (mean, std)
            else:
                assert row.mean_mse == pytest.approx(mean, rel=1e-12, abs=0.0)
                assert row.std_mse == pytest.approx(std, rel=1e-12, abs=0.0)
        assert report.nnr_fallbacks == fallbacks
        assert report.min_rcond == min_rcond


class TestWendlandBump:
    def test_boundary_values(self):
        assert wendland_bump(0.0) == 1.0
        assert wendland_bump(1.0) == 0.0
        assert wendland_bump(0.5) == pytest.approx(0.1875)

    def test_clamping(self):
        assert wendland_bump(-0.5) == 1.0
        assert wendland_bump(2.0) == 0.0

    def test_array_input(self):
        out = wendland_bump(np.array([0.0, 0.5, 1.0, 3.0]))
        assert np.allclose(out, [1.0, 0.1875, 0.0, 0.0])

    def test_monotone_decreasing_on_support(self):
        r = np.linspace(0, 1, 101)
        assert np.all(np.diff(wendland_bump(r)) < 0)


class TestSmoothnessExperiment:
    def test_zero_magnitude_gives_zero_pair(self):
        pairs = smoothness_experiment(60, magnitudes=[0.0], k_neighbors=6, seed=2)
        assert pairs[0][0] == pytest.approx(0.0, abs=1e-12)
        assert pairs[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_seminorm_scales_linearly(self):
        single = smoothness_experiment(60, magnitudes=[1.5], k_neighbors=6, seed=2)
        double = smoothness_experiment(60, magnitudes=[3.0], k_neighbors=6, seed=2)
        assert double[0][0] == pytest.approx(2.0 * single[0][0], rel=1e-12)

    def test_requires_even_count(self):
        with pytest.raises(ValueError):
            smoothness_experiment(61, magnitudes=[1.0], seed=0)

    @pytest.mark.parametrize("bumps", [0, -2])
    def test_requires_a_bump_per_axis(self, bumps):
        with pytest.raises(ValueError, match="bump per axis"):
            smoothness_experiment(60, n_bumps_per_axis=bumps, magnitudes=[1.0], k_neighbors=6, seed=0)

    @pytest.mark.parametrize("magnitudes", [[], [1.0, np.nan], [np.inf]])
    def test_requires_finite_magnitudes(self, magnitudes):
        with pytest.raises(ValueError, match="magnitudes must be a nonempty list of finite numbers"):
            smoothness_experiment(60, magnitudes=magnitudes, k_neighbors=6, seed=0)


class TestDirichletRegression:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_matches_bordered_interpolant(self, alpha):
        # two independent solve paths: the Dirichlet form against a plain-numpy kernel + bordered system
        from graphsplines import random_connected_graph
        from test_interpolation import bordered_oracle

        rng = np.random.default_rng(int(alpha * 100))
        for trial in range(10):
            n = int(rng.integers(4, 41))
            g = random_connected_graph(n, rng)
            size = 1 if trial % 2 else int(rng.integers(2, n))
            known = rng.choice(n, size=size, replace=False)
            values = rng.standard_normal(size)
            expected = bordered_oracle(g, alpha, known, values)[complement(g, known)]
            preds = spline_regress(g, known, values, alpha)
            assert np.abs(preds - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())

    def test_single_node_at_alpha_3_solves(self):
        # (L^3)_UU has rcond ~ 8.5e-13, above eps, so the Dirichlet form solves it
        from graphsplines import laplacian_power

        g = cycle_graph(256)
        preds = spline_regress(g, [0], [1.0], alpha=3.0)
        s = np.concatenate([[1.0], preds])
        # one node: the spline is the kernel vector scaled to the datum, all ones on a uniform cycle
        assert np.abs(preds - 1.0).max() < 1e-3
        assert np.abs((laplacian_power(g, 3.0) @ s)[1:]).max() < 1e-12

    def test_single_node_at_alpha_4_refused(self):
        from graphsplines.errors import SingularSystem

        with pytest.raises(SingularSystem):
            spline_regress(cycle_graph(256), [0], [1.0], alpha=4.0)

    def test_value_count_must_match_known(self):
        with pytest.raises(InconsistentDimensions, match="3 values for 2"):
            spline_regress(cycle_graph(8), [0, 4], [1.0, 0.0, 5.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InconsistentDimensions):
            spline_regress(cycle_graph(8), [0, 4], [1.0, bad])

    def test_matrix_values_solve_column_by_column(self):
        g = cycle_graph(12)
        values = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 1.0]])
        both = spline_regress(g, [0, 5, 7], values)
        for j in range(2):
            assert np.allclose(both[:, j], spline_regress(g, [0, 5, 7], values[:, j]), atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_every_vertex_known_still_checks_alpha(self, alpha):
        from graphsplines.errors import NonPositiveAlpha

        with pytest.raises(NonPositiveAlpha):
            spline_regress(cycle_graph(8), np.arange(8), np.ones(8), alpha)


class TestCrossValidateSolvePaths:
    def make_dataset(self):
        return TestCrossValidate().make_dataset()

    def test_integer_alpha_needs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr("graphsplines.spectral.eigendecompose", refuse)
        report = cross_validate(self.make_dataset(), CVConfig(k_neighbors=4, folds=4, repeats=2, alpha=2.0, seed=1))
        assert all(np.isfinite(row.mean_mse) and row.mean_mse >= 0.0 for row in report.rows)

    def test_fractional_alpha_decomposes_once(self, monkeypatch):
        import graphsplines.spectral as spectral

        calls = []
        original = spectral.eigendecompose

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigendecompose", counted)
        d = self.make_dataset()
        fractional = cross_validate(d, CVConfig(k_neighbors=4, folds=4, repeats=2, alpha=1.5, seed=1))
        assert len(calls) == 1
        integer = cross_validate(d, CVConfig(k_neighbors=4, folds=4, repeats=2, alpha=2.0, seed=1))
        spline = [(r.mean_mse, r.std_mse) for r in fractional.rows if r.method == "spline"]
        assert all(np.isfinite(m) and m >= 0.0 for m, _ in spline)
        assert spline != [(r.mean_mse, r.std_mse) for r in integer.rows if r.method == "spline"]
        # the baseline does not depend on alpha
        assert [r for r in fractional.rows if r.method == "nnr"] == [r for r in integer.rows if r.method == "nnr"]

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_fold_blocks_have_the_bits_of_the_dense_gather(self, alpha):
        # 97 rows in 10 folds give blocks of 10 and 9 rows; L stores its diagonal, and from
        # alpha = 3 on rounding leaves the power, and so its blocks, not exactly symmetric
        n = 97
        g = knn_graph(np.random.default_rng(31).normal(size=(n, 4)), 5)
        power = _power(g, alpha)
        folds = [np.sort(fold) for fold in np.array_split(np.random.default_rng(32).permutation(n), 10)]
        dense = laplacian_power(g, float(alpha))
        assert (alpha >= 3) != np.array_equal(dense, dense.T)
        blocks = list(_fold_blocks(power, folds))
        assert {block.shape[0] for block in blocks} == {9, 10}
        for fold, block in zip(folds, blocks):
            expected = dense[np.ix_(fold, fold)]
            assert block.shape == expected.shape and block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [2, 1.5])
    def test_a_yielded_fold_block_is_freed_once_the_caller_drops_it(self, alpha):
        # a repeat holds one fold block at a time, not every fold's block at once
        n = 97
        g = knn_graph(np.random.default_rng(31).normal(size=(n, 4)), 5)
        folds = [np.sort(fold) for fold in np.array_split(np.random.default_rng(32).permutation(n), 10)]
        power = _power(g, alpha)
        blocks = _fold_blocks(power, folds)
        for fold in folds:
            block = next(blocks)
            assert block.shape == (fold.size, fold.size)
            assert block.flags.f_contiguous or isinstance(power, np.ndarray)
            held = [weakref.ref(block)] + ([] if block.base is None else [weakref.ref(block.base)])
            del block
            assert all(ref() is None for ref in held)
        assert next(blocks, None) is None

    def test_integer_alpha_peaks_below_one_dense_n_by_n_array(self):
        import tracemalloc

        n = 3000
        rng = np.random.default_rng(34)
        X = rng.uniform(size=(n, 8))
        d = Dataset(X, X.sum(axis=1, keepdims=True), [f"x{j}" for j in range(8)], ["y"])
        tracemalloc.start()
        try:
            cross_validate(d, CVConfig(k_neighbors=10, folds=10, repeats=1, alpha=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(float).itemsize


class TestSmoothnessSeminorm:
    def test_matches_spectral_seminorm(self):
        # ||L f|| from the Laplacian equals the order-2 semi-norm from the eigenpairs
        from graphsplines import sobolev_seminorm

        rng = np.random.default_rng(2)
        sites = rng.uniform(0.0, 1.0, size=(60, 2))
        g = knn_graph(sites, 6)
        pairs = smoothness_experiment(60, magnitudes=[1.0], k_neighbors=6, seed=2)
        centers = (np.arange(4) + 0.5) / 4
        dist = np.linalg.norm(sites[:, None, :] - np.array([(x, y) for x in centers for y in centers])[None], axis=2)
        f = wendland_bump(dist * 4).sum(axis=1)
        assert pairs[0][0] == pytest.approx(sobolev_seminorm(decompose_graph(g), f, 2.0), rel=1e-10)
