"""Spline regression harness: tabular datasets, cross-validation, smoothness study.

The regression experiment is transductive: a k-nearest-neighbor graph is built
over all rows (known and unknown together), the spline method extends the
known targets to the unknown rows, and the baseline predicts each unknown
vertex as the weighted average of its known neighbors.

The spline is the minimal-norm polyharmonic interpolant, found from its
Dirichlet form: it satisfies ``(L^alpha s)_U = 0`` on the unknown set U, so
``s_U = -(L^alpha)_UU^-1 (L^alpha)_UK F`` with one symmetric solve per known
set (``interpolation.spline_regress``; the CV loop forms ``L^alpha`` once).
For an integer alpha ``L^alpha`` is a sparse product of Laplacians, so no
eigendecomposition or kernel matrix is built here.

Per fold the loop does two things. It reads the row block ``(L^alpha)_U``
once; its U columns are the system, and its product with the known values
padded by zeros on U is the right-hand side. The baseline then comes from one
sparse product of the adjacency with the known-set indicator and the centered
known values. The report keeps the smallest fold rcond (``min_rcond``) next
to the count of baseline fallbacks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TooFewRows, ZeroVarianceColumn
from .graphs import WeightedGraph, complement, knn_graph
from .interpolation import _solve_dirichlet, spline_regress
from .io import read_table
from .spectral import LaplacianKind, _sparse_laplacian, laplacian_power


@dataclass
class Dataset:
    """Numeric feature/target table with no missing values."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: list[str]
    target_names: list[str]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def _resolve_columns(selected, names: list[str]) -> list[int]:
    indices = []
    for col in selected:
        if isinstance(col, int) or (isinstance(col, str) and col.lstrip("-").isdigit()):
            idx = int(col)
        elif col in names:
            idx = names.index(col)
        else:
            raise ValueError(f"unknown column {col!r}")
        if not (0 <= idx < len(names)):
            raise ValueError(f"column index {idx} out of range for {len(names)} columns")
        indices.append(idx)
    return indices


def load_dataset(path, feature_columns: Sequence, target_columns: Sequence, header: bool = True) -> Dataset:
    """Read a CSV/TSV table (see :func:`graphsplines.io.read_table`) and select columns.

    Columns may be named or given as zero-based indices; a table without a
    header names its columns ``col0, col1, ...``.
    """
    names, data = read_table(path, header)
    if data.shape[0] < 2:
        raise TooFewRows(f"{path}: need at least 2 data rows, got {data.shape[0]}")
    feat_idx = _resolve_columns(feature_columns, names)
    targ_idx = _resolve_columns(target_columns, names)
    # take() returns C-ordered columns, so the per-column sums in normalize() run as before
    return Dataset(
        features=data.take(feat_idx, axis=1),
        targets=data.take(targ_idx, axis=1),
        feature_names=[names[i] for i in feat_idx],
        target_names=[names[i] for i in targ_idx],
    )


def normalize(d: Dataset) -> Dataset:
    """Z-score every feature column; targets are left untouched."""
    std = d.features.std(axis=0)
    if np.any(std == 0):
        j = int(np.argmax(std == 0))
        raise ZeroVarianceColumn(f"feature column {d.feature_names[j]!r} is constant")
    features = (d.features - d.features.mean(axis=0)) / std
    return Dataset(features, d.targets.copy(), list(d.feature_names), list(d.target_names))


def _nnr_predictions(
    g: WeightedGraph, known: np.ndarray, known_values: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted average of the known neighbors of each query vertex.

    ``known_values`` has one row per known vertex and one column per target.
    Returns the predictions (one row per query) and the mask of queries with
    no known neighbor, which get the column means of the known values.

    One sparse product ``W S`` over the whole graph gives both sums: column 0
    of ``S`` is the indicator of the known set, so it yields each vertex's
    total weight to known neighbors, and the other columns hold the centered
    known values, zero on the unknown vertices.
    """
    base = known_values.mean(axis=0)
    spread = np.zeros((g.n_vertices, 1 + known_values.shape[1]))
    spread[known, 0] = 1.0
    # centered form: exact for constant data and better conditioned generally
    spread[known, 1:] = known_values - base
    sums = (g.adjacency @ spread)[queries]
    totals = sums[:, 0]
    isolated = totals == 0.0
    preds = base + sums[:, 1:] / np.where(isolated, 1.0, totals)[:, None]
    preds[isolated] = base
    return preds, isolated


@dataclass
class CVConfig:
    k_neighbors: int
    folds: int = 10
    repeats: int = 20
    alpha: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.repeats < 1:
            raise ValueError(f"need at least 1 repeat, got {self.repeats}")
        if self.k_neighbors < 1:
            raise ValueError(f"need k_neighbors >= 1, got {self.k_neighbors}")


@dataclass
class ReportRow:
    method: str
    target: str
    k_neighbors: int
    mean_mse: float
    std_mse: float


@dataclass
class RegressionReport:
    """Report rows plus run health: baseline fallbacks and the smallest fold rcond.

    ``min_rcond`` is the smallest reciprocal condition estimate (1-norm,
    ``dsycon``) of the folds' ``(L^alpha)_UU`` systems; it is not written to
    the report CSV or the manifest.
    """

    rows: list[ReportRow] = field(default_factory=list)
    nnr_fallbacks: int = 0
    min_rcond: float = np.inf

    def row(self, method: str, target: str) -> ReportRow:
        for r in self.rows:
            if r.method == method and r.target == target:
                return r
        raise KeyError((method, target))


def cross_validate(d: Dataset, cfg: CVConfig) -> RegressionReport:
    """Repeated k-fold cross-validation of the spline method against the baseline.

    Features are normalized and a k-NN graph is built once over all rows. For
    every repeat a seeded shuffle partitions the rows into folds; each fold in
    turn is treated as unknown and both methods predict it from the same known
    set. Per-fold MSEs are averaged within a repeat, and the report carries the
    mean and population standard deviation over repeats.
    """
    if d.n_rows < cfg.folds:
        raise TooFewRows(f"{d.n_rows} rows cannot be split into {cfg.folds} folds")
    normalized = normalize(d)
    g = knn_graph(normalized.features, cfg.k_neighbors)
    power = laplacian_power(g, cfg.alpha)

    n, t = d.n_rows, d.targets.shape[1]
    repeat_mse = {"spline": np.zeros((cfg.repeats, t)), "nnr": np.zeros((cfg.repeats, t))}
    fallbacks = 0
    min_rcond = np.inf

    for r in range(cfg.repeats):
        rng = np.random.default_rng([cfg.seed, r])
        folds = np.array_split(rng.permutation(n), cfg.folds)
        fold_mse = {"spline": np.zeros((cfg.folds, t)), "nnr": np.zeros((cfg.folds, t))}
        for fi, fold in enumerate(folds):
            unknown = np.sort(fold)
            known = complement(g, unknown)
            known_values = d.targets[known]
            truth = d.targets[unknown]

            preds, rcond = _solve_dirichlet(power, known, unknown, known_values)
            min_rcond = min(min_rcond, rcond)
            fold_mse["spline"][fi] = ((preds - truth) ** 2).mean(axis=0)

            nnr, isolated = _nnr_predictions(g, known, known_values, unknown)
            fallbacks += int(isolated.sum())
            fold_mse["nnr"][fi] = ((nnr - truth) ** 2).mean(axis=0)
        for method in repeat_mse:
            repeat_mse[method][r] = fold_mse[method].mean(axis=0)

    report = RegressionReport(nnr_fallbacks=fallbacks, min_rcond=min_rcond)
    for method in ("spline", "nnr"):
        for j, name in enumerate(d.target_names):
            series = repeat_mse[method][:, j]
            report.rows.append(
                ReportRow(
                    method=method,
                    target=name,
                    k_neighbors=cfg.k_neighbors,
                    mean_mse=float(series.mean()),
                    std_mse=float(series.std()),
                )
            )
    return report


def wendland_bump(r):
    """Compactly supported bump profile ``(1-r)^4 (4r+1)`` on [0, 1].

    Clamped outside: 1 below zero, 0 beyond one. Accepts scalars or arrays.
    """
    r = np.asarray(r, dtype=float)
    clamped = np.clip(r, 0.0, 1.0)
    value = (1.0 - clamped) ** 4 * (4.0 * clamped + 1.0)
    return float(value) if value.ndim == 0 else value


def smoothness_experiment(
    n_points: int,
    n_bumps_per_axis: int = 4,
    magnitudes: Sequence[float] = (1.0,),
    k_neighbors: int = 8,
    alpha: float = 2.0,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Relate data smoothness to interpolation error on a random planar graph.

    Draws ``n_points`` sites uniformly in the unit square, builds their k-NN
    graph, and samples a sum of bump functions placed on a uniform grid with
    support radius ``1 / n_bumps_per_axis``. Half of the sites (seeded shuffle)
    are known; for each magnitude the scaled field is interpolated from the
    known half and the pair ``(order-2 semi-norm of the full field, l2 error on
    the unknown half)`` is recorded. Sites, graph, and split are drawn once so
    magnitudes differ only by scale.
    """
    if n_points < 4 or n_points % 2:
        raise ValueError(f"n_points must be even and at least 4, got {n_points}")
    if n_bumps_per_axis < 1:
        raise ValueError(f"need at least 1 bump per axis, got {n_bumps_per_axis}")
    magnitudes = np.asarray(magnitudes, dtype=float)
    if magnitudes.size == 0 or not np.all(np.isfinite(magnitudes)):
        raise ValueError(f"magnitudes must be a nonempty list of finite numbers, got {magnitudes.tolist()}")
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0.0, 1.0, size=(n_points, 2))
    g = knn_graph(sites, k_neighbors)
    grid = (np.arange(n_bumps_per_axis) + 0.5) / n_bumps_per_axis
    centers = np.array([(x, y) for x in grid for y in grid])
    dist = np.linalg.norm(sites[:, None, :] - centers[None, :, :], axis=2)
    base = wendland_bump(dist * n_bumps_per_axis).sum(axis=1)

    half = rng.permutation(n_points)
    known = np.sort(half[: n_points // 2])
    unknown = np.sort(half[n_points // 2 :])

    # one column per magnitude; the order-2 semi-norm ||L^(2/2) f|| is ||L f||
    fields = np.outer(base, magnitudes)
    errors = np.linalg.norm(spline_regress(g, known, fields[known], alpha) - fields[unknown], axis=0)
    seminorms = np.linalg.norm(_sparse_laplacian(g, LaplacianKind.NORMALIZED) @ fields, axis=0)
    return [(float(a), float(b)) for a, b in zip(seminorms, errors)]
