"""Spline regression harness: tabular datasets, cross-validation, smoothness study.

The regression experiment is transductive: a k-nearest-neighbor graph is built
over all rows (known and unknown together), the spline method extends the
known targets to the unknown rows, and the baseline predicts each unknown
vertex as the weighted average of its known neighbors.

The spline is the minimal-norm polyharmonic interpolant, found from its
Dirichlet form: it satisfies ``(L^alpha s)_U = 0`` on the unknown set U, so
``s_U = -(L^alpha)_UU^-1 (L^alpha)_UK F`` with one symmetric solve per known
set (``interpolation.spline_regress``). ``L^alpha`` comes from
``spectral._power``: for an integer alpha a CSR product of Laplacians, so no
eigendecomposition, kernel matrix or n x n array is built here.

With F the targets on every row, the Dirichlet form gives a CV fold's error
in closed form, ``e_U = s_U - F_U = -(L^alpha)_UU^-1 (L^alpha F)_U``, a
leave-fold-out form of Rippa's residual (Adv. Comput. Math. 11, 1999). So
``L^alpha F`` is formed once per run, and a fold reads only the |U| x |U|
block and |U| rows of it for one symmetric solve; a block is made when its
fold is solved (at an integer alpha scattered from the CSR entries), so one
of (n / folds)^2 doubles is held at a time. The baseline comes from one
sparse product per repeat of the adjacency with, for each fold, the known-set
indicator and the centered known values. The report keeps the smallest fold
rcond (``min_rcond``) next to the count of baseline fallbacks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TooFewRows, ValidationError, ZeroVarianceColumn
from .graphs import WeightedGraph, knn_graph
from .interpolation import _solve_symmetric, spline_regress
from .io import read_table
from .spectral import _power


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
    for kind, selected in (("feature", feature_columns), ("target", target_columns)):
        if len(selected) == 0:
            raise ValidationError(f"{path}: the {kind} column list is empty")
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
    g: WeightedGraph, targets: np.ndarray, folds: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Weighted average of the known neighbors of each vertex of each fold.

    ``targets`` has one row per vertex and one column per target; a fold's
    known set is every vertex outside it. Returns, per fold, the predictions
    (one row per fold vertex, in the fold's order) and the mask of fold
    vertices with no known neighbor, which get the column means of the known
    values.

    One sparse product ``W S`` over the whole graph gives every fold's sums:
    ``S`` holds one block of columns per fold, the indicator of its known set,
    which yields each vertex's total weight to known neighbors, and the
    centered known values, zero on the fold. scipy sums each column of the
    product in the same order whatever the column count, so a fold's sums
    have the bits of a product over its block alone. With two or more
    targets, one sum over the targets masked to each known set gives every
    fold's means, with the bits of ``targets[known].mean(axis=0)``.
    """
    n, t = targets.shape
    known = np.ones((n, len(folds)), dtype=bool)
    for f, fold in enumerate(folds):
        known[fold, f] = False
    masked = np.where(known[:, :, None], targets[:, None, :], 0.0)
    if t == 1:  # numpy sums a lone column pairwise, and the fold's zeros would regroup that sum
        base = np.array([targets[known[:, f]].mean(axis=0) for f in range(len(folds))])
    else:  # rows are added in order, as in targets[known].mean(axis=0), and adding +0.0 is exact
        base = masked.sum(axis=0) / known.sum(axis=0)[:, None]
    spread = np.zeros((n, len(folds), 1 + t))
    spread[:, :, 0] = known
    # centered form: exact for constant data and better conditioned generally
    spread[:, :, 1:] = np.where(known[:, :, None], masked - base, 0.0)
    sums = (g.adjacency @ spread.reshape(n, -1)).reshape(spread.shape)
    out = []
    for f, fold in enumerate(folds):
        totals, weighted = sums[fold, f, 0], sums[fold, f, 1:]
        isolated = totals == 0.0
        preds = base[f] + weighted / np.where(isolated, 1.0, totals)[:, None]
        preds[isolated] = base[f]
        out.append((preds, isolated))
    return out


def _fold_blocks(power, folds: Sequence[np.ndarray]):
    """A generator of each fold's block ``power[np.ix_(fold, fold)]``, made when asked for and not kept.

    A dense ``power`` is gathered. A CSR one's stored entries inside a fold's block are sorted by fold
    in one pass; each block is then scattered into zeros, column-major as ``dsysv`` reads it, which
    with no entry stored twice gives the bits of the dense gather.
    """
    if isinstance(power, np.ndarray):
        return (power[np.ix_(fold, fold)] for fold in folds)
    label, at = np.empty(power.shape[0], dtype=np.intp), np.empty(power.shape[0], dtype=np.intp)
    for f, fold in enumerate(folds):  # vertex fold[i] is row and column i of fold f's block
        label[fold], at[fold] = f, np.arange(fold.size)
    per_row = np.diff(power.indptr)
    fold_of, cols = np.repeat(label, per_row), power.indices.astype(np.intp)
    inside = np.flatnonzero(fold_of == label[cols])
    inside = inside[np.argsort(fold_of[inside])]  # any order within a fold: no position is written twice
    splits = np.cumsum(np.bincount(fold_of[inside], minlength=len(folds)))[:-1]
    coordinates = (np.repeat(at, per_row)[inside], at[cols[inside]], power.data[inside])
    per_fold = (np.split(e, splits) for e in coordinates)
    return (_scatter(fold.size, r, c, v) for fold, r, c, v in zip(folds, *per_fold))


def _scatter(m: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An m x m column-major block, zero but for ``values`` at (``rows``, ``cols``)."""
    block = np.zeros((m, m), order="F")
    block[rows, cols] = values
    return block


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
    mean and population standard deviation over repeats. A fold's spline error
    is ``-(L^alpha)_UU^-1 (L^alpha F)_U`` (module docstring): its work is the
    |U| x |U| block (from :func:`_fold_blocks`, one at a time) and |U| rows of
    ``L^alpha F``, which is formed once. The baseline predicts all of a
    repeat's folds from one sparse product.
    """
    if d.n_rows < cfg.folds:
        raise TooFewRows(f"{d.n_rows} rows cannot be split into {cfg.folds} folds")
    normalized = normalize(d)
    g = knn_graph(normalized.features, cfg.k_neighbors)
    n, t = d.n_rows, d.targets.shape[1]
    power = _power(g, cfg.alpha)  # CSR at an integer alpha, the dense eigenpair power at a fractional one
    residual = power @ d.targets

    repeat_mse = {"spline": np.zeros((cfg.repeats, t)), "nnr": np.zeros((cfg.repeats, t))}
    fallbacks = 0
    min_rcond = np.inf

    # an overflow reaches the report as inf or nan, and is refused there by its target column
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(cfg.repeats):
            rng = np.random.default_rng([cfg.seed, r])
            folds = [np.sort(fold) for fold in np.array_split(rng.permutation(n), cfg.folds)]
            fold_mse = {"spline": np.zeros((cfg.folds, t)), "nnr": np.zeros((cfg.folds, t))}
            baseline = _nnr_predictions(g, d.targets, folds)
            blocks = _fold_blocks(power, folds)
            for fi, (unknown, (nnr, isolated)) in enumerate(zip(folds, baseline)):
                error, rcond = _solve_symmetric(next(blocks), -residual[unknown])
                min_rcond = min(min_rcond, rcond)
                fold_mse["spline"][fi] = (error**2).mean(axis=0)

                fallbacks += int(isolated.sum())
                fold_mse["nnr"][fi] = ((nnr - d.targets[unknown]) ** 2).mean(axis=0)
            for method in repeat_mse:
                repeat_mse[method][r] = fold_mse[method].mean(axis=0)

        report = RegressionReport(nnr_fallbacks=fallbacks, min_rcond=min_rcond)
        for method in ("spline", "nnr"):
            for name, series in zip(d.target_names, repeat_mse[method].T):
                mean, std = float(series.mean()), float(series.std())
                if not (np.isfinite(mean) and np.isfinite(std)):
                    raise ValidationError(f"target column {name!r}: its {method} mean squared error overflows a double")
                report.rows.append(ReportRow(method, name, cfg.k_neighbors, mean, std))
    return report


def wendland_bump(r):
    """Compactly supported bump profile ``(1-r)^4 (4r+1)`` on [0, 1].

    Clamped outside: 1 below zero, 0 beyond one. Accepts scalars or arrays.
    """
    r = np.asarray(r, dtype=float)
    clamped = np.clip(r, 0.0, 1.0)
    value = (1.0 - clamped) ** 4 * (4.0 * clamped + 1.0)
    return float(value) if value.ndim == 0 else value


def _refuse_overflow(scaled: np.ndarray, magnitudes: np.ndarray) -> None:
    """Refuse the first magnitude whose column of ``scaled`` is not finite."""
    bad = ~np.isfinite(scaled).all(axis=0)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValidationError(f"magnitude {magnitudes[j]} is too large: the scaled field or its norm overflows a double")


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
    with np.errstate(over="ignore"):  # a magnitude that overflows is refused by name
        fields = np.outer(base, magnitudes)
    _refuse_overflow(fields, magnitudes)
    with np.errstate(over="ignore"):
        errors = np.linalg.norm(spline_regress(g, known, fields[known], alpha) - fields[unknown], axis=0)
        seminorms = np.linalg.norm(_power(g, 1) @ fields, axis=0)
    _refuse_overflow(np.stack([errors, seminorms]), magnitudes)
    return [(float(a), float(b)) for a, b in zip(seminorms, errors)]
