"""Empirical checks of the decay theory: envelopes, fits, and covering constants.

These routines measure what the basis-function theory predicts: distance-binned
magnitude envelopes and their exponential fits, the ratio of semi-norm tails
outside nested balls, the vanishing-point norm bound, and the Dirichlet
eigenvalue constants of the covering constructions for cycles and for
known/unknown machine-learning graphs.

The suites in :data:`SUITES` run these checks, and the interpolants' minimal-norm
and coefficient-symmetry properties, on seeded random trials against their own
pass thresholds, returning ``(ok, lines, header, rows)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import depth_first_order

from .errors import (
    DegenerateDenominator,
    HypothesisViolated,
    InsufficientData,
    NotACycle,
    TooFewNodes,
)
from .graphs import WeightedGraph, build_graph, cycle_graph, fill_distance, random_connected_graph
from .interpolation import (
    InterpolationProblem,
    dirichlet_lagrange,
    evaluate,
    lagrange_basis,
    native_semi_inner_product,
    solve_interpolant,
)
from .io import fmt
from .spectral import (
    LaplacianKind,
    SpectralDecomposition,
    _dirichlet_eigenvalue,
    decompose_graph,
    laplacian,
    pseudo_inverse_power,
    sobolev_seminorm,
)


@dataclass
class DecayProfile:
    """Distance-binned envelope of |f| around a center vertex."""

    center: int
    distances: np.ndarray  # strictly increasing bin centers
    envelopes: np.ndarray  # max |f| over the vertices in each bin


@dataclass
class DecayFit:
    """Log-linear fit ``envelope ~ amplitude * rate**(scale * distance)``.

    ``slope`` is the fitted slope of ``log envelope`` against distance, so
    ``rate = exp(slope / scale)``. ``no_decay`` flags a non-negative slope, in
    which case ``rate`` falls outside (0, 1).
    """

    amplitude: float
    rate: float
    scale: float
    r_squared: float
    slope: float
    no_decay: bool


def decay_profile(f: np.ndarray, g: WeightedGraph, center: int, bin_width: float) -> DecayProfile:
    """Assign every vertex to the nearest multiple of ``bin_width`` and take bin maxima."""
    if not (0.0 < bin_width < np.inf):
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    f = np.asarray(f, dtype=float)
    d = g.distances_from(center)
    bins = np.floor(d / bin_width + 0.5)  # whole floats: an int cast overflows for a tiny width
    uniq, which = np.unique(bins, return_inverse=True)
    # every bin holds a vertex and every |f| is >= 0, so a running max from zeros is the bin max;
    # a nan still wins its bin, as in ndarray.max, without the warning maximum.at raises for it
    envelopes = np.zeros(uniq.size)
    with np.errstate(invalid="ignore"):
        np.maximum.at(envelopes, which, np.abs(f))
    return DecayProfile(center=int(center), distances=uniq * bin_width, envelopes=envelopes)


def decay_scale(h: float, rho_max: float) -> float:
    """Distance scale of the decay bound for fill distance h and max edge length."""
    return 1.0 / (4.0 * h + 3.0 * rho_max)


def fit_exponential_decay(p: DecayProfile, scale: float = 1.0) -> DecayFit:
    """Least-squares line through ``(distance, log envelope)`` over positive bins.

    Needs at least three strictly positive envelope entries. ``r_squared`` is
    reported as 1.0 for an exactly constant (perfectly fit) envelope.
    ``scale`` must be positive and finite.
    """
    if not (0.0 < scale < np.inf):
        raise ValueError(f"fit scale must be positive and finite, got {scale}")
    positive = p.envelopes > 0
    if np.count_nonzero(positive) < 3:
        raise InsufficientData("need at least 3 positive envelope bins to fit")
    x = p.distances[positive]
    y = np.log(p.envelopes[positive])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if total == 0.0 else 1.0 - float((residuals**2).sum()) / total
    return DecayFit(
        amplitude=float(np.exp(intercept)),
        rate=float(np.exp(slope / scale)),
        scale=float(scale),
        r_squared=r_squared,
        slope=float(slope),
        no_decay=bool(slope >= 0),
    )


def bulk_ratio(
    chi: np.ndarray,
    s: SpectralDecomposition,
    g: WeightedGraph,
    center: int,
    r2: float,
    r3: float,
    h: float,
    rho_max: float,
) -> float:
    """Ratio of order-2 semi-norm tails outside two nested balls.

    Returns ``|chi| outside B(r3 + 2h)`` over ``|chi| outside B(r2 - 2*rho_max
    - 2h)``; the decay theory predicts a value below 1 for admissible radii
    ``3*rho_max + 2h < r2 < r3``.
    """
    # L^(alpha/2) chi at alpha = 2, shared by the three norms
    return _bulk_ratios(s.apply_power(chi, 1.0), g.distances_from(center), [(r2, r3)], h, rho_max)[0]


def _bulk_ratios(filtered: np.ndarray, d: np.ndarray, radii, h: float, rho_max: float) -> list[float]:
    """:func:`bulk_ratio` for each ``(r2, r3)`` in ``radii``, given ``L chi`` and the distances from the center."""
    # roundoff floor: functions with no tail come back as ~eps, not exact zero
    floor = d.size * np.finfo(float).eps * float(np.linalg.norm(filtered))
    ratios = []
    for r2, r3 in radii:
        if not (3.0 * rho_max + 2.0 * h < r2 < r3):
            raise ValueError(f"need 3*rho_max + 2h < r2 < r3, got r2={r2}, r3={r3}")
        r1 = r2 - 2.0 * rho_max - 2.0 * h
        r4 = r3 + 2.0 * h
        outside_r1 = np.flatnonzero(d > r1)
        if outside_r1.size == 0:
            raise DegenerateDenominator(f"ball of radius {r1} already covers the graph")
        denominator = float(np.linalg.norm(filtered[outside_r1]))
        if denominator <= floor:
            raise DegenerateDenominator(f"semi-norm outside radius {r1} vanishes")
        outside_r4 = np.flatnonzero(d > r4)
        numerator = 0.0 if outside_r4.size == 0 else float(np.linalg.norm(filtered[outside_r4]))
        ratios.append(numerator / denominator)
    return ratios


def zeros_bound_ratio(s: SpectralDecomposition, f: np.ndarray, alpha: float) -> float:
    """Observed over allowed norm for a function vanishing somewhere.

    The bound says ``||f|| <= sqrt(N) / lambda_1^(alpha/2) * |f|_alpha`` for any
    f with a zero; the returned ratio is at most 1 when the bound holds, and
    exactly 1 when it is tight. Returns 0.0 for the zero function.
    """
    f = np.asarray(f, dtype=float)
    norm = float(np.linalg.norm(f))
    if norm == 0.0:
        return 0.0
    seminorm = sobolev_seminorm(s, f, alpha)
    allowed = np.sqrt(s.n) / s.eigenvalues[1] ** (alpha / 2.0) * seminorm
    return norm / allowed


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")


@dataclass
class ZerosLemmaReport:
    alpha: float
    trials: int
    max_ratio: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def zeros_lemma_check(g: WeightedGraph, alpha: float, trials: int, seed: int) -> ZerosLemmaReport:
    """Random vanishing-point functions against the norm bound (unnormalized Laplacian).

    Each trial draws a standard normal function, zeroes it at a random vertex,
    and records the observed/allowed ratio. Ratios above ``1 + 1e-9`` are
    collected as violations together with the witness function.
    """
    _check_trials(trials)
    return _zeros_lemma_trials(decompose_graph(g, LaplacianKind.UNNORMALIZED), alpha, trials, seed)


def _zeros_lemma_trials(s: SpectralDecomposition, alpha: float, trials: int, seed: int) -> ZerosLemmaReport:
    """The trials of :func:`zeros_lemma_check` on a given unnormalized decomposition."""
    rng = np.random.default_rng(seed)
    report = ZerosLemmaReport(alpha=float(alpha), trials=trials, max_ratio=0.0)
    for _ in range(trials):
        v0 = int(rng.integers(s.n))
        f = rng.standard_normal(s.n)
        f[v0] = 0.0
        ratio = zeros_bound_ratio(s, f, alpha)
        report.max_ratio = max(report.max_ratio, ratio)
        if ratio > 1.0 + 1e-9:
            report.violations.append({"vertex": v0, "ratio": ratio, "function": f.copy()})
    return report


def cycle_cover_constant(g: WeightedGraph, nodes) -> float:
    """Covering constant for a cycle: twice the worst inverse Dirichlet eigenvalue squared.

    The ring is covered by overlapping paths, each spanning two consecutive
    node gaps (wrapping around; each vertex lies in at most two path
    interiors). The interiors' smallest Laplacian-submatrix eigenvalues give
    the constant ``2 * max_k (1 / lambda_k)^2``.
    """
    if g.adjacency.nnz // 2 != g.n_vertices or np.any(g.degrees != 2):
        raise NotACycle("graph is not a single cycle")
    # ring order; both orientations are stored, so the directed walk is the undirected one without a transpose
    order = depth_first_order(g.adjacency, 0, directed=True, return_predecessors=False).tolist()
    position = {v: i for i, v in enumerate(order)}
    nodes = np.unique(np.asarray(nodes, dtype=int))
    if nodes.size < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {nodes.size}")
    node_pos = sorted(position[int(v)] for v in nodes)
    n, n_nodes = g.n_vertices, len(node_pos)

    L = laplacian(g, LaplacianKind.NORMALIZED)
    worst = 0.0
    for k in range(n_nodes):
        start = node_pos[k]
        end = node_pos[(k + 2) % n_nodes]
        if k + 2 >= n_nodes:
            end += n
        interior = [order[p % n] for p in range(start + 1, end)]
        worst = max(worst, (1.0 / _dirichlet_eigenvalue(L, interior)) ** 2)
    return 2.0 * worst


def random_known_unknown_graph(
    n_known: int, n_unknown: int, rng: np.random.Generator
) -> tuple[WeightedGraph, np.ndarray]:
    """Random graph satisfying the known/unknown covering hypotheses.

    Known vertices form a random tree; each unknown vertex attaches to one or
    more known ones, so no edge joins two unknowns. Lengths are drawn from
    [0.5, 1.0] (at least half the maximum) and weights are inverse lengths.
    Returns the graph and the sorted known vertex ids (0..n_known-1).
    """
    if n_known < 1 or n_known + n_unknown < 2:
        raise ValueError("need at least one known vertex and two vertices in total")
    edges = []

    def add(u: int, v: int) -> None:
        ell = float(rng.uniform(0.5, 1.0))
        edges.append((u, v, 1.0 / ell, ell))

    for i in range(1, n_known):
        add(i, int(rng.integers(0, i)))
    for j in range(n_unknown):
        u = n_known + j
        attach = rng.choice(n_known, size=int(rng.integers(1, min(3, n_known) + 1)), replace=False)
        for v in attach:
            add(u, int(v))
    return build_graph(edges, n_known + n_unknown), np.arange(n_known)


@dataclass
class MLCoverReport:
    """Degree-based covering bound beside the eigenvalue-based empirical one."""

    formula_bound: float
    empirical_bound: float
    max_degree: int
    min_dirichlet: float


def ml_cover_constant(g: WeightedGraph, known) -> MLCoverReport:
    """Covering constants for a graph split into known and unknown vertices.

    Hypotheses validated: no edge joins two unknown vertices, every edge length
    is at least half the maximum, and edge weights equal inverse lengths. The
    formula bound is ``64 (M+1)^4 M^5`` for maximum degree M; the empirical
    bound replaces the Cheeger-based eigenvalue estimate with the true minimum
    Dirichlet eigenvalue over the grown neighborhood subgraphs (times the same
    overlap factor M).
    """
    unknown = ~np.isin(np.arange(g.n_vertices), known)

    rho_max = g.rho_max
    for u, v, w, ell in g.edges:
        if unknown[u] and unknown[v]:
            raise HypothesisViolated(f"edge ({u},{v}) joins two unknown vertices")
        if ell < rho_max / 2.0 - 1e-12:
            raise HypothesisViolated(
                f"edge ({u},{v}) has length {ell} below half the maximum {rho_max}"
            )
        if abs(w * ell - 1.0) > 1e-9:
            raise HypothesisViolated(f"edge ({u},{v}) weight {w} is not the inverse of length {ell}")

    M = int(g.degrees.max())
    formula = 64.0 * (M + 1) ** 4 * M**5

    L = laplacian(g, LaplacianKind.NORMALIZED)
    min_lam = np.inf
    for v0 in range(g.n_vertices):
        # Dirichlet interior: the seed vertex and its unknown neighbours. As no edge joins
        # two unknowns, growing the neighbourhood by a second hop adds only known vertices.
        neighborhood = g.neighbors(v0)
        interior = np.union1d([v0], neighborhood[unknown[neighborhood]])
        min_lam = min(min_lam, _dirichlet_eigenvalue(L, interior))

    empirical = M * (1.0 / min_lam) ** 2
    return MLCoverReport(
        formula_bound=formula,
        empirical_bound=empirical,
        max_degree=M,
        min_dirichlet=float(min_lam),
    )


# --- verification suites ---------------------------------------------------------

def verify_zeros_lemma(trials: int, seed: int):
    """Vanishing-point norm bound on random graphs at alpha 1, 2 and 4."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    rows = []
    for _ in range(trials):
        n = int(rng.integers(2, 65))
        s = decompose_graph(random_connected_graph(n, rng), LaplacianKind.UNNORMALIZED)
        for alpha in (1.0, 2.0, 4.0):
            report = _zeros_lemma_trials(s, alpha, trials=1, seed=int(rng.integers(2**31)))
            worst = max(worst, report.max_ratio)
            violations += len(report.violations)
            rows.append((n, alpha, fmt(report.max_ratio)))
    line = f"zeros-lemma: graphs={trials} alphas=1,2,4 max_ratio={worst:.12f} violations={violations}"
    return violations == 0, [line], ["n_vertices", "alpha", "ratio"], rows


def _random_nodes(rng: np.random.Generator, max_n: int, max_m: int) -> tuple[WeightedGraph, np.ndarray]:
    """Random graph on 4..max_n vertices and a sorted node set of 2..max_m of them."""
    n = int(rng.integers(4, max_n + 1))
    g = random_connected_graph(n, rng)
    m = int(rng.integers(2, min(n, max_m) + 1))
    return g, np.sort(rng.choice(n, size=m, replace=False))


def verify_min_norm(trials: int, seed: int):
    """An interpolant takes its values on the nodes, and is orthogonal to, and no longer than,
    itself plus a perturbation vanishing on the nodes."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    worst_ip = worst_node = 0.0
    failures = 0
    rows = []
    for _ in range(trials):
        g, nodes = _random_nodes(rng, 64, 64)
        n, m = g.n_vertices, nodes.size
        decomposition = decompose_graph(g)
        values = rng.standard_normal(m)
        problem = InterpolationProblem(g, decomposition, 2.0, nodes, values)
        s_fun = evaluate(solve_interpolant(problem), problem)
        s_norm = sobolev_seminorm(decomposition, s_fun, 2.0)
        node_error = float(np.abs(s_fun[nodes] - values).max() / np.abs(values).max())
        worst_node = max(worst_node, node_error)

        perturbation = rng.standard_normal(n)
        perturbation[nodes] = 0.0
        inner = native_semi_inner_product(decomposition, perturbation, s_fun, 2.0)
        scale = max(1.0, sobolev_seminorm(decomposition, perturbation, 2.0) * s_norm)
        rel = abs(inner) / scale
        worst_ip = max(worst_ip, rel)
        competitor = sobolev_seminorm(decomposition, s_fun + perturbation, 2.0)
        if not (node_error <= 1e-12 and rel <= 1e-9 and competitor >= s_norm * (1 - 1e-12)):
            failures += 1
        rows.append((n, m, fmt(rel), fmt(competitor - s_norm), fmt(node_error)))
    line = (
        f"min-norm: trials={trials} max_rel_inner_product={worst_ip:.3e} "
        f"max_rel_node_error={worst_node:.3e} failures={failures}"
    )
    return failures == 0, [line], ["n_vertices", "n_nodes", "rel_inner_product", "norm_gap", "rel_node_error"], rows


def verify_coeff_symmetry(trials: int, seed: int):
    """Lagrange coefficients are symmetric, equal the Gram matrix of the basis, and solve the bordered
    kernel system: ``Phi_KK B + v0_K c^T = I`` and ``v0_K^T B = 0`` for the coefficients B and constants c."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    rows = []
    for _ in range(trials):
        g, nodes = _random_nodes(rng, 100, 30)
        decomposition = decompose_graph(g)
        basis = lagrange_basis(2.0, decomposition, g, nodes)
        coeffs = basis.coefficients
        asym = float(np.abs(coeffs - coeffs.T).max())

        gram = basis.columns.T @ decomposition.apply_power(basis.columns, 2.0)
        mismatch = float(np.abs(gram - coeffs).max())

        kernel = pseudo_inverse_power(decomposition, 2.0).matrix[np.ix_(nodes, nodes)]
        v0 = decomposition.kernel_vector[nodes]
        identity = kernel @ coeffs + np.outer(v0, basis.constants) - np.eye(nodes.size)
        bordered = float(max(np.abs(identity).max(), np.abs(v0 @ coeffs).max()))

        worst = max(worst, asym, mismatch, bordered)
        if max(asym, mismatch, bordered) > 1e-8:
            failures += 1
        rows.append((g.n_vertices, nodes.size, fmt(asym), fmt(mismatch), fmt(bordered)))
    line = f"coeff-symmetry: trials={trials} max_deviation={worst:.3e} failures={failures}"
    return failures == 0, [line], ["n_vertices", "n_nodes", "asymmetry", "gram_mismatch", "bordered_residual"], rows


def verify_bulk_ratio(trials: int, seed: int):
    """Semi-norm tail ratios of a cycle-256 Lagrange function on a deterministic radius sweep (``seed`` unused)."""
    _check_trials(trials)
    g = cycle_graph(256)
    nodes = np.arange(0, 256, 4)
    decomposition = decompose_graph(g)
    chi = dirichlet_lagrange(g, nodes, 0, 2.0)
    h = fill_distance(g, nodes)
    rho_max = g.rho_max
    side = int(np.sqrt(trials))
    r2_values = 3 * rho_max + 2 * h + 1 + 2.0 * np.arange(side)
    radii = [(r2, r2 + gap) for r2 in r2_values for gap in 2.0 * (1 + np.arange(side))]
    ratios = _bulk_ratios(decomposition.apply_power(chi, 1.0), g.distances_from(0), radii, h, rho_max)
    worst = max(ratios)
    rows = [(fmt(r2), fmt(r3), fmt(ratio)) for (r2, r3), ratio in zip(radii, ratios)]
    line = f"bulk-ratio: cycle-256 sweep {side}x{side} max_ratio={worst:.6f}"
    return worst < 1.0, [line], ["r2", "r3", "ratio"], rows


def verify_cover_constant(trials: int, seed: int):
    """Cycle covering constants are rotation invariant; known/unknown ones stay below the degree formula."""
    _check_trials(trials)
    rng = np.random.default_rng(seed)
    failures = 0
    rows = []
    for _ in range(trials):
        spacing = int(rng.choice([1, 2, 4]))
        n_nodes = int(rng.integers(3, 11))
        n = spacing * n_nodes
        g = cycle_graph(n)
        nodes = np.arange(0, n, spacing)
        constant = cycle_cover_constant(g, nodes)
        shift = int(rng.integers(n))
        rotated = cycle_cover_constant(g, (nodes + shift) % n)
        drift = abs(constant - rotated) / constant
        cycle_ok = constant > 0 and drift <= 1e-9

        n_known = int(rng.integers(2, 13))
        n_unknown = int(rng.integers(1, 13))
        gm, known = random_known_unknown_graph(n_known, n_unknown, rng)
        report = ml_cover_constant(gm, known)
        if not (cycle_ok and report.empirical_bound <= report.formula_bound):
            failures += 1
        rows.append((n, spacing, fmt(constant), fmt(drift), fmt(report.empirical_bound), fmt(report.formula_bound)))
    line = f"cover-constant: trials={trials} failures={failures}"
    return failures == 0, [line], ["cycle_n", "spacing", "constant", "rotation_drift", "ml_empirical", "ml_formula"], rows


SUITES = {
    "zeros-lemma": verify_zeros_lemma,
    "min-norm": verify_min_norm,
    "coeff-symmetry": verify_coeff_symmetry,
    "bulk-ratio": verify_bulk_ratio,
    "cover-constant": verify_cover_constant,
}
