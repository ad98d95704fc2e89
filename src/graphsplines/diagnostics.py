"""Empirical checks of the decay theory: envelopes, fits, and covering constants.

These routines measure what the basis-function theory predicts: distance-binned
magnitude envelopes and their exponential fits, the ratio of semi-norm tails
outside nested balls, the vanishing-point norm bound, and the Dirichlet
eigenvalue constants of the covering constructions for cycles and for
known/unknown machine-learning graphs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    HypothesisViolated,
    InsufficientData,
    NotACycle,
    TooFewNodes,
)
from .graphs import WeightedGraph, ball, build_graph, complement
from .spectral import (
    LaplacianKind,
    SpectralDecomposition,
    decompose_graph,
    dirichlet_eigenvalue,
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
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    f = np.asarray(f, dtype=float)
    d = g.distances_from(center)
    bins = np.floor(d / bin_width + 0.5).astype(int)
    uniq = np.unique(bins)
    envelopes = np.array([np.abs(f[bins == b]).max() for b in uniq])
    return DecayProfile(center=int(center), distances=uniq * bin_width, envelopes=envelopes)


def decay_scale(h: float, rho_max: float) -> float:
    """Distance scale of the decay bound for fill distance h and max edge length."""
    return 1.0 / (4.0 * h + 3.0 * rho_max)


def fit_exponential_decay(p: DecayProfile, scale: float = 1.0) -> DecayFit:
    """Least-squares line through ``(distance, log envelope)`` over positive bins.

    Needs at least three strictly positive envelope entries. ``r_squared`` is
    reported as 1.0 for an exactly constant (perfectly fit) envelope.
    """
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
    if not (3.0 * rho_max + 2.0 * h < r2 < r3):
        raise ValueError(f"need 3*rho_max + 2h < r2 < r3, got r2={r2}, r3={r3}")
    r1 = r2 - 2.0 * rho_max - 2.0 * h
    r4 = r3 + 2.0 * h
    outside_r1 = complement(g, ball(g, center, r1))
    if outside_r1.size == 0:
        raise DegenerateDenominator(f"ball of radius {r1} already covers the graph")
    denominator = sobolev_seminorm(s, chi, 2.0, outside_r1)
    # roundoff floor: functions with no tail come back as ~eps, not exact zero
    floor = g.n_vertices * np.finfo(float).eps * sobolev_seminorm(s, chi, 2.0)
    if denominator <= floor:
        raise DegenerateDenominator(f"semi-norm outside radius {r1} vanishes")
    outside_r4 = complement(g, ball(g, center, r4))
    numerator = 0.0 if outside_r4.size == 0 else sobolev_seminorm(s, chi, 2.0, outside_r4)
    return numerator / denominator


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


@dataclass
class ZerosLemmaReport:
    alpha: float
    trials: int
    skipped: int
    max_ratio: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def zeros_lemma_check(
    g: WeightedGraph, alpha: float, trials: int, seed: int, tolerance: float = 1e-9
) -> ZerosLemmaReport:
    """Random vanishing-point functions against the norm bound (unnormalized Laplacian).

    Each trial draws a standard normal function, zeroes it at a random vertex,
    and records the observed/allowed ratio. Ratios above ``1 + tolerance`` are
    collected as violations together with the witness function.
    """
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    s = decompose_graph(g, LaplacianKind.UNNORMALIZED)
    rng = np.random.default_rng(seed)
    report = ZerosLemmaReport(alpha=float(alpha), trials=trials, skipped=0, max_ratio=0.0)
    for _ in range(trials):
        v0 = int(rng.integers(g.n_vertices))
        f = rng.standard_normal(g.n_vertices)
        f[v0] = 0.0
        if not np.any(f):
            report.skipped += 1
            continue
        ratio = zeros_bound_ratio(s, f, alpha)
        report.max_ratio = max(report.max_ratio, ratio)
        if ratio > 1.0 + tolerance:
            report.violations.append({"vertex": v0, "ratio": ratio, "function": f.copy()})
    return report


def _cycle_order(g: WeightedGraph) -> list[int]:
    """Vertex ids in ring order, starting from vertex 0."""
    if len(g.edges) != g.n_vertices or np.any(g.degrees != 2):
        raise NotACycle("graph is not a single cycle")
    order = [0]
    prev, cur = -1, 0
    for _ in range(g.n_vertices - 1):
        a, b = g.neighbors(cur)
        nxt = int(a) if int(a) != prev else int(b)
        prev, cur = cur, nxt
        order.append(nxt)
    return order


def cycle_cover_constant(g: WeightedGraph, nodes) -> float:
    """Covering constant for a cycle: twice the worst inverse Dirichlet eigenvalue squared.

    The ring is covered by overlapping paths, each spanning two consecutive
    node gaps (wrapping around; each vertex lies in at most two path
    interiors). The interiors' smallest Laplacian-submatrix eigenvalues give
    the constant ``2 * max_k (1 / lambda_k)^2``.
    """
    order = _cycle_order(g)
    position = {v: i for i, v in enumerate(order)}
    nodes = np.unique(np.asarray(nodes, dtype=int))
    if nodes.size < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {nodes.size}")
    node_pos = sorted(position[int(v)] for v in nodes)
    n, n_nodes = g.n_vertices, len(node_pos)

    worst = 0.0
    for k in range(n_nodes):
        start = node_pos[k]
        end = node_pos[(k + 2) % n_nodes]
        if k + 2 >= n_nodes:
            end += n
        interior = [order[p % n] for p in range(start + 1, end)]
        lam = dirichlet_eigenvalue(g, interior, LaplacianKind.NORMALIZED)
        worst = max(worst, (1.0 / lam) ** 2)
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
    known = np.unique(np.asarray(known, dtype=int))
    known_set = set(int(v) for v in known)
    unknown_set = set(range(g.n_vertices)) - known_set

    rho_max = g.rho_max
    for u, v, w, ell in g.edges:
        if u in unknown_set and v in unknown_set:
            raise HypothesisViolated(f"edge ({u},{v}) joins two unknown vertices")
        if ell < rho_max / 2.0 - 1e-12:
            raise HypothesisViolated(
                f"edge ({u},{v}) has length {ell} below half the maximum {rho_max}"
            )
        if abs(w * ell - 1.0) > 1e-9:
            raise HypothesisViolated(f"edge ({u},{v}) weight {w} is not the inverse of length {ell}")

    M = int(g.degrees.max())
    formula = 64.0 * (M + 1) ** 4 * M**5

    min_lam = np.inf
    for v0 in range(g.n_vertices):
        neighborhood = set(int(u) for u in g.neighbors(v0))
        omega = {v0} | neighborhood
        for u in neighborhood & unknown_set:
            omega |= set(int(x) for x in g.neighbors(u))
        # Dirichlet interior: the unknown core plus the seed vertex itself;
        # everything adjacent to it from outside is known by hypothesis.
        interior = sorted({v0} | (omega & unknown_set))
        lam = dirichlet_eigenvalue(g, interior, LaplacianKind.NORMALIZED)
        min_lam = min(min_lam, lam)

    empirical = M * (1.0 / min_lam) ** 2
    return MLCoverReport(
        formula_bound=formula,
        empirical_bound=empirical,
        max_degree=M,
        min_dirichlet=float(min_lam),
    )
