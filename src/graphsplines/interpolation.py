"""Kernel interpolation with a side condition, and Lagrange-type bases.

The interpolant through data ``F`` on a node set K has the form
``C * v0 + sum_{v in K} beta_v * Phi(., v)`` where ``v0`` is the kernel
eigenvector of the Laplacian and ``Phi`` the pseudo-inverse-power kernel. Its
coefficients satisfy the bordered symmetric system

    [ Phi~   v0~ ] [ beta ]   [ F ]
    [ v0~^T   0  ] [  C   ] = [ 0 ]

with ``Phi~`` the kernel submatrix on the nodes and ``v0~`` the kernel
eigenvector restricted to them; the last row is the side condition that makes
``beta`` orthogonal to ``v0~``. This system is never solved: since
``L^alpha Phi = I - v0 v0^T``, it gives ``L^alpha s = beta`` on K, zero on the
unknown vertices U, and ``v0^T s = C``. So the interpolant is the solution of
its Dirichlet form ``(L^alpha s)_U = 0``, and ``beta = (L^alpha s)_K``.

:func:`spline_regress` checks every spline's nodes, values and ``alpha`` and
solves the Dirichlet form with ``_solve_symmetric``: one LAPACK
symmetric-indefinite solve (``dsysv``) carrying every right-hand side, which
refuses a system whose reciprocal condition estimate is smaller than the
machine epsilon with :class:`SingularSystem`; with K = V it forms no
``L^alpha``. Every other routine takes its spline from it:
``solve_interpolant``, ``lagrange_basis`` (all |K| cardinal functions in one
solve) and ``dirichlet_lagrange``, which ``local_lagrange`` is for a ball.

``beta`` and the expansion ``Phi(., K) beta + C v0``, which :func:`evaluate`
and :func:`truncated_lagrange` share, are each one
:meth:`SpectralDecomposition.apply_power`; a truncated cardinal function keeps
only the coefficients of the nodes near its center. Every routine takes the
order ``alpha``; the n x n kernel is built only by ``--dump-kernel``, which
writes it, and by ``verify coeff-symmetry``, which checks the bordered system
against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    InconsistentDimensions,
    NonPositiveAlpha,
    SingularSystem,
)
from .graphs import WeightedGraph, complement
from .spectral import SpectralDecomposition, laplacian_power


def _check_nodes(nodes: Sequence[int], n_vertices: int) -> np.ndarray:
    """Node set as an int array; nonempty, without duplicates, every index in range."""
    nodes = np.asarray(nodes, dtype=int)
    if nodes.size == 0:
        raise InconsistentDimensions("node set is empty")
    if np.unique(nodes).size != nodes.size:
        raise InconsistentDimensions("node set contains duplicates")
    if nodes.min() < 0 or nodes.max() >= n_vertices:
        raise InconsistentDimensions("node index out of range")
    return nodes


def _check_values(values, count: int) -> np.ndarray:
    """Values as a float array with one finite entry or row per node."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[0] != count:
        raise InconsistentDimensions(f"{values.shape[0] if values.ndim else 1} values for {count} nodes")
    if not np.all(np.isfinite(values)):
        raise InconsistentDimensions("values must be finite")
    return values


def _check_radius(radius: float) -> None:
    if not radius > 0:  # refuses nan too
        raise ValueError(f"radius must be positive, got {radius}")


@dataclass
class InterpolationProblem:
    """Data to interpolate: a graph, its decomposition, the order ``alpha``, nodes, values."""

    graph: WeightedGraph
    decomposition: SpectralDecomposition
    alpha: float
    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.graph.n_vertices
        if self.decomposition.n != n:
            raise InconsistentDimensions("graph and decomposition sizes differ")
        if not (0 < self.alpha < np.inf):
            raise NonPositiveAlpha(f"alpha must be positive and finite, got {self.alpha}")
        self.nodes = _check_nodes(self.nodes, n)
        self.values = _check_values(self.values, self.nodes.size)


@dataclass
class Interpolant:
    """Solved coefficients: ``constant * v0 + sum_v coefficients[v] * Phi(., v)``."""

    constant: float
    coefficients: np.ndarray
    alpha: float
    nodes: np.ndarray


def _solve_symmetric(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``A x = rhs`` for a symmetric ``A`` with one LAPACK ``dsysv``; ``A`` and ``rhs`` may be overwritten.

    Returns ``(x, rcond)``, where ``rcond`` is the reciprocal condition
    estimate (1-norm, ``dsycon``). Refuses, with :class:`SingularSystem`, a
    system whose ``rcond`` is smaller than the machine epsilon.
    """
    anorm = np.linalg.norm(A, 1)
    lwork, _ = lapack.dsysv_lwork(A.shape[0])
    factor, ipiv, sol, info = lapack.dsysv(A, rhs, lwork=int(lwork), overwrite_a=True, overwrite_b=True)
    if info < 0:
        raise ValueError(f"dsysv: illegal value in argument {-info}")
    if info > 0:
        raise SingularSystem(f"exactly singular pivot at row {info}")
    rcond, _ = lapack.dsycon(factor, ipiv, anorm)
    if rcond < np.finfo(float).eps:
        raise SingularSystem(f"reciprocal condition estimate {rcond:.3e} below machine epsilon")
    return sol, float(rcond)


def _solve_dirichlet(
    A: np.ndarray, known: np.ndarray, unknown: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, float]:
    """Values on ``unknown`` of the spline through ``values`` on ``known``.

    ``A`` is ``L^alpha``. The spline has ``(L^alpha s)_U = 0`` on the unknown
    set U, so ``s_U = -(A_UU)^-1 A_UK F``; ``A_UU`` is positive definite for a
    proper nonempty U. Only the row block ``A_U`` is read, once: the system
    is its U columns, and the right-hand side is ``-A_U F0`` with ``F0`` the
    values on K and zero on U, which is ``-A_UK F`` without a 2-D gather. One
    :func:`_solve_symmetric` carries every value column. Returns the values
    (one row per unknown vertex, shaped like ``values``) and the solve's
    reciprocal condition estimate.
    """
    rows = A[unknown]
    padded = np.zeros((A.shape[0],) + values.shape[1:])
    padded[known] = values
    return _solve_symmetric(rows[:, unknown], -(rows @ padded))


def _spline(graph: WeightedGraph, nodes, values, alpha: float, decomposition=None) -> np.ndarray:
    """The spline through ``values`` on ``nodes`` on every vertex (one per column of a value matrix):
    the values on the nodes and their :func:`spline_regress` extension elsewhere, which checks them."""
    extension = spline_regress(graph, nodes, values, alpha, decomposition)
    s = np.zeros((graph.n_vertices,) + values.shape[1:])
    s[nodes] = values
    s[complement(graph, nodes)] = extension
    return s


def _coefficients(decomposition: SpectralDecomposition, s: np.ndarray, nodes: np.ndarray, alpha: float):
    """``beta = (L^alpha s)_K`` and ``C = v0^T s`` of the spline ``s`` (or of each column), with
    ``L^alpha`` applied through the eigenpairs by :meth:`SpectralDecomposition.apply_power`."""
    return decomposition.apply_power(s, alpha)[nodes], decomposition.kernel_vector @ s


def _expansion(decomposition: SpectralDecomposition, nodes, beta, constant: float, alpha: float) -> np.ndarray:
    """``Phi(., K) beta + C v0`` on every vertex: ``beta`` placed on the nodes K and zero elsewhere,
    then ``Phi = L^-alpha`` applied through the eigenpairs, so no kernel matrix is read."""
    padded = np.zeros(decomposition.n)
    padded[nodes] = beta
    return decomposition.apply_power(padded, -alpha) + constant * decomposition.kernel_vector


def solve_interpolant(p: InterpolationProblem) -> Interpolant:
    """Coefficients of the interpolant through one data vector, read off its Dirichlet-form spline
    (``p.alpha``, the Laplacian of ``p.decomposition``)."""
    s = _spline(p.graph, p.nodes, p.values, p.alpha, p.decomposition)
    beta, constant = _coefficients(p.decomposition, s, p.nodes, p.alpha)
    return Interpolant(constant=float(constant), coefficients=beta, alpha=p.alpha, nodes=p.nodes)


def evaluate(i: Interpolant, p: InterpolationProblem) -> np.ndarray:
    """Evaluate ``Phi(., K) beta + C v0`` on every vertex of the graph.

    ``Phi = L^-alpha`` is applied through the eigenpairs. This loses about
    log10 of the kernel's condition number in digits against the spline the
    coefficients came from (4.1e-6 against 1.6e-14 of max|s| on a weighted
    256-cycle at alpha = 3, kernel block condition 1.8e10, as through the
    kernel matrix), so ``interp`` writes the solved values. An interpolant of
    other nodes or another ``alpha`` than the problem's is refused.
    """
    if i.nodes.size != p.nodes.size or np.any(i.nodes != p.nodes):
        raise InconsistentDimensions("interpolant nodes do not match the problem nodes")
    if i.alpha != p.alpha:
        raise InconsistentDimensions(f"interpolant solved at alpha = {i.alpha}, problem has alpha = {p.alpha}")
    return _expansion(p.decomposition, i.nodes, i.coefficients, i.constant, p.alpha)


def native_semi_inner_product(
    s: SpectralDecomposition, f: np.ndarray, g: np.ndarray, alpha: float
) -> float:
    """Semi-inner product ``<L^(alpha/2) f, L^(alpha/2) g>`` of the kernel's native space."""
    if not (0 <= alpha < np.inf):
        raise NonPositiveAlpha(f"alpha must be >= 0 and finite, got {alpha}")
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape[0] != s.n or g.shape[0] != s.n:
        raise DimensionMismatch("function lengths do not match the vertex count")
    if alpha == 0:
        return float(f @ g)
    return float((s.eigenvectors.T @ f) @ (s.eigenvalue_powers(alpha) * (s.eigenvectors.T @ g)))


@dataclass
class LagrangeBasis:
    """Cardinal interpolants for every node, sharing one factorization.

    ``columns[:, j]`` is the basis function centered at ``nodes[j]`` on every
    vertex, exactly 1 at its own node and 0 at the others; ``coefficients[:, j]``
    and ``constants[j]`` are its kernel coefficients and constant term.
    """

    alpha: float
    nodes: np.ndarray
    coefficients: np.ndarray
    constants: np.ndarray
    columns: np.ndarray

    def center_index(self, center: int) -> int:
        idx = np.flatnonzero(self.nodes == center)
        if idx.size == 0:
            raise ValueError(f"vertex {center} is not an interpolation node")
        return int(idx[0])


def lagrange_basis(
    alpha: float,
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
) -> LagrangeBasis:
    """Solve all cardinal problems on ``nodes`` in one Dirichlet-form solve; the coefficients are
    read off the columns."""
    nodes = np.asarray(nodes, dtype=int)
    columns = _spline(graph, nodes, np.eye(nodes.size), alpha, decomposition)
    beta, constants = _coefficients(decomposition, columns, nodes, alpha)
    return LagrangeBasis(
        alpha=float(alpha),
        nodes=nodes,
        coefficients=beta,
        constants=constants,
        columns=columns,
    )


def truncated_lagrange(
    alpha: float,
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    radius: float,
    reimpose_side_condition: bool = True,
) -> np.ndarray:
    """Cardinal function centered at ``center`` with its coefficients outside the ball dropped.

    The radius is checked first. The cardinal function ``chi`` is
    :func:`dirichlet_lagrange` on the Laplacian of ``decomposition`` (which
    checks the rest), ``beta = (L^alpha chi)_K`` and ``C = v0^T chi``.
    Only the coefficients of the nodes whose graph distance from ``center``
    (one Dijkstra search) is at most ``radius`` are kept; they are then
    projected back onto the hyperplane orthogonal to the kernel eigenvector
    restricted to the kept nodes (minimal-change repair of the side
    condition; disable with ``reimpose_side_condition=False``). The
    constant term is preserved, and ``Phi(., kept) beta + C v0`` is applied
    through the eigenpairs as in :func:`evaluate`; no kernel is formed.
    """
    _check_radius(radius)
    chi = dirichlet_lagrange(graph, nodes, center, alpha, np.inf, decomposition)
    nodes = np.asarray(nodes, dtype=int)
    beta, constant = _coefficients(decomposition, chi, nodes, alpha)
    kept = graph.distances_from(center)[nodes] <= radius
    nodes, beta = nodes[kept], beta[kept]
    if reimpose_side_condition:
        u = decomposition.kernel_vector[nodes]
        beta -= (beta @ u) / (u @ u) * u
    return _expansion(decomposition, nodes, beta, constant, alpha)


def local_lagrange(
    alpha: float,
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    radius: float,
) -> np.ndarray:
    """Cardinal interpolant using only the nodes within ``radius`` of the center: :func:`dirichlet_lagrange`
    with the Laplacian of ``decomposition``."""
    return dirichlet_lagrange(graph, nodes, center, alpha, radius, decomposition)


def spline_regress(
    g: WeightedGraph,
    known: Sequence[int],
    values: np.ndarray,
    alpha: float = 2.0,
    decomposition: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Extend known values to the rest of the graph; predict the unknown vertices.

    Returns predictions at the unknown vertices in ascending vertex order.
    ``values`` may be a vector or a matrix with one column per target. The
    prediction is the minimal-norm spline, solved in its Dirichlet form from
    ``L^alpha`` (see :func:`laplacian_power`). ``decomposition`` is read only
    for its ``kind`` and, for a fractional ``alpha``, for its eigenpairs;
    without it the normalized Laplacian is used. Every spline's nodes, values
    and ``alpha`` are checked here, and ``L^alpha`` is formed only when some
    vertex is unknown.
    """
    known = _check_nodes(known, g.n_vertices)
    values = _check_values(values, known.size)
    if not (0 < alpha < np.inf):
        raise NonPositiveAlpha(f"alpha must be positive and finite, got {alpha}")
    unknown = complement(g, known)
    if unknown.size == 0:
        return values[:0].copy()
    return _solve_dirichlet(laplacian_power(g, alpha, decomposition), known, unknown, values)[0]


def dirichlet_lagrange(
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    alpha: float,
    radius: float = np.inf,
    decomposition: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Cardinal function centered at ``center``, from the Dirichlet form of ``L^alpha``.

    K is the set of ``nodes`` whose graph distance from the center is at most
    ``radius``, from one Dijkstra search; with the default infinite radius it is
    every node and no search is made. The center must be a node and the radius
    positive. The function is exactly ``e_center`` on K and, on the other
    vertices, the :func:`spline_regress` extension of those values for the
    Laplacian of ``decomposition``'s kind (normalized without one). It needs
    no kernel, and for an integer ``alpha`` no eigendecomposition; a given
    ``decomposition`` is passed on to :func:`spline_regress`, so a fractional
    ``alpha`` decomposes nothing again. With K = V it is ``e_center``.
    """
    nodes = _check_nodes(nodes, graph.n_vertices)
    if center not in nodes:
        raise ValueError(f"center {center} is not in the node set")
    _check_radius(radius)
    known = nodes if radius == np.inf else nodes[graph.distances_from(center)[nodes] <= radius]
    return _spline(graph, known, (known == center).astype(float), alpha, decomposition)
