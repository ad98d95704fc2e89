"""Kernel interpolation with a side condition, and Lagrange-type bases.

The interpolant through data ``F`` on a node set ``V~`` has the form
``C * v0 + sum_{v in V~} beta_v * Phi(., v)`` where ``v0`` is the kernel
eigenvector of the Laplacian and ``Phi`` the pseudo-inverse-power kernel.
The coefficients solve the bordered symmetric system

    [ Phi~   v0~ ] [ beta ]   [ F ]
    [ v0~^T   0  ] [  C   ] = [ 0 ]

with ``Phi~`` the kernel submatrix on the nodes and ``v0~`` the kernel
eigenvector restricted to them; the last row is the side condition that makes
``beta`` orthogonal to ``v0~``. Each call builds this matrix for its node set
and solves it with ``_solve_symmetric``: one LAPACK symmetric-indefinite solve
(``dsysv``) carrying every right-hand side (the Lagrange basis needs one per
node), which refuses a system whose reciprocal condition estimate is smaller
than the machine epsilon with :class:`SingularSystem`.

Values alone need no coefficients: the same interpolant satisfies
``(L^alpha s)_U = 0`` on the unknown vertices U, and :func:`spline_regress`,
the package's one values-only spline, finds ``s_U`` from that Dirichlet form
with the same solve and refusal rule. A cardinal (Lagrange) function is the
spline through a unit vector, so ``dirichlet_lagrange`` is ``e_c`` on the
nodes and ``spline_regress`` on the rest; it builds no kernel, and for an
integer alpha no eigendecomposition. The bordered system stays where kernel
coefficients are the output (``solve_interpolant``, ``lagrange_basis``) and,
with ``local_lagrange``, is the oracle the Dirichlet form is tested against.

A truncated cardinal function keeps only the coefficients of the nodes near
its center. :func:`truncated_lagrange_from_eigenpairs` builds it from one
:class:`SpectralDecomposition` without an n x n kernel: ``Phi~`` is formed from
the eigenvector rows of the nodes, the bordered system is solved for the one
right-hand side ``e_center``, and the kept coefficients are applied through the
eigenpairs. ``truncated_lagrange`` takes the same route from a basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    InconsistentDimensions,
    NonPositiveAlpha,
    SingularSystem,
)
from .graphs import WeightedGraph, complement
from .spectral import KernelMatrix, SpectralDecomposition, laplacian_power


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


@dataclass
class InterpolationProblem:
    """Data to interpolate: a graph, its decomposition and kernel, nodes, values."""

    graph: WeightedGraph
    decomposition: SpectralDecomposition
    kernel: KernelMatrix
    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.graph.n_vertices
        if self.decomposition.n != n or self.kernel.matrix.shape != (n, n):
            raise InconsistentDimensions("graph, decomposition, and kernel sizes differ")
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


def _solve_bordered(
    block: np.ndarray, decomposition: SpectralDecomposition, nodes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the bordered system on ``nodes`` for one or many value columns.

    ``block`` is the kernel on the nodes, ``Phi~``. Returns ``(coefficients,
    constants)``: a vector and a float for a vector of values, or one column /
    entry per column of a matrix of values. All right-hand sides go through one
    :func:`_solve_symmetric`.
    """
    m = nodes.size
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = block
    A[:m, m] = A[m, :m] = decomposition.kernel_vector[nodes]
    rhs = np.zeros((m + 1, 1 if values.ndim == 1 else values.shape[1]))
    rhs[:m] = values.reshape(m, -1)
    sol, _ = _solve_symmetric(A, rhs)
    if values.ndim == 1:
        return sol[:-1, 0], sol[-1, 0]
    return sol[:-1], sol[-1]


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


def _combine(kernel: KernelMatrix, decomposition: SpectralDecomposition, nodes, beta, constant) -> np.ndarray:
    """``Phi(., nodes) @ beta + constant * v0``; ``constant`` is a float or one per column of ``beta``."""
    return kernel.matrix[:, nodes] @ beta + np.multiply.outer(decomposition.kernel_vector, constant)


def solve_interpolant(p: InterpolationProblem) -> Interpolant:
    """Solve the bordered system for one data vector."""
    beta, constant = _solve_bordered(p.kernel.matrix[np.ix_(p.nodes, p.nodes)], p.decomposition, p.nodes, p.values)
    return Interpolant(constant=float(constant), coefficients=beta, alpha=p.kernel.alpha, nodes=p.nodes)


def evaluate(i: Interpolant, p: InterpolationProblem) -> np.ndarray:
    """Evaluate the interpolant on every vertex of the graph."""
    if i.nodes.size != p.nodes.size or np.any(i.nodes != p.nodes):
        raise InconsistentDimensions("interpolant nodes do not match the problem nodes")
    return _combine(p.kernel, p.decomposition, i.nodes, i.coefficients, i.constant)


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


@dataclass(frozen=True)
class LocalLagrangeConfig:
    """Center vertex and cutoff radius for localized cardinal solves."""

    center: int
    radius: float

    def __post_init__(self):
        if not self.radius > 0:  # refuses nan too
            raise ValueError(f"radius must be positive, got {self.radius}")

    def nodes_within(self, graph: WeightedGraph, nodes: np.ndarray) -> np.ndarray:
        """Interpolation nodes inside the ball; must contain the center."""
        if self.radius == np.inf:  # the ball is the whole graph: no search needed
            return nodes
        neighborhood = nodes[graph.distances_from(self.center)[nodes] <= self.radius]
        if neighborhood.size == 0:
            raise EmptyNeighborhood(
                f"no nodes within distance {self.radius} of vertex {self.center}"
            )
        return neighborhood


@dataclass
class LagrangeBasis:
    """Cardinal interpolants for every node, sharing one factorization.

    ``coefficients[:, j]`` are the kernel coefficients of the basis function
    centered at ``nodes[j]``; ``columns[:, j]`` is that function evaluated on
    every vertex. Columns are 1 at their own node and 0 at the others.
    """

    graph: WeightedGraph
    decomposition: SpectralDecomposition
    kernel: KernelMatrix
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
    kernel: KernelMatrix,
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
) -> LagrangeBasis:
    """Solve all cardinal problems on ``nodes`` with a single factorization."""
    nodes = _check_nodes(nodes, graph.n_vertices)
    beta, constants = _solve_bordered(kernel.matrix[np.ix_(nodes, nodes)], decomposition, nodes, np.eye(nodes.size))
    columns = _combine(kernel, decomposition, nodes, beta, constants)
    return LagrangeBasis(
        graph=graph,
        decomposition=decomposition,
        kernel=kernel,
        nodes=nodes,
        coefficients=beta,
        constants=constants,
        columns=columns,
    )


def truncated_lagrange(
    basis: LagrangeBasis,
    center: int,
    radius: float,
    reimpose_side_condition: bool = True,
) -> np.ndarray:
    """Drop basis coefficients outside the metric ball around the center.

    Coefficients of nodes farther than ``radius`` from ``center`` are removed;
    the kept ones are then projected back onto the hyperplane orthogonal to the
    kernel eigenvector restricted to the kept nodes (minimal-change repair of
    the side condition; disable with ``reimpose_side_condition=False``). The
    constant term is preserved. Only the basis's ``decomposition``, ``graph``,
    ``nodes`` and ``kernel.alpha`` are read: the function comes from
    :func:`truncated_lagrange_from_eigenpairs`, which needs no n x n kernel.
    """
    return truncated_lagrange_from_eigenpairs(
        basis.decomposition, basis.graph, basis.nodes, center, radius, basis.kernel.alpha, reimpose_side_condition
    )


def truncated_lagrange_from_eigenpairs(
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    radius: float,
    alpha: float,
    reimpose_side_condition: bool = True,
) -> np.ndarray:
    """Truncated cardinal function centered at ``center``, from the eigenpairs alone.

    With ``Q`` the eigenvectors and ``d = lambda^-alpha`` (0 on the kernel), the
    kernel is needed only on the node block, ``Phi~ = (Q_K d) Q_K^T``
    (symmetrised), and the bordered system is solved for the one right-hand
    side ``e_center``. The coefficients of the nodes within ``radius`` are kept
    and repaired as :func:`truncated_lagrange` describes, and the function is
    evaluated as ``Q (d * Q_kept^T beta) + C v0``, so no n x n matrix is formed.
    """
    if not (0 < alpha < np.inf):
        raise NonPositiveAlpha(f"alpha must be positive and finite, got {alpha}")
    nodes = _check_nodes(nodes, graph.n_vertices)
    config = LocalLagrangeConfig(center=center, radius=radius)
    if center not in nodes:
        raise ValueError(f"vertex {center} is not an interpolation node")
    Q, d, v0 = decomposition.eigenvectors, decomposition.eigenvalue_powers(-alpha), decomposition.kernel_vector
    QK = Q[nodes]
    block = (QK * d) @ QK.T
    beta, constant = _solve_bordered((block + block.T) / 2.0, decomposition, nodes, (nodes == center).astype(float))
    kept = config.nodes_within(graph, nodes)
    beta = beta[np.isin(nodes, kept)]
    if reimpose_side_condition:
        u = v0[kept]
        beta -= (beta @ u) / (u @ u) * u
    return Q @ (d * (Q[kept].T @ beta)) + constant * v0


def local_lagrange(
    kernel: KernelMatrix,
    decomposition: SpectralDecomposition,
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    radius: float,
) -> np.ndarray:
    """Cardinal interpolant using only the nodes within ``radius`` of the center.

    The small bordered system is solved on the neighborhood nodes, with the
    side condition against the kernel eigenvector restricted to them; the
    result is still evaluated on every vertex since the kernel columns are
    global.
    """
    nodes = _check_nodes(nodes, graph.n_vertices)
    if center not in nodes:
        raise ValueError(f"center {center} must be one of the interpolation nodes")
    config = LocalLagrangeConfig(center=center, radius=radius)
    neighborhood = config.nodes_within(graph, nodes)
    cardinal = (neighborhood == center).astype(float)
    block = kernel.matrix[np.ix_(neighborhood, neighborhood)]
    beta, constant = _solve_bordered(block, decomposition, neighborhood, cardinal)
    return _combine(kernel, decomposition, neighborhood, beta, constant)


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
    without it the normalized Laplacian is used.
    """
    known = _check_nodes(known, g.n_vertices)
    values = _check_values(values, known.size)
    power = laplacian_power(g, alpha, decomposition)
    unknown = complement(g, known)
    if unknown.size == 0:
        return values[:0].copy()
    return _solve_dirichlet(power, known, unknown, values)[0]


def dirichlet_lagrange(
    graph: WeightedGraph,
    nodes: Sequence[int],
    center: int,
    alpha: float,
    radius: float = np.inf,
    decomposition: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Cardinal function centered at ``center``, from the Dirichlet form of ``L^alpha``.

    K is the set of ``nodes`` within ``radius`` of the center (all of them by
    default). The function is exactly ``e_center`` on K and, on the other
    vertices, the :func:`spline_regress` extension of those values for the
    normalized Laplacian. This is the function :func:`local_lagrange` gives
    for the same nodes and radius, without a kernel or a bordered system; for
    an integer ``alpha`` it needs no eigendecomposition either. A normalized
    ``decomposition`` the caller already holds is passed on to
    :func:`spline_regress`, so a fractional ``alpha`` decomposes nothing again.
    """
    nodes = _check_nodes(nodes, graph.n_vertices)
    if center not in nodes:
        raise ValueError(f"center {center} must be one of the interpolation nodes")
    known = LocalLagrangeConfig(center=center, radius=radius).nodes_within(graph, nodes)
    chi = np.zeros(graph.n_vertices)
    chi[center] = 1.0
    chi[complement(graph, known)] = spline_regress(graph, known, chi[known], alpha, decomposition)
    return chi
