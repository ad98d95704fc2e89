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
solves the Dirichlet form with ``_solve_symmetric``, one factorization
carrying every right-hand side; with K = V it forms no ``L^alpha``. Its
system comes from ``spectral._dirichlet_system``: for an integer ``alpha`` the
column slice ``(L^alpha)_UU`` of the CSR rows ``L[U] L ... L``, and no n x n
array; for a fractional one the Gram form ``G G^T`` of the eigenpairs, with
``G = Q[U] diag(lambda^(alpha/2))``, and no n x n power. ``_solve_symmetric``
has two routes and one refusal. A CSR block whose reverse Cuthill-McKee band
is narrow (half-bandwidth b < m / sqrt(12) for m rows, where the band LU's
4 m b^2 flops undercut the m^3 / 3 of ``dsysv``) is factored in its band by
LAPACK's ``dgbtrf``. Any other block,
and every dense one (a fractional ``alpha``, the folds of
``ml.cross_validate``), takes the symmetric-indefinite ``dsysv``. Either
route refuses a system whose reciprocal condition estimate is smaller than
the machine epsilon with :class:`SingularSystem`. Every other routine takes
its spline from :func:`spline_regress`: ``solve_interpolant``,
``lagrange_basis`` (all |K| cardinal functions in one solve) and
``dirichlet_lagrange``, which ``local_lagrange`` is for a ball.

``beta = (L^alpha s)_K`` is ``spectral._power_product``: at an integer
``alpha`` the CSR rows of ``L^alpha`` on K times ``s``, exact to rounding at
every node however small the coefficient, and at a fractional one
:meth:`SpectralDecomposition.apply_power`. The expansion
``Phi(., K) beta + C v0``, which :func:`evaluate` and
:func:`truncated_lagrange` share, is one ``apply_power``; a truncated cardinal
function keeps only the coefficients of the nodes near its center. Every
routine takes the order ``alpha``; the n x n kernel is built only by
``verify coeff-symmetry``, which checks the bordered system against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import DimensionMismatch, InconsistentDimensions, SingularSystem
from .graphs import WeightedGraph, _check_vertices, complement
from .spectral import SpectralDecomposition, _check_alpha, _dirichlet_system, _power_product


def _check_nodes(nodes: Sequence[int], n_vertices: int) -> np.ndarray:
    """Node set as an int array; nonempty, without duplicates, every index in range."""
    nodes = _check_vertices(nodes, n_vertices)
    if nodes.size == 0:
        raise InconsistentDimensions("node set is empty")
    if np.unique(nodes).size != nodes.size:
        raise InconsistentDimensions("node set contains duplicates")
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
        _check_alpha(self.alpha)
        self.nodes = _check_nodes(self.nodes, n)
        self.values = _check_values(self.values, self.nodes.size)


@dataclass
class Interpolant:
    """Solved coefficients: ``constant * v0 + sum_v coefficients[v] * Phi(., v)``."""

    constant: float
    coefficients: np.ndarray
    alpha: float
    nodes: np.ndarray


def _solve_symmetric(A: np.ndarray | csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``A x = rhs`` for a symmetric ``A``, dense or CSR; ``A`` and ``rhs`` may be overwritten.

    Returns ``(x, rcond)``, where ``rcond`` is LAPACK's reciprocal condition
    estimate in the 1-norm (Hager-Higham, as ``dsycon`` and ``dgbcon`` both
    make it). Either route refuses, with :class:`SingularSystem`, an exactly
    singular pivot or an ``rcond`` smaller than the machine epsilon.

    A dense ``A`` is one LAPACK ``dsysv`` (symmetric-indefinite LDL^T, about
    m^3 / 3 flops for m rows) carrying every right-hand side. ``A`` is made
    Fortran-ordered, as ``dsysv`` reads it, before ``dlange`` sums its columns
    for the 1-norm (no m x m ``|A|``): the sums round differently in the two
    layouts, so ``rcond`` does not depend on how the caller laid ``A`` out.

    A CSR ``A`` is first put in reverse Cuthill-McKee order, which narrows the
    band of the Dirichlet blocks of cycles, lattices and planar k-NN graphs.
    With half-bandwidth b, the band LU ``dgbtrf`` stores kl = ku = b and, as
    partial pivoting fills b more superdiagonals, applies a rank-one update
    to a b x 2b block at each of the m steps: about 4 m b^2 flops. That is fewer than
    ``dsysv``'s m^3 / 3 exactly when 12 b^2 < m^2, that is b < m / sqrt(12);
    such a block is factored in its band (``dgbtrf``, ``dgbcon``, ``dgbtrs``),
    with the 1-norm from its column sums. Any other CSR block is made dense
    and takes the ``dsysv`` route. On synthetic banded blocks (one OpenBLAS
    thread, a 2-CPU host), at b = m / sqrt(12) the band route took 0.90,
    0.64 and 0.58 of the ``dsysv`` route's time at m = 200, 600 and 1500, and
    the two met near b = 1.1, 1.6 and 1.7 m / sqrt(12): the rule errs toward
    ``dsysv``, whose flops run slower than blocked ``dgbtrf``'s.
    """
    if isinstance(A, csr_matrix):
        m = A.shape[0]
        order = reverse_cuthill_mckee(A, symmetric_mode=True)
        position = np.empty(m, dtype=np.intp)
        position[order] = np.arange(m)
        rows = position[np.repeat(np.arange(m), np.diff(A.indptr))]
        cols = position[A.indices]
        half = int(np.abs(rows - cols).max())
        if 12 * half * half < m * m:
            return _band_solve(A, rhs, order, rows, cols, half)
        A = A.toarray(order="F")
    A = np.asfortranarray(A)
    anorm = lapack.dlange("1", A)
    lwork, _ = lapack.dsysv_lwork(A.shape[0])
    factor, ipiv, sol, info = lapack.dsysv(A, rhs, lwork=int(lwork), overwrite_a=True, overwrite_b=True)
    _check_factor("dsysv", info)
    rcond, _ = lapack.dsycon(factor, ipiv, anorm)
    return sol, _check_rcond(rcond)


def _band_solve(A: csr_matrix, rhs: np.ndarray, order, rows, cols, half: int) -> tuple[np.ndarray, float]:
    """The band route of :func:`_solve_symmetric`: ``A``'s entry k sits at (``rows[k]``, ``cols[k]``)
    of its reordering ``A[order][:, order]``, whose half-bandwidth is ``half``."""
    m = A.shape[0]
    band = np.zeros((3 * half + 1, m), order="F")  # dgbtrf's layout: kl rows of fill above the band
    band[2 * half + rows - cols, cols] = A.data
    anorm = np.bincount(A.indices, weights=np.abs(A.data), minlength=m).max()
    factor, ipiv, info = lapack.dgbtrf(band, half, half, overwrite_ab=True)
    _check_factor("dgbtrf", info)
    rcond, _ = lapack.dgbcon(half, half, factor, ipiv, anorm)
    rcond = _check_rcond(rcond)
    sol, _ = lapack.dgbtrs(factor, half, half, rhs[order].reshape(m, -1), ipiv, overwrite_b=True)
    out = np.empty_like(sol)
    out[order] = sol
    return out.reshape(rhs.shape), rcond


def _check_factor(driver: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"{driver}: illegal value in argument {-info}")
    if info > 0:
        raise SingularSystem(f"exactly singular pivot at row {info}")


def _check_rcond(rcond: float) -> float:
    if not rcond >= np.finfo(float).eps:  # refuses nan too
        raise SingularSystem(f"reciprocal condition estimate {rcond:.3e} below machine epsilon")
    return float(rcond)


def _spline(graph: WeightedGraph, nodes, values, alpha: float, decomposition=None) -> np.ndarray:
    """The spline through ``values`` on ``nodes`` on every vertex (one per column of a value matrix):
    the values on the nodes and their :func:`spline_regress` extension elsewhere, which checks them."""
    extension = spline_regress(graph, nodes, values, alpha, decomposition)
    s = np.zeros((graph.n_vertices,) + values.shape[1:])
    s[nodes] = values
    s[complement(graph, nodes)] = extension
    return s


def _coefficients(graph: WeightedGraph, decomposition: SpectralDecomposition, s: np.ndarray, nodes, alpha: float):
    """``beta = (L^alpha s)_K`` and ``C = v0^T s`` of the spline ``s`` (or of each column). ``beta`` is
    ``spectral._power_product``: the CSR rows of ``L^alpha`` on K at an integer ``alpha``, exact to
    rounding however small a coefficient is, and the eigenpairs at a fractional one."""
    return _power_product(graph, alpha, decomposition, s, nodes), decomposition.kernel_vector @ s


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
    beta, constant = _coefficients(p.graph, p.decomposition, s, p.nodes, p.alpha)
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
    _check_alpha(alpha, allow_zero=True)
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
    beta, constants = _coefficients(graph, decomposition, columns, nodes, alpha)
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
    through the eigenpairs as in :func:`evaluate`; no kernel is formed. A
    ball that keeps every node drops nothing, and ``chi`` itself is returned:
    ``beta`` already meets the side condition, and the round trip through
    ``L^alpha`` and ``L^-alpha`` would only lose about log10 of the kernel's
    condition number in digits (up to 7.6e-10 on uniform cycles of 192 to 512
    vertices at alpha = 2, every 4th vertex a node).
    """
    _check_radius(radius)
    chi = dirichlet_lagrange(graph, nodes, center, alpha, np.inf, decomposition)
    nodes = np.asarray(nodes, dtype=int)
    kept = graph.distances_from(center)[nodes] <= radius
    if kept.all():
        return chi
    beta, constant = _coefficients(graph, decomposition, chi, nodes, alpha)
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
    ``L^alpha``. ``decomposition`` is read only for its ``kind`` and, for a
    fractional ``alpha``, for its eigenpairs; without it the normalized
    Laplacian is used. Every spline's nodes, values and ``alpha`` are checked
    here, and the system is formed only when some vertex is unknown.

    ``(L^alpha s)_U = 0`` gives ``s_U = -((L^alpha)_UU)^-1 (L^alpha)_UK F``, and
    ``(L^alpha)_UU`` is positive definite for a proper nonempty U. The row block
    ``(L^alpha)_U`` gives the system, its U columns, and the right-hand sides
    ``-(L^alpha)_U F0`` (``F`` on K, zero on U) of one :func:`_solve_symmetric`;
    ``spectral._dirichlet_system`` forms both. At an integer ``alpha`` they come
    from the CSR rows on U, so no n x n array is formed. At a fractional one the
    system is the Gram product ``G G^T`` with ``G = Q[U] diag(lambda^(alpha/2))``,
    exactly symmetric, and the right-hand sides ``-G (lambda^(alpha/2) * Q^T F0)``:
    |U|^2 n flops, where the rows of the full eigenpair power cost 2 n^3.
    """
    known = _check_nodes(known, g.n_vertices)
    values = _check_values(values, known.size)
    _check_alpha(alpha)
    unknown = complement(g, known)
    if unknown.size == 0:
        return values[:0].copy()
    padded = np.zeros((g.n_vertices,) + values.shape[1:])
    padded[known] = values
    return _solve_symmetric(*_dirichlet_system(g, alpha, decomposition, unknown, padded))[0]


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
