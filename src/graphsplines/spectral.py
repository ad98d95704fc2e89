"""Graph Laplacians, eigendecompositions, and spectral calculus.

All decay estimates in this package are phrased through powers of a Laplacian.
The Laplacian is built once, as CSR from the adjacency and the degrees, and is
made dense only on request: for ``eigh``, for Dirichlet submatrices and by the
public :func:`laplacian`. :func:`eigendecompose` has two routes, chosen from
the matrix: a normalized Laplacian of a connected bipartite graph (every cycle
of even length, every lattice) is decomposed through one SVD of its
off-diagonal block, half as many rows and columns as the matrix, and every
other matrix by ``dsyevd``; the SVD route checks its reconstruction in the
half-size blocks of the SVD's factors, and only ``dsyevd``'s output is
multiplied back out in full. Kernel matrices are pseudo-inverse powers applied
via the eigendecomposition. ``L^alpha`` itself has one builder, ``_power``,
behind cross-validation, the semi-norms of the diagnostics, the dense
:func:`laplacian_power` and, at an integer alpha, the splines and their
coefficients: an integer alpha is a CSR product of Laplacians and needs no
eigendecomposition, a fractional one is the eigenpair power, and an
``L^alpha`` that overflows a double is refused. A fractional spline takes its
Dirichlet system in Gram form from the eigenpairs instead
(``_dirichlet_system``), and this module is the only one that tells an integer
alpha from a fractional one. Sobolev-type semi-norms are ``||L^(alpha/2) f||``
restricted to a vertex set.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    EmptyInterior,
    EmptySubset,
    FullVertexSet,
    IsolatedVertex,
    MultipleZeroEigenvalues,
    NonPositiveAlpha,
    ValidationError,
)
from .graphs import WeightedGraph


class LaplacianKind(Enum):
    NORMALIZED = "normalized"      # D^{-1/2} (D - A) D^{-1/2}
    UNNORMALIZED = "unnormalized"  # D - A


def _sparse_laplacian(g: WeightedGraph, kind: LaplacianKind) -> csr_matrix:
    """Canonical CSR Laplacian of the given kind: the edges and the diagonal; exactly symmetric.

    Each degree is its row's stored weights added one by one in stored order.

    The CSR arrays are assembled with numpy: row ``i`` keeps the adjacency's sorted
    columns and takes its diagonal entry at the row start plus the count of its
    columns below ``i``, so the result equals a COO to CSR conversion of the same
    entries, and no COO matrix or format conversion is made.
    """
    A = g.adjacency
    n = g.n_vertices
    indptr, indices = A.indptr, A.indices
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    deg = np.bincount(rows, weights=A.data, minlength=n)
    if np.any(deg <= 0):
        v = int(np.argmax(deg <= 0))
        raise IsolatedVertex(f"vertex {v} has zero weighted degree")
    if not np.all(np.isfinite(deg)):
        v = int(np.argmin(np.isfinite(deg)))
        raise ValidationError(f"vertex {v} has weighted degree {deg[v]}: its weights overflow a double")
    off, diag = -A.data, deg
    if kind is LaplacianKind.NORMALIZED:
        dinv = 1.0 / np.sqrt(deg)
        # dinv[i] * dinv[j] is the same number for (i, j) and (j, i), so L stays exactly symmetric
        off = off * (dinv[rows] * dinv[indices])
        diag = deg * (dinv * dinv)
    # row i's diagonal goes after the row's columns below i; np.insert keeps equal positions in order
    at = indptr[:-1] + np.bincount(rows[indices < rows], minlength=n)
    out_indices = np.insert(indices, at, np.arange(n, dtype=indices.dtype))
    out_indptr = indptr + np.arange(n + 1, dtype=indptr.dtype)
    return csr_matrix((np.insert(off, at, diag), out_indices, out_indptr), shape=(n, n))


def laplacian(g: WeightedGraph, kind: LaplacianKind) -> np.ndarray:
    """Dense Laplacian of the given kind, for the paths that need every entry (``eigh``, submatrices)."""
    return _sparse_laplacian(g, kind).toarray()


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a Laplacian, validated for a connected graph.

    ``eigenvalues`` are ascending with the zero eigenvalue clamped to exactly
    0.0; ``eigenvectors`` holds orthonormal eigenvectors as columns, each sign
    fixed so its first nonzero entry is positive. ``zero_tolerance`` is the
    rank-decision threshold used to identify the kernel; the smallest positive
    eigenvalue, lambda_1, is ``eigenvalues[1]``. ``residual`` is
    ``max |Q diag(w) Q^T - L|`` of the solver's output, the figure the
    reconstruction check compared with ``max(100 * zero_tolerance, 1e-10)``;
    the SVD route reads it block by block from the SVD's factors.
    """

    kind: LaplacianKind
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tolerance: float
    residual: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def kernel_vector(self) -> np.ndarray:
        """The unit eigenvector of the zero eigenvalue (all entries >= 0)."""
        return self.eigenvectors[:, 0]

    def apply_power(self, f: np.ndarray, power: float) -> np.ndarray:
        """Apply ``L^power`` as ``Q (lambda^power * Q^T f)`` to a vector or to each column of an (n, m) array.

        Negative powers act as pseudo-inverse powers (the kernel is
        annihilated); ``power == 0`` is the identity.
        """
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.n:
            raise DimensionMismatch(f"function has length {f.shape[0]}, graph has {self.n} vertices")
        if power == 0:
            return f.copy()
        coeffs = self.eigenvectors.T @ f
        return self.eigenvectors @ (self.eigenvalue_powers(power) * coeffs.T).T

    def eigenvalue_powers(self, power: float) -> np.ndarray:
        """``lambda_k ** power`` on the positive eigenvalues and 0 on the kernel."""
        scale = np.zeros(self.n)
        positive = self.eigenvalues > 0
        scale[positive] = self.eigenvalues[positive] ** power
        return scale


@dataclass
class KernelMatrix:
    """Pseudo-inverse power of a Laplacian; column k is the spline centered at vertex k."""

    alpha: float
    matrix: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry larger than 1e-12 in magnitude is positive."""
    # argmax finds the first such entry; a column without one reads its row 0, which is >= -1e-12
    first = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(vectors.shape[1])]
    # a C-ordered result: the layout picks the BLAS kernels of later products, and so their last
    # bits; multiplying by +-1 is exact, so it holds the flipped columns bit for bit
    return np.multiply(vectors, np.where(first < -1e-12, -1.0, 1.0), order="C")


def _colour_classes(L: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The colour classes P and R of a unit-diagonal ``L`` whose off-diagonal pattern is connected and
    2-colourable; None for any other ``L``.

    The diagonal must lie within 4 eps of 1; the normalized Laplacian built here lies within 2 eps.
    The classes are the components of the pattern's bipartite double cover, in which vertex i has
    the copies i and n + i and each off-diagonal nonzero (i, j) joins i to n + j. A connected
    bipartite pattern covers in exactly two components, which separate every i from n + i; a
    connected odd cycle gives one, and a disconnected pattern more than two or some i beside n + i.
    """
    n = L.shape[0]
    if n < 2 or np.abs(np.diagonal(L) - 1.0).max() > 4 * np.finfo(float).eps:
        return None
    pattern = L != 0
    np.fill_diagonal(pattern, False)
    # the row-major positions of the nonzeros are the cover's CSR rows 0..n-1 as they stand: row i starts
    # at the first position >= i n, and rows n..2n-1 are empty; no COO matrix or conversion is made
    flat = np.flatnonzero(pattern)
    indptr = np.concatenate([np.searchsorted(flat, np.arange(0, n * n + 1, n)), np.full(n, flat.size)])
    cover = csr_matrix((np.ones(flat.size), flat % n + n, indptr), shape=(2 * n, 2 * n))
    count, labels = connected_components(cover, directed=False)
    if count != 2 or np.any(labels[:n] == labels[n:]):
        return None
    side = labels[:n] == labels[0]
    return np.flatnonzero(side), np.flatnonzero(~side)


def _bipartite_eigenpairs(L: np.ndarray, P: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending eigenvalues and orthonormal eigenvectors of ``I - N`` from one SVD of ``B = -L[P][:, R]``,
    and the reconstruction residual ``max |Q diag(w) Q^T - L|`` read from the SVD's factors.

    ``N`` is ``-L`` off the diagonal; ordered as P then R it is ``[[0, B], [B^T, 0]]``, whose
    eigenpairs are ``+-s`` with ``[u; +-v] / sqrt(2)`` for each singular triple ``(s, u, v)`` of B,
    and 0 with the null vectors of ``B^T`` or B when |P| != |R| (the Jordan-Wielandt form; Golub &
    Van Loan, Matrix Computations, sec. 8.6). So ``I - N`` has ``1 - s``, then 1, then ``1 + s``.
    LAPACK's ``gesdd`` gives the singular values in descending order, so the list is ascending.

    In the same form ``Q diag(w) Q^T - L`` is ``U U^T - D_P`` on P x P, ``V V^T - D_R`` on R x R and
    ``B - U_k S V_k^T`` on P x R, with D the diagonal of L and k the number of singular values; ``L``
    is zero off the diagonal within each class. The residual is the largest entry of the three
    blocks: two symmetric products and one of |P| x k x |R|, a quarter of the flops of the n x n
    product ``(Q * w) @ Q.T``, and it still sees a U or V that is not orthogonal or a B that the
    factors do not reproduce.
    """
    n, p = L.shape[0], P.size
    B = -L[np.ix_(P, R)]
    U, s, Vt = scipy.linalg.svd(B, lapack_driver="gesdd")
    k = s.size
    diagonal = np.diagonal(L)
    residual = max(
        np.abs(U @ U.T - np.diag(diagonal[P])).max(),
        np.abs(Vt.T @ Vt - np.diag(diagonal[R])).max(),
        np.abs(B - (U[:, :k] * s) @ Vt[:k]).max(),
    )
    u, v = U[:, :k] * np.sqrt(0.5), Vt[:k].T * np.sqrt(0.5)
    Q = np.zeros((n, n))
    Q[P, :k], Q[R, :k] = u, v
    Q[P, k:p] = U[:, k:]  # p > k when |P| > |R|: the null vectors of B^T
    Q[R, p : n - k] = Vt[k:].T  # and of B when |R| > |P|
    Q[P, n - k :], Q[R, n - k :] = u[:, ::-1], -v[:, ::-1]
    return np.concatenate([1.0 - s, np.ones(n - 2 * k), 1.0 + s[::-1]]), Q, float(residual)


def eigendecompose(L: np.ndarray, kind: LaplacianKind) -> SpectralDecomposition:
    """Full symmetric eigendecomposition with connectivity and bound checks.

    The route is chosen from ``L`` itself. When ``kind`` is NORMALIZED, the
    diagonal is 1 to within 4 eps and the off-diagonal pattern is connected
    and 2-colourable (a bipartite graph: even cycles, lattices, paths, trees),
    ``L = I - [[0, B], [B^T, 0]]`` in the colour classes P and R, its
    spectrum is ``1 -+ sigma(B)`` (Chung, Spectral Graph Theory, 1997,
    sec. 1.3), and one LAPACK ``gesdd`` of the |P| x |R| block B gives every
    eigenpair (:func:`_bipartite_eigenpairs`), about a quarter of the work of
    ``dsyevd``. These are the eigenpairs of ``I - N``, with N the
    off-diagonal part of ``-L``; the built normalized diagonal lies within
    2 eps of 1. On cycle-256 and a 20 x 20 lattice ``decompose_graph`` took
    4.7 and 12 ms against 8.5 and 18 ms by ``dsyevd`` (one BLAS thread of a
    shared 2-CPU host), and
    on 11 bipartite graphs the eigenvalues differed from ``dsyevd``'s by at
    most 2.1e-15, ``L^1.5`` by 3.8e-15 relative, with max |Q^T Q - I| at most
    2.4e-15. The colouring is the components of the pattern's bipartite
    double cover (:func:`_colour_classes`): 0.23 ms at n = 256, 1.1 ms on a
    768-vertex k-NN graph.

    Every other matrix (odd cycles, k-NN graphs, the UNNORMALIZED kind, a
    disconnected pattern) goes to LAPACK's divide-and-conquer driver
    ``dsyevd``. Against the MRRR driver ``dsyevr`` (scipy's default) it took
    20-40% less time at n = 256 to 2000 on one BLAS thread, and its
    eigenvectors were orthonormal to a few ulps (max |Q^T Q - I| at most
    4.4e-15, against up to 1.2e-12, on seeded weighted 256-cycles and
    768-vertex k-NN graphs); see Demmel, Marques, Parlett & Voemel, SIAM J.
    Sci. Comput. 30 (2008). It needs a workspace of about 2 n^2 doubles.

    Both routes' output passes the same checks against ``L`` itself. The
    reconstruction residual ``max |Q diag(w) Q^T - L|`` is the n x n product
    on the ``dsyevd`` route; on the SVD route it is the largest entry of
    ``U U^T - D_P``, ``V V^T - D_R`` and ``B - U_k S V_k^T``, the same matrix
    in exact arithmetic, read from the SVD's factors for a quarter of the
    flops (8.4 against 33.5 Mflop at n = 256); it agreed with the dense
    product to 1.5 eps on 11 bipartite graphs.

    Raises :class:`MultipleZeroEigenvalues` when the second-smallest eigenvalue
    is below the rank tolerance (the matrix came from a disconnected graph) and
    :class:`EigensolverFailure` when the solver fails or the result does not
    reconstruct the input / violates the normalized upper bound of 2.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    # exact equality, the usual case, implies the tolerance test and costs a tenth of it
    if not np.array_equal(L, L.T) and not np.allclose(L, L.T, rtol=0, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    n = L.shape[0]

    classes = _colour_classes(L) if kind is LaplacianKind.NORMALIZED else None
    try:
        if classes is None:
            w, Q = scipy.linalg.eigh(L, driver="evd")
        else:
            w, Q, residual = _bipartite_eigenpairs(L, *classes)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverFailure(str(exc)) from exc
    if classes is None:
        residual = float(np.abs((Q * w) @ Q.T - L).max())

    lam_max = float(np.abs(w).max())
    zero_tol = n * np.finfo(float).eps * max(lam_max, 1.0)

    if w[0] < -10 * zero_tol:
        raise EigensolverFailure(f"smallest eigenvalue {w[0]} is significantly negative")
    if n > 1 and w[1] <= zero_tol:
        raise MultipleZeroEigenvalues(
            f"second eigenvalue {w[1]} below tolerance {zero_tol}: disconnected input"
        )
    if kind is LaplacianKind.NORMALIZED and w[-1] > 2 + 1e-9:
        raise EigensolverFailure(f"normalized eigenvalue {w[-1]} exceeds the bound 2")

    if residual > max(100 * zero_tol, 1e-10):
        raise EigensolverFailure("eigendecomposition does not reconstruct the input")

    w = w.copy()
    w[0] = 0.0
    return SpectralDecomposition(
        kind=kind, eigenvalues=w, eigenvectors=_fix_signs(Q), zero_tolerance=zero_tol, residual=residual
    )


def decompose_graph(g: WeightedGraph, kind: LaplacianKind = LaplacianKind.NORMALIZED) -> SpectralDecomposition:
    """:func:`eigendecompose` of the graph's dense Laplacian: for the normalized Laplacian of a connected
    bipartite graph, the eigenpairs of ``I - N`` from one SVD of its off-diagonal block, and ``dsyevd``'s
    otherwise."""
    return eigendecompose(laplacian(g, kind), kind)


def _spectral_power(s: SpectralDecomposition, power: float) -> np.ndarray:
    """``Q diag(eigenvalue_powers(power)) Q^T``, symmetrised exactly."""
    M = (s.eigenvectors * s.eigenvalue_powers(power)) @ s.eigenvectors.T
    return (M + M.T) / 2.0


def pseudo_inverse_power(s: SpectralDecomposition, alpha: float) -> KernelMatrix:
    """The matrix ``sum_{k>=1} lambda_k^(-alpha) v_k v_k^T``.

    Symmetric positive semi-definite with the kernel eigenvector annihilated;
    its columns are the splines of smoothness order ``2 * alpha``.
    """
    _check_alpha(alpha)
    return KernelMatrix(alpha=float(alpha), matrix=_spectral_power(s, -alpha))


def laplacian_power(g: WeightedGraph, alpha: float, decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """Dense ``L^alpha`` of the graph's Laplacian: ``_power`` made dense."""
    power = _power(g, alpha, decomposition)
    return power if isinstance(power, np.ndarray) else power.toarray()


def _power(g: WeightedGraph, alpha: float, decomposition: SpectralDecomposition | None = None, rows=None):
    """Rows ``rows`` (all when None) of ``L^alpha``, of ``decomposition``'s kind (normalized without one).

    An integer ``alpha`` is CSR, scipy's products ``((L[rows] L) L) ...``: row i of ``A @ B`` reads
    only row i of ``A``, in stored order, so these are the rows of ``((L L) L) ...`` bit for bit, and
    from alpha = 3 on rounding leaves them not exactly symmetric. A fractional ``alpha`` is dense, the
    eigenpair power (of ``decomposition``, or of a fresh one) symmetrised like
    :func:`pseudo_inverse_power`; ``cross_validate``, :func:`laplacian_power` and the diagnostics
    read it, while a fractional spline takes the Gram form of :func:`_dirichlet_system`. An
    ``L^alpha`` that overflows a double is refused, an integer one at the first product that does.
    """
    _check_alpha(alpha)
    kind = decomposition.kind if decomposition is not None else LaplacianKind.NORMALIZED
    if float(alpha).is_integer():
        L = _sparse_laplacian(g, kind)
        result = L if rows is None else L[rows]
        for _ in range(int(alpha) - 1):
            result = result @ L
            _check_finite(result.data, alpha)
        return result
    if decomposition is None:
        decomposition = decompose_graph(g, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        result = _spectral_power(decomposition, alpha)
    _check_finite(result, alpha)
    return result if rows is None else result[rows]


def _dirichlet_system(g: WeightedGraph, alpha: float, decomposition: SpectralDecomposition | None, unknown, f0):
    """The Dirichlet-form system ``(L^alpha)_UU`` and right-hand side ``-(L^alpha f0)_U`` on the vertices
    ``unknown``, for ``f0`` (a vector, or one column per spline) that is zero on them.

    An integer ``alpha`` reads the CSR rows ``_power(g, alpha, decomposition, unknown)`` once: their
    U columns are the system. A fractional one is the Gram form of the eigenpairs (of ``decomposition``,
    or of a fresh one): with ``G = Q[U] diag(lambda^(alpha/2))`` the system is ``G G^T``, one symmetric
    product of |U|^2 n flops, exactly symmetric and positive semidefinite as formed, and the right-hand
    side ``-G (lambda^(alpha/2) * Q^T f0)``; no n x n power is formed. A system that overflows a double
    is refused as in :func:`_power`. The caller has checked ``alpha``.
    """
    if float(alpha).is_integer():
        rows = _power(g, alpha, decomposition, unknown)
        return rows[:, unknown], -(rows @ f0)
    if decomposition is None:
        decomposition = decompose_graph(g)
    with np.errstate(over="ignore", invalid="ignore"):
        root = decomposition.eigenvalue_powers(alpha / 2.0)
        G = decomposition.eigenvectors[unknown] * root
        A = G @ G.T
    _check_finite(A, alpha)
    return A, -(G @ (root * (decomposition.eigenvectors.T @ f0).T).T)


def _power_product(g: WeightedGraph, alpha: float, decomposition: SpectralDecomposition, f, rows):
    """``(L^alpha f)[rows]`` for a vector or each column of an (n, m) array, in ``decomposition``'s kind.

    An integer ``alpha`` multiplies the CSR rows ``_power(g, alpha, decomposition, rows)``, exact to
    rounding at every row; a fractional one applies the eigenpairs,
    :meth:`SpectralDecomposition.apply_power`, and keeps ``rows``. The caller has checked ``alpha``.
    """
    if float(alpha).is_integer():
        return _power(g, alpha, decomposition, rows) @ f
    return decomposition.apply_power(f, alpha)[rows]


def _check_alpha(alpha: float, allow_zero: bool = False) -> None:
    """Refuse an order ``alpha`` that is not finite, or not positive (negative, with ``allow_zero``)."""
    if not ((alpha >= 0 if allow_zero else alpha > 0) and alpha < np.inf):  # refuses nan too
        raise NonPositiveAlpha(f"alpha must be {'>= 0' if allow_zero else 'positive'} and finite, got {alpha}")


def _check_finite(entries: np.ndarray, alpha: float) -> None:
    if not np.all(np.isfinite(entries)):
        raise ValidationError(f"L^alpha at alpha = {alpha} overflows a double")


def sobolev_seminorm(
    s: SpectralDecomposition,
    f: np.ndarray,
    alpha: float,
    subset: Sequence[int] | None = None,
) -> float:
    """``||(L^(alpha/2) f)`` restricted to ``subset||_2``; subset defaults to all vertices."""
    _check_alpha(alpha, allow_zero=True)
    g = s.apply_power(f, alpha / 2.0)
    if subset is None:
        return float(np.linalg.norm(g))
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise EmptySubset("semi-norm restriction needs a nonempty vertex set")
    return float(np.linalg.norm(g[subset]))


def dirichlet_eigenvalue(L: np.ndarray, interior: Sequence[int]) -> float:
    """Smallest eigenvalue of the principal submatrix on ``interior`` of a dense Laplacian ``L``; positive
    for any proper nonempty subset of a connected graph."""
    interior = np.unique(np.asarray(interior, dtype=int))
    if interior.size == 0:
        raise EmptyInterior("interior vertex set is empty")
    if interior.size >= L.shape[0]:
        raise FullVertexSet("interior must be a proper subset of the vertex set")
    sub = L[np.ix_(interior, interior)]
    return float(scipy.linalg.eigh(sub, eigvals_only=True)[0])
