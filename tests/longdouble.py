"""Shared pieces of the long-double reference tests.

The references solve the same problems in ``np.longdouble``. They check
rounding against a format with more digits than a double, so a host whose
long double is a plain double skips them, all for the one reason below.
"""
import numpy as np
import pytest

extended = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")


def longdouble_solve(A, b):
    """Solve ``A x = b`` by Gaussian elimination with partial pivoting in ``np.longdouble``."""
    A, b = A.astype(np.longdouble), b.astype(np.longdouble)
    n = b.size
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]], b[[k, p]] = A[[p, k]], b[[p, k]]
        f = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= np.outer(f, A[k, k:])
        b[k + 1 :] -= f * b[k]
    x = np.zeros(n, dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
    return x


def cycle_power(n, alpha):
    """``L^alpha`` of the normalized Laplacian of the uniform n-cycle, in ``np.longdouble``, from its closed-form
    eigenpairs: the matrix is circulant, and entry (i, j) is ``(1/n) sum_k (1 - cos 2 pi k/n)^alpha cos(2 pi k d/n)``
    with ``d = i - j``. No eigensolver or matrix power is involved."""
    pi = np.arccos(np.longdouble(-1))
    cosines = np.cos(2 * pi * np.arange(n, dtype=np.longdouble) / n)
    eigenvalues = (1 - cosines) ** np.longdouble(alpha)
    eigenvalues[0] = 0  # the kernel, whatever the order
    k = np.arange(n)
    row = (eigenvalues * cosines[np.outer(k, k) % n]).sum(axis=1) / n
    return row[(k[:, None] - k[None, :]) % n]
