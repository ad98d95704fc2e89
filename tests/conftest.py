import numpy as np
import pytest
import scipy.linalg

from graphsplines import (
    LaplacianKind,
    cycle_graph,
    decompose_graph,
    lagrange_basis,
    pseudo_inverse_power,
)


@pytest.fixture(scope="session")
def cycle256_setup():
    """Cycle with 256 vertices, every 4th an interpolation node, order-4 kernel."""
    g = cycle_graph(256)
    s = decompose_graph(g, LaplacianKind.NORMALIZED)
    k = pseudo_inverse_power(s, 2.0)
    nodes = np.arange(0, 256, 4)
    basis = lagrange_basis(k.alpha, s, g, nodes)
    return g, s, k, nodes, basis


@pytest.fixture
def decompositions(monkeypatch):
    """The dense decompositions made while the test runs, in order: ``"eigh"`` for each call of
    ``scipy.linalg.eigh`` (``dsyevd`` and the other symmetric drivers) and ``"svd"`` for each of
    ``scipy.linalg.svd`` (the ``gesdd`` route of bipartite graphs)."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("eigh", "svd"):
        monkeypatch.setattr(scipy.linalg, name, counting(name, getattr(scipy.linalg, name)))
    return calls
