"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload writes its inputs from the seed into a work directory, then
hands out jobs. A job is a list of ``graphsplines`` CLI argument vectors plus a
check of the files they wrote. The checks use plain numpy (and scipy only for
connectivity of generated inputs), never the package.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class CheckFailed(Exception):
    """An output file does not hold what the workload expects."""


@dataclass
class Job:
    index: int
    calls: list[list[str]]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> SHA-256
    expect: dict = field(default_factory=dict)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return sha256(path)


def read_csv(path: Path) -> np.ndarray:
    """Numeric CSV with a header row, as a 2-D float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- plain-numpy references ------------------------------------------------------

def knn_edges(points: np.ndarray, k: int, block: int = 256):
    """Symmetrised k-nearest-neighbour edges ``(u, v, length)`` with ``u < v``.

    Ties go to the lower index, the rule graphsplines documents. Rows are done
    in blocks so that the reference never holds an n x n x d array.
    """
    n = points.shape[0]
    rows, cols, lens = [], [], []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = points[lo:hi, None, :] - points[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        if dist.min() == 0.0:
            raise ValueError("coincident points")
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        rows.append(np.repeat(np.arange(lo, hi), k))
        cols.append(order.ravel())
        lens.append(np.take_along_axis(dist, order, axis=1).ravel())
    rows, cols, lens = np.concatenate(rows), np.concatenate(cols), np.concatenate(lens)
    u, v = np.minimum(rows, cols), np.maximum(rows, cols)
    _, first = np.unique(u * n + v, return_index=True)
    return u[first], v[first], lens[first]


def connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    adjacency = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    return connected_components(adjacency, directed=False)[0] == 1


def apply_laplacian(n: int, u, v, w, f: np.ndarray) -> np.ndarray:
    """``L f`` for the normalised Laplacian ``I - D^-1/2 W D^-1/2`` of an edge list."""
    dinv = 1.0 / np.sqrt(np.bincount(u, w, n) + np.bincount(v, w, n))
    g = dinv * f
    return f - dinv * (np.bincount(u, w * g[v], n) + np.bincount(v, w * g[u], n))


def dirichlet_residual(n: int, u, v, w, s: np.ndarray, unknown: np.ndarray) -> float:
    """``max |(L^2 s)_U| / max |s|``: an alpha=2 spline has ``(L^2 s)_U = 0``."""
    r = apply_laplacian(n, u, v, w, apply_laplacian(n, u, v, w, s))
    return float(np.abs(r[unknown]).max() / np.abs(s).max())


def close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + 1e-300))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# Tolerances. Interpolation data must be reproduced to 1e-8; the alpha=2
# identity (L^2 s)_U = 0 holds to about 3e-11 of max|s| when this benchmark was added.
# The truncated alpha=1.5 function is only near-cardinal: about 1.05 at its center.
DATA_TOL = 1e-8
IDENTITY_TOL = 1e-8
TRUNCATED_TOL = 0.25


# --- cv768 ------------------------------------------------------------------------

class CV768:
    """``ml cv`` on a seeded 768 x (8 + 2) table, the paper's regression shape."""

    n, k, folds, repeats, alpha = 768, 10, 10, 2, 2.0

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng([seed, 768])
        # ranges of the eight building descriptors of the energy-efficiency table
        low = np.array([0.62, 514.0, 245.0, 110.0, 3.5, 2.0, 0.0, 0.0])
        high = np.array([0.98, 808.0, 416.0, 220.0, 7.0, 5.0, 0.4, 5.0])
        while True:
            x = low + (high - low) * rng.random((self.n, 8))
            z = (x - x.mean(axis=0)) / x.std(axis=0)
            if np.unique(x, axis=0).shape[0] < self.n:
                continue
            u, v, length = knn_edges(z, self.k)
            if connected(self.n, u, v):
                break
        heating = 10 + 8 * z[:, 4] + 4 * z[:, 6] - 3 * z[:, 0] + np.sin(2 * z[:, 5]) + rng.normal(0, 0.5, self.n)
        cooling = 0.8 * heating + 2 * np.tanh(z[:, 7]) + rng.normal(0, 0.5, self.n)
        y = np.column_stack([heating, cooling])
        self.table = workdir / "table.csv"
        header = [f"X{i}" for i in range(1, 9)] + ["Y1", "Y2"]
        digest = write_csv(self.table, header, ([fmt(c) for c in row] for row in np.column_stack([x, y])))
        self.inputs = {"table.csv": digest}
        self.seed = seed
        self.report = workdir / "report.csv"
        self.expected = self._reference(u, v, 1.0 / length, y)

    def _reference(self, u, v, w, y) -> dict[tuple[str, str], tuple[float, float]]:
        """Mean and std of per-repeat MSE from the Dirichlet form of the spline.

        An alpha=2 spline s through data on K satisfies (L^2 s)_U = 0, so
        s_U = -(L^2)_UU^-1 (L^2)_UK s_K. The baseline is the weighted mean of
        the known neighbours, the global known mean where there is none.
        """
        n = self.n
        W = np.zeros((n, n))
        W[u, v] = W[v, u] = w
        dinv = 1.0 / np.sqrt(W.sum(axis=1))
        L = np.eye(n) - dinv[:, None] * W * dinv[None, :]
        L2 = L @ L
        mse = {"spline": np.zeros((self.repeats, 2)), "nnr": np.zeros((self.repeats, 2))}
        for r in range(self.repeats):
            folds = np.array_split(np.random.default_rng([self.seed, r]).permutation(n), self.folds)
            fold_mse = {"spline": [], "nnr": []}
            for fold in folds:
                unknown = np.sort(fold)
                known = np.setdiff1d(np.arange(n), unknown)
                truth, data = y[unknown], y[known]
                spline = -np.linalg.solve(L2[np.ix_(unknown, unknown)], L2[np.ix_(unknown, known)] @ data)
                weights = W[np.ix_(unknown, known)]
                totals = weights.sum(axis=1)
                base = data.mean(axis=0)
                nnr = base + weights @ (data - base) / np.where(totals == 0, 1.0, totals)[:, None]
                nnr[totals == 0] = base
                fold_mse["spline"].append(((spline - truth) ** 2).mean(axis=0))
                fold_mse["nnr"].append(((nnr - truth) ** 2).mean(axis=0))
            for method in mse:
                mse[method][r] = np.mean(fold_mse[method], axis=0)
        return {
            (method, target): (float(mse[method][:, j].mean()), float(mse[method][:, j].std()))
            for method in mse
            for j, target in enumerate(("Y1", "Y2"))
        }

    def job(self, index: int) -> Job:
        argv = [
            "ml", "cv", "--data", str(self.table), "--features", ",".join(f"X{i}" for i in range(1, 9)),
            "--targets", "Y1,Y2", "--k", str(self.k), "--alpha", str(self.alpha), "--folds", str(self.folds),
            "--repeats", str(self.repeats), "--seed", str(self.seed), "-o", str(self.report),
        ]
        return Job(index, [argv], dict(self.inputs))

    def check(self, job: Job) -> None:
        with open(self.report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = {(r["method"], r["target"]): (float(r["mean_mse"]), float(r["std_mse"])) for r in rows}
        require(len(rows) == 4 and set(got) == set(self.expected), f"report rows {sorted(got)}")
        require(all(int(r["k"]) == self.k for r in rows), "report k column")
        for key, want in self.expected.items():
            require(close(got[key], want, DATA_TOL), f"{key}: report {got[key]}, reference {want}")


# --- knn2k-interp -----------------------------------------------------------------

class Knn2kInterp:
    """``graph knn`` on 2000 seeded planar points, then ``interp`` from half of them."""

    n, k, alpha = 2000, 8, 2.0

    def __init__(self, workdir: Path, seed: int):
        rng = np.random.default_rng([seed, 2000])
        while True:
            points = rng.random((self.n, 2))
            try:
                u, v, length = knn_edges(points, self.k)
            except ValueError:
                continue
            if connected(self.n, u, v):
                break
        known = np.sort(rng.permutation(self.n)[: self.n // 2])
        values = np.sin(2 * np.pi * points[known, 0]) * np.cos(np.pi * points[known, 1]) + rng.normal(0, 0.05, known.size)
        self.points, self.known_file = workdir / "points.csv", workdir / "known.csv"
        self.inputs = {
            "points.csv": write_csv(self.points, ["x", "y"], ([fmt(a), fmt(b)] for a, b in points)),
            "known.csv": write_csv(self.known_file, ["vertex", "value"], ([int(i), fmt(f)] for i, f in zip(known, values))),
        }
        self.graph, self.values = workdir / "knn.csv", workdir / "values.csv"
        self.edges = (u, v, length)
        self.known, self.data = known, values
        self.unknown = np.setdiff1d(np.arange(self.n), known)

    def job(self, index: int) -> Job:
        calls = [
            ["graph", "knn", "--points", str(self.points), "--k", str(self.k), "-o", str(self.graph)],
            ["interp", "--graph", str(self.graph), "--known", str(self.known_file), "--alpha", str(self.alpha),
             "-o", str(self.values)],
        ]
        return Job(index, calls, dict(self.inputs))

    def check(self, job: Job) -> None:
        edges = read_csv(self.graph)
        u, v = edges[:, 0].astype(int), edges[:, 1].astype(int)
        ref_u, ref_v, ref_len = self.edges
        order = np.lexsort((v, u))
        require(u.size == ref_u.size and np.array_equal(u[order], ref_u) and np.array_equal(v[order], ref_v),
                "k-NN edge set differs from the reference")
        require(close(edges[order, 3], ref_len, 1e-12) and close(edges[order, 2], 1.0 / ref_len, 1e-12),
                "k-NN edge lengths or weights differ from the reference")
        out = read_csv(self.values)
        require(out.shape == (self.n, 2) and np.array_equal(out[:, 0], np.arange(self.n)), "values file shape")
        s = out[:, 1]
        require(bool(np.all(np.isfinite(s))), "non-finite interpolant")
        require(np.abs(s[self.known] - self.data).max() <= DATA_TOL, "interpolant misses the known data")
        residual = dirichlet_residual(self.n, u, v, edges[:, 2], s, self.unknown)
        require(residual <= IDENTITY_TOL, f"(L^2 s)_U residual {residual:.3e}")


# --- cycle256-lagrange ------------------------------------------------------------

class Cycle256Lagrange:
    """Four calls per job on a 256-cycle with every 4th vertex a node.

    Each job draws its own edge weights and center, so jobs share no inputs.
    Weights stay within 5% of 1: see the benchmark doc for why.
    """

    n, spacing, radius, truncate = 256, 4, 24, 32

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed
        self.nodes = np.arange(0, self.n, self.spacing)
        self.u = np.arange(self.n)
        self.v = (self.u + 1) % self.n
        self.u, self.v = np.minimum(self.u, self.v), np.maximum(self.u, self.v)

    def job(self, index: int) -> Job:
        rng = np.random.default_rng([self.seed, 256, index])
        weights = rng.uniform(0.95, 1.05, self.n)
        center = int(rng.choice(self.nodes))
        d = self.workdir
        graph, nodes = d / "cycle.csv", d / "nodes.csv"
        inputs = {
            "cycle.csv": write_csv(graph, ["u", "v", "weight", "length"],
                                   ([int(a), int(b), fmt(w), "1"] for a, b, w in zip(self.u, self.v, weights))),
            "nodes.csv": write_csv(nodes, ["vertex"], ([int(x)] for x in self.nodes)),
        }
        base = ["--graph", str(graph), "--nodes", str(nodes), "--center", str(center)]
        calls = [
            ["lagrange", *base, "--alpha", "2", "-o", str(d / "chi.csv")],
            ["lagrange", *base, "--local", "--radius", str(self.radius), "-o", str(d / "chi_local.csv")],
            ["lagrange", *base, "--truncate", str(self.truncate), "--alpha", "1.5", "-o", str(d / "chi_trunc.csv")],
            ["decay", "--graph", str(graph), "--function", str(d / "chi.csv"), "--center", str(center), "--fit",
             "-o", str(d / "profile.csv")],
        ]
        return Job(index, calls, inputs, {"center": center, "weights": weights})

    def _function(self, name: str) -> np.ndarray:
        out = read_csv(self.workdir / name)
        require(out.shape == (self.n, 2) and np.array_equal(out[:, 0], np.arange(self.n)), f"{name} shape")
        require(bool(np.all(np.isfinite(out[:, 1]))), f"{name} has non-finite values")
        return out[:, 1]

    def check(self, job: Job) -> None:
        center, weights = job.expect["center"], job.expect["weights"]
        hops = np.abs(np.arange(self.n) - center)
        hops = np.minimum(hops, self.n - hops)

        chi = self._function("chi.csv")
        cardinal = (self.nodes == center).astype(float)
        require(np.abs(chi[self.nodes] - cardinal).max() <= DATA_TOL, "chi is not cardinal on the nodes")
        unknown = np.setdiff1d(np.arange(self.n), self.nodes)
        residual = dirichlet_residual(self.n, self.u, self.v, weights, chi, unknown)
        require(residual <= IDENTITY_TOL, f"chi: (L^2 s)_U residual {residual:.3e}")

        local = self._function("chi_local.csv")
        near = self.nodes[hops[self.nodes] <= self.radius]
        require(np.abs(local[near] - (near == center)).max() <= DATA_TOL, "local chi is not cardinal near the center")
        residual = dirichlet_residual(self.n, self.u, self.v, weights, local, np.setdiff1d(np.arange(self.n), near))
        require(residual <= IDENTITY_TOL, f"local chi: (L^2 s)_U residual {residual:.3e}")

        truncated = self._function("chi_trunc.csv")
        require(abs(truncated[center] - 1.0) <= TRUNCATED_TOL, f"truncated chi is {truncated[center]} at the center")

        profile = read_csv(self.workdir / "profile.csv")
        require(profile.shape[0] >= 3 and profile[0, 0] == 0.0, "decay profile bins")
        fit = read_csv(self.workdir / "profile.csv.fit.csv")
        require(fit.shape == (1, 6) and bool(np.isfinite(fit[0, 1])), "decay fit rate is not finite")


WORKLOADS = {
    "cv768": CV768,
    "knn2k-interp": Knn2kInterp,
    "cycle256-lagrange": Cycle256Lagrange,
}
