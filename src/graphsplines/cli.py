"""Command-line interface: graph generation, interpolation, diagnostics, experiments.

Every data-producing subcommand writes CSV plus a ``<output>.manifest.json``
recording flags, seed, and input digests. Exit codes: 0 success, 1 usage,
2 input validation, 3 numerical failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from . import io as gio
from .diagnostics import (
    bulk_ratio,
    cycle_cover_constant,
    decay_profile,
    fit_exponential_decay,
    ml_cover_constant,
    random_known_unknown_graph,
    zeros_lemma_check,
)
from .errors import GraphSplinesError, NumericalError, ValidationError
from .graphs import (
    cycle_graph,
    fill_distance,
    knn_graph,
    lattice_graph,
    random_connected_graph,
)
from .interpolation import (
    InterpolationProblem,
    evaluate,
    lagrange_basis,
    local_lagrange,
    native_semi_inner_product,
    solve_interpolant,
    truncated_lagrange,
)
from .ml import CVConfig, cross_validate, load_dataset, smoothness_experiment
from .spectral import LaplacianKind, decompose_graph, pseudo_inverse_power, sobolev_seminorm


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _columns(spec: str) -> list[str]:
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _magnitudes(spec: str) -> list[float]:
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _load_graph(path):
    return gio.read_edge_csv(path)


def _setup(graph, alpha: float):
    decomposition = decompose_graph(graph, LaplacianKind.NORMALIZED)
    kernel = pseudo_inverse_power(decomposition, alpha)
    return decomposition, kernel


def _manifest(args, subcommand: str, inputs) -> None:
    flags = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    gio.write_manifest(args.output, subcommand, flags, inputs, __version__)


# --- graph generation ----------------------------------------------------------

def _cmd_graph_cycle(args) -> int:
    g = cycle_graph(args.n, args.weight, args.length)
    gio.write_edge_csv(args.output, g)
    _manifest(args, "graph cycle", [])
    return 0


def _cmd_graph_lattice(args) -> int:
    g = lattice_graph(args.rows, args.cols, args.weight, args.length)
    gio.write_edge_csv(args.output, g)
    _manifest(args, "graph lattice", [])
    return 0


def _cmd_graph_knn(args) -> int:
    points = gio.read_points_csv(args.points, header=not args.no_header)
    g = knn_graph(points, args.k)
    gio.write_edge_csv(args.output, g)
    _manifest(args, "graph knn", [args.points])
    return 0


# --- interpolation --------------------------------------------------------------

def _cmd_lagrange(args) -> int:
    g = _load_graph(args.graph)
    nodes = gio.read_nodes_csv(args.nodes)
    decomposition, kernel = _setup(g, args.alpha)
    if args.local:
        if args.radius is None:
            raise ValidationError("--local requires --radius")
        values = local_lagrange(kernel, decomposition, g, nodes, args.center, args.radius)
    elif args.truncate is not None:
        basis = lagrange_basis(kernel, decomposition, g, nodes)
        values = truncated_lagrange(basis, args.center, args.truncate, reimpose_side_condition=not args.no_reproject)
    else:
        cardinal = (nodes == args.center).astype(float)
        if not cardinal.any():
            raise ValidationError(f"center {args.center} is not in the node set")
        problem = InterpolationProblem(g, decomposition, kernel, nodes, cardinal)
        values = evaluate(solve_interpolant(problem), problem)
    gio.write_function_csv(args.output, values)
    if args.dump_kernel:
        gio.write_matrix_csv(args.dump_kernel, kernel.matrix)
    _manifest(args, "lagrange", [args.graph, args.nodes])
    return 0


def _cmd_interp(args) -> int:
    g = _load_graph(args.graph)
    vertices, data = gio.read_function_csv(args.known)
    decomposition, kernel = _setup(g, args.alpha)
    problem = InterpolationProblem(g, decomposition, kernel, vertices, data)
    interpolant = solve_interpolant(problem)
    gio.write_function_csv(args.output, evaluate(interpolant, problem))
    if args.coefficients:
        gio.write_interpolant_csv(args.coefficients, interpolant)
    if args.dump_kernel:
        gio.write_matrix_csv(args.dump_kernel, kernel.matrix)
    _manifest(args, "interp", [args.graph, args.known])
    return 0


def _cmd_decay(args) -> int:
    g = _load_graph(args.graph)
    vertices, data = gio.read_function_csv(args.function)
    if not np.array_equal(np.sort(vertices), np.arange(g.n_vertices)):
        raise ValidationError(f"function file must list each of the {g.n_vertices} vertices exactly once")
    f = np.zeros(g.n_vertices)
    f[vertices] = data
    bin_width = args.bin_width if args.bin_width is not None else g.rho_max
    profile = decay_profile(f, g, args.center, bin_width)
    gio.write_profile_csv(args.output, profile)
    _manifest(args, "decay", [args.graph, args.function])
    if args.fit:
        fit = fit_exponential_decay(profile, scale=args.fit_scale)
        fit_path = str(args.output) + ".fit.csv"
        gio.write_fit_csv(fit_path, fit)
    return 0


# --- verification suites ---------------------------------------------------------

def _verify_zeros_lemma(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    violations = 0
    rows = []
    for _ in range(args.trials):
        n = int(rng.integers(2, 65))
        g = random_connected_graph(n, rng)
        for alpha in (1.0, 2.0, 4.0):
            report = zeros_lemma_check(g, alpha, trials=1, seed=int(rng.integers(2**31)))
            worst = max(worst, report.max_ratio)
            violations += len(report.violations)
            rows.append((n, alpha, gio.fmt(report.max_ratio)))
    ok = violations == 0
    lines = [f"zeros-lemma: graphs={args.trials} alphas=1,2,4 max_ratio={worst:.12f} violations={violations}"]
    return ok, lines, ["n_vertices", "alpha", "ratio"], rows


def _verify_min_norm(args):
    rng = np.random.default_rng(args.seed)
    worst_ip = 0.0
    failures = 0
    rows = []
    for _ in range(args.trials):
        n = int(rng.integers(4, 65))
        g = random_connected_graph(n, rng)
        decomposition, kernel = _setup(g, 2.0)
        m = int(rng.integers(2, n + 1))
        nodes = np.sort(rng.choice(n, size=m, replace=False))
        problem = InterpolationProblem(g, decomposition, kernel, nodes, rng.standard_normal(m))
        s_fun = evaluate(solve_interpolant(problem), problem)
        s_norm = sobolev_seminorm(decomposition, s_fun, 2.0)

        perturbation = rng.standard_normal(n)
        perturbation[nodes] = 0.0
        inner = native_semi_inner_product(decomposition, perturbation, s_fun, 2.0)
        scale = max(1.0, sobolev_seminorm(decomposition, perturbation, 2.0) * s_norm)
        rel = abs(inner) / scale
        worst_ip = max(worst_ip, rel)
        competitor = sobolev_seminorm(decomposition, s_fun + perturbation, 2.0)
        ok_trial = rel <= 1e-9 and competitor >= s_norm * (1 - 1e-12)
        failures += 0 if ok_trial else 1
        rows.append((n, m, gio.fmt(rel), gio.fmt(competitor - s_norm)))
    ok = failures == 0
    lines = [f"min-norm: trials={args.trials} max_rel_inner_product={worst_ip:.3e} failures={failures}"]
    return ok, lines, ["n_vertices", "n_nodes", "rel_inner_product", "norm_gap"], rows


def _verify_coeff_symmetry(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    rows = []
    for _ in range(args.trials):
        n = int(rng.integers(4, 101))
        g = random_connected_graph(n, rng)
        decomposition, kernel = _setup(g, 2.0)
        m = int(rng.integers(2, min(n, 30) + 1))
        nodes = np.sort(rng.choice(n, size=m, replace=False))
        basis = lagrange_basis(kernel, decomposition, g, nodes)
        coeffs = basis.coefficients
        asym = float(np.abs(coeffs - coeffs.T).max())

        lam = decomposition.eigenvalue_powers(2.0)
        hat = decomposition.eigenvectors.T @ basis.columns
        gram = hat.T @ (lam[:, None] * hat)
        mismatch = float(np.abs(gram - coeffs).max())

        worst = max(worst, asym, mismatch)
        if asym > 1e-8 or mismatch > 1e-8:
            failures += 1
        rows.append((n, m, gio.fmt(asym), gio.fmt(mismatch)))
    ok = failures == 0
    lines = [f"coeff-symmetry: trials={args.trials} max_deviation={worst:.3e} failures={failures}"]
    return ok, lines, ["n_vertices", "n_nodes", "asymmetry", "gram_mismatch"], rows


def _verify_bulk_ratio(args):
    g = cycle_graph(256)
    nodes = np.arange(0, 256, 4)
    decomposition, kernel = _setup(g, 2.0)
    basis = lagrange_basis(kernel, decomposition, g, nodes)
    chi = basis.columns[:, basis.center_index(0)]
    h = fill_distance(g, nodes)
    rho_max = g.rho_max
    side = max(1, int(np.sqrt(args.trials)))
    r2_values = 3 * rho_max + 2 * h + 1 + 2.0 * np.arange(side)
    gaps = 2.0 * (1 + np.arange(side))
    worst = 0.0
    rows = []
    for r2 in r2_values:
        for gap in gaps:
            ratio = bulk_ratio(chi, decomposition, g, 0, r2, r2 + gap, h, rho_max)
            worst = max(worst, ratio)
            rows.append((gio.fmt(r2), gio.fmt(r2 + gap), gio.fmt(ratio)))
    ok = worst < 1.0
    lines = [f"bulk-ratio: cycle-256 sweep {side}x{side} max_ratio={worst:.6f}"]
    return ok, lines, ["r2", "r3", "ratio"], rows


def _verify_cover_constant(args):
    rng = np.random.default_rng(args.seed)
    failures = 0
    rows = []
    for _ in range(args.trials):
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
        ml_ok = report.empirical_bound <= report.formula_bound
        if not (cycle_ok and ml_ok):
            failures += 1
        rows.append(
            (n, spacing, gio.fmt(constant), gio.fmt(drift), gio.fmt(report.empirical_bound), gio.fmt(report.formula_bound))
        )
    ok = failures == 0
    lines = [f"cover-constant: trials={args.trials} failures={failures}"]
    return ok, lines, ["cycle_n", "spacing", "constant", "rotation_drift", "ml_empirical", "ml_formula"], rows


_VERIFIERS = {
    "zeros-lemma": _verify_zeros_lemma,
    "min-norm": _verify_min_norm,
    "coeff-symmetry": _verify_coeff_symmetry,
    "bulk-ratio": _verify_bulk_ratio,
    "cover-constant": _verify_cover_constant,
}


def _cmd_verify(args) -> int:
    ok, lines, header, rows = _VERIFIERS[args.check](args)
    status = "PASS" if ok else "FAIL"
    for line in lines:
        print(f"{line} -> {status}")
    if args.output:
        gio.write_rows(args.output, header, rows)
        _manifest(args, f"verify {args.check}", [])
    return 0 if ok else 4


# --- experiments ------------------------------------------------------------------

def _cmd_ml_cv(args) -> int:
    dataset = load_dataset(
        args.data,
        _columns(args.features),
        _columns(args.targets),
        header=not args.no_header,
    )
    cfg = CVConfig(
        k_neighbors=args.k,
        folds=args.folds,
        repeats=args.repeats,
        alpha=args.alpha,
        seed=args.seed,
    )
    report = cross_validate(dataset, cfg)
    gio.write_report_csv(args.output, report)
    _manifest(args, "ml cv", [args.data])
    if report.nnr_fallbacks:
        print(f"note: {report.nnr_fallbacks} unknown vertices had no known neighbor (global-mean fallback)")
    return 0


def _cmd_experiment_smoothness(args) -> int:
    pairs = smoothness_experiment(
        n_points=args.n,
        n_bumps_per_axis=args.bumps_per_axis,
        magnitudes=_magnitudes(args.magnitudes),
        k_neighbors=args.k,
        alpha=args.alpha,
        seed=args.seed,
    )
    gio.write_pairs_csv(args.output, pairs, ["seminorm", "error"])
    _manifest(args, "experiment smoothness", [])
    return 0


# --- parser ------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="graphsplines", description=__doc__)
    parser.add_argument("--version", action="version", version=f"graphsplines {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    graph = sub.add_parser("graph", help="generate edge-list CSVs")
    graph_sub = graph.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    cyc = graph_sub.add_parser("cycle", help="ring with uniform weight and length")
    cyc.add_argument("--n", type=int, required=True)
    cyc.add_argument("--weight", type=float, default=1.0)
    cyc.add_argument("--length", type=float, default=1.0)
    cyc.add_argument("-o", "--output", required=True)
    cyc.set_defaults(func=_cmd_graph_cycle)

    lat = graph_sub.add_parser("lattice", help="4-neighbor grid")
    lat.add_argument("--rows", type=int, required=True)
    lat.add_argument("--cols", type=int, required=True)
    lat.add_argument("--weight", type=float, default=1.0)
    lat.add_argument("--length", type=float, default=1.0)
    lat.add_argument("-o", "--output", required=True)
    lat.set_defaults(func=_cmd_graph_lattice)

    knn = graph_sub.add_parser("knn", help="symmetrized k-nearest-neighbor graph of a point cloud")
    knn.add_argument("--points", required=True, help="point-cloud CSV, numeric columns")
    knn.add_argument("--k", type=int, required=True)
    knn.add_argument("--no-header", action="store_true", help="point file has no header row")
    knn.add_argument("-o", "--output", required=True)
    knn.set_defaults(func=_cmd_graph_knn)

    lag = sub.add_parser("lagrange", help="cardinal basis function centered at a node")
    lag.add_argument("--graph", required=True, help="edge-list CSV")
    lag.add_argument("--nodes", required=True, help="node-set CSV (vertex column)")
    lag.add_argument("--center", type=int, required=True)
    lag.add_argument("--alpha", type=float, default=2.0)
    lag.add_argument("--local", action="store_true", help="solve only on nodes within --radius of the center")
    lag.add_argument("--radius", type=float, default=None)
    lag.add_argument("--truncate", type=float, default=None, metavar="K", help="drop coefficients beyond distance K")
    lag.add_argument("--no-reproject", action="store_true", help="skip the side-condition repair after truncation")
    lag.add_argument("--dump-kernel", default=None, metavar="PATH", help="debug: write the dense kernel matrix CSV")
    lag.add_argument("-o", "--output", required=True)
    lag.set_defaults(func=_cmd_lagrange)

    itp = sub.add_parser("interp", help="interpolate known vertex values to the whole graph")
    itp.add_argument("--graph", required=True)
    itp.add_argument("--known", required=True, help="function CSV (vertex,value) on the known vertices")
    itp.add_argument("--alpha", type=float, default=2.0)
    itp.add_argument("--coefficients", default=None, metavar="PATH", help="also write the solved coefficients CSV")
    itp.add_argument("--dump-kernel", default=None, metavar="PATH", help="debug: write the dense kernel matrix CSV")
    itp.add_argument("-o", "--output", required=True)
    itp.set_defaults(func=_cmd_interp)

    dec = sub.add_parser("decay", help="distance-binned envelope of a vertex function")
    dec.add_argument("--graph", required=True)
    dec.add_argument("--function", required=True, help="function CSV covering every vertex")
    dec.add_argument("--center", type=int, required=True)
    dec.add_argument("--bin-width", type=float, default=None, help="default: max edge length")
    dec.add_argument("--fit", action="store_true", help="also write a log-linear fit CSV")
    dec.add_argument("--fit-scale", type=float, default=1.0, help="distance scale for the fitted rate")
    dec.add_argument("-o", "--output", required=True)
    dec.set_defaults(func=_cmd_decay)

    ver = sub.add_parser("verify", help="run a verification suite; exit 4 on failure")
    ver.add_argument("check", choices=sorted(_VERIFIERS))
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("-o", "--output", default=None, help="optional CSV summary")
    ver.set_defaults(func=_cmd_verify)

    ml = sub.add_parser("ml", help="regression experiments on tabular data")
    ml_sub = ml.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    cv = ml_sub.add_parser("cv", help="repeated k-fold cross-validation, spline vs nearest neighbors")
    cv.add_argument("--data", required=True, help="CSV/TSV file")
    cv.add_argument("--features", required=True, help="comma-separated column names or indices")
    cv.add_argument("--targets", required=True, help="comma-separated column names or indices")
    cv.add_argument("--k", type=int, required=True, help="nearest-neighbor connectivity")
    cv.add_argument("--alpha", type=float, default=2.0)
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--repeats", type=int, default=20)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--no-header", action="store_true")
    cv.add_argument("-o", "--output", required=True)
    cv.set_defaults(func=_cmd_ml_cv)

    exp = sub.add_parser("experiment", help="synthetic studies")
    exp_sub = exp.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    smooth = exp_sub.add_parser("smoothness", help="data smoothness against interpolation error")
    smooth.add_argument("--n", type=int, default=1000, help="number of random sites (even)")
    smooth.add_argument("--bumps-per-axis", type=int, default=4)
    smooth.add_argument("--magnitudes", default="1,2,3,4,5,6,7,8,9,10")
    smooth.add_argument("--k", type=int, default=8)
    smooth.add_argument("--alpha", type=float, default=2.0)
    smooth.add_argument("--seed", type=int, default=0)
    smooth.add_argument("-o", "--output", required=True)
    smooth.set_defaults(func=_cmd_experiment_smoothness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except GraphSplinesError as exc:
        label = "numerical failure" if isinstance(exc, NumericalError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NumericalError.exit_code
    except (FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
