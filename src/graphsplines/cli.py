"""Command-line interface: graph generation, interpolation, diagnostics, experiments.

Parsing, file I/O and dispatch only; the ``verify`` suites live in ``diagnostics``.
Every data-producing subcommand writes CSV, then a ``<output>.manifest.json``
recording its command path, flags, seed, and input digests; an output that
names an input or another output is refused. Exit codes: 0 success, 1 usage,
2 input validation, 3 numerical failure, 4 verification failure.

Only the parsers on the path that argv names are constructed: a subcommand's
parser is constructed and filled in when argparse dispatches to it (see
``_Commands``), so a ``lagrange`` call builds two parsers, not eight, and
``graph cycle`` three, not eleven. Building every parser took most of a call's
parsing time, mostly argparse's per-parser and per-argument formatter and
gettext work for commands the call never used. A fresh top-level parser is
still built on every call and nothing is cached, so a one-shot process saves as
much as a caller that runs ``main`` many times.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import io as gio
from .diagnostics import SUITES, decay_profile, fit_exponential_decay
from .errors import GraphSplinesError, NumericalError, ValidationError
from .graphs import cycle_graph, knn_graph, lattice_graph
from .interpolation import Interpolant, _coefficients, _spline, dirichlet_lagrange, truncated_lagrange
from .ml import CVConfig, cross_validate, load_dataset, smoothness_experiment
from .spectral import decompose_graph

# --help shows the docstring's first two paragraphs; the third is about this code
_DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None
# the dests that name a command's path through the parser tree, in parse order; the flags that name its files
_PATH = ("command", "kind", "experiment", "check")
_INPUTS = ("points", "graph", "nodes", "known", "function", "data")


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _Commands(argparse._SubParsersAction):
    """Subcommand action that constructs a subcommand's parser only when argv names it.

    ``add_parser`` records the help line that ``--help`` lists, the ``populate`` function that
    adds the subcommand's arguments and a leaf's ``run``; usage and choice errors read only the
    names. On dispatch the named parser is constructed, filled in, given ``func=run`` and parsed.
    """

    def add_parser(self, name, *, help, populate, run=None):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = populate, run

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        entry = self._name_parser_map[name]
        if isinstance(entry, tuple):  # first dispatch: the entry is the populate function and the runner
            populate, run = entry
            self._name_parser_map[name] = sub = _Parser(prog=f"{self._prog_prefix} {name}")
            populate(sub)
            if run is not None:
                sub.set_defaults(func=run)
        super().__call__(parser, namespace, values, option_string)


def _columns(spec: str) -> list[str]:
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _magnitudes(spec: str) -> list[float]:
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _manifest(args) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    subcommand = " ".join(flags[k] for k in _PATH if k in flags)
    gio.write_manifest(args.output, subcommand, flags, [flags[k] for k in _INPUTS if k in flags], __version__)


def _refuse_overwrites(args) -> None:
    """Refuse an output that names a file the call reads or another of its outputs."""
    reads = [(f"--{k}", path) for k in _INPUTS if (path := vars(args).get(k)) is not None]
    writes = [(f"--{k}", path) for k in ("output", "coefficients") if (path := vars(args).get(k)) is not None]
    if args.output is not None:  # main's manifest and decay's fit go beside the output
        writes.append(("the manifest", f"{args.output}.manifest.json"))
        if getattr(args, "fit", False):
            writes.append(("the fit", f"{args.output}.fit.csv"))
    for i, (flag, path) in enumerate(writes):
        for other, earlier in reads + writes[:i]:
            exist = os.path.exists(path) and os.path.exists(earlier)  # an output yet to be written is compared by name
            if os.path.samefile(path, earlier) if exist else os.path.realpath(path) == os.path.realpath(earlier):
                raise ValidationError(f"{flag} {path} names the same file as {other} {earlier}")


# --- graph generation ----------------------------------------------------------

def _cmd_graph_cycle(args) -> None:
    g = cycle_graph(args.n, args.weight, args.length)
    gio.write_edge_csv(args.output, g)


def _cmd_graph_lattice(args) -> None:
    g = lattice_graph(args.rows, args.cols, args.weight, args.length)
    gio.write_edge_csv(args.output, g)


def _cmd_graph_knn(args) -> None:
    points = gio.read_points_csv(args.points, header=not args.no_header)
    g = knn_graph(points, args.k)
    gio.write_edge_csv(args.output, g)


# --- interpolation --------------------------------------------------------------

def _cmd_lagrange(args) -> None:
    g = gio.read_edge_csv(args.graph)
    nodes = gio.read_nodes_csv(args.nodes)
    truncated = args.truncate is not None
    if args.local and args.radius is None:
        raise ValidationError("--local requires --radius")
    if args.radius is not None and not args.local:
        raise ValidationError("--radius requires --local")
    if args.no_reproject and not truncated:
        raise ValidationError("--no-reproject requires --truncate")
    radius = args.radius if args.local else np.inf  # the full function is the local one whose ball holds every node
    # Every mode solves the Dirichlet form (no kernel; for an integer alpha, no eigh); --truncate decomposes once
    if truncated:
        values = truncated_lagrange(
            args.alpha, decompose_graph(g), g, nodes, args.center, args.truncate, reimpose_side_condition=not args.no_reproject
        )
    else:
        values = dirichlet_lagrange(g, nodes, args.center, args.alpha, radius)
    gio.write_function_csv(args.output, values)


def _cmd_interp(args) -> None:
    g = gio.read_edge_csv(args.graph)
    vertices, data = gio.read_function_csv(args.known)
    # The Dirichlet-form values are written as solved: re-evaluating them through the kernel
    # would lose digits to its conditioning. The eigenpairs serve only the coefficients.
    decomposition = decompose_graph(g) if args.coefficients else None
    values = _spline(g, vertices, data, args.alpha, decomposition)
    gio.write_function_csv(args.output, values)
    if args.coefficients:
        beta, constant = _coefficients(g, decomposition, values, vertices, args.alpha)
        gio.write_interpolant_csv(args.coefficients, Interpolant(float(constant), beta, args.alpha, vertices))


def _cmd_decay(args) -> None:
    g = gio.read_edge_csv(args.graph)
    vertices, data = gio.read_function_csv(args.function)
    if not np.array_equal(np.sort(vertices), np.arange(g.n_vertices)):
        raise ValidationError(f"function file must list each of the {g.n_vertices} vertices exactly once")
    f = np.zeros(g.n_vertices)
    f[vertices] = data
    bin_width = args.bin_width if args.bin_width is not None else g.rho_max
    profile = decay_profile(f, g, args.center, bin_width)
    fit = fit_exponential_decay(profile, scale=args.fit_scale) if args.fit else None
    gio.write_profile_csv(args.output, profile)
    if fit is not None:
        gio.write_fit_csv(str(args.output) + ".fit.csv", fit)


# --- verification suites ---------------------------------------------------------

def _cmd_verify(args) -> int:
    ok, lines, header, rows = SUITES[args.check](args.trials, args.seed)
    status = "PASS" if ok else "FAIL"
    for line in lines:
        print(f"{line} -> {status}")
    if args.output:
        gio.write_rows(args.output, header, rows)
    return 0 if ok else 4


# --- experiments ------------------------------------------------------------------

def _cmd_ml_cv(args) -> None:
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
    if report.nnr_fallbacks:
        print(f"note: {report.nnr_fallbacks} unknown vertices had no known neighbor (global-mean fallback)")


def _cmd_experiment_smoothness(args) -> None:
    pairs = smoothness_experiment(
        n_points=args.n,
        n_bumps_per_axis=args.bumps_per_axis,
        magnitudes=_magnitudes(args.magnitudes),
        k_neighbors=args.k,
        alpha=args.alpha,
        seed=args.seed,
    )
    gio.write_pairs_csv(args.output, pairs, ["seminorm", "error"])


# --- parser ------------------------------------------------------------------------

def _fill_graph(graph: _Parser) -> None:
    graph_sub = graph.add_subparsers(dest="kind", required=True, action=_Commands)
    graph_sub.add_parser("cycle", help="ring with uniform weight and length", populate=_fill_graph_cycle, run=_cmd_graph_cycle)
    graph_sub.add_parser("lattice", help="4-neighbor grid", populate=_fill_graph_lattice, run=_cmd_graph_lattice)
    graph_sub.add_parser("knn", help="symmetrized k-nearest-neighbor graph of a point cloud", populate=_fill_graph_knn, run=_cmd_graph_knn)


def _fill_graph_cycle(cyc: _Parser) -> None:
    cyc.add_argument("--n", type=int, required=True)
    cyc.add_argument("--weight", type=float, default=1.0)
    cyc.add_argument("--length", type=float, default=1.0)
    cyc.add_argument("-o", "--output", required=True)


def _fill_graph_lattice(lat: _Parser) -> None:
    lat.add_argument("--rows", type=int, required=True)
    lat.add_argument("--cols", type=int, required=True)
    lat.add_argument("--weight", type=float, default=1.0)
    lat.add_argument("--length", type=float, default=1.0)
    lat.add_argument("-o", "--output", required=True)


def _fill_graph_knn(knn: _Parser) -> None:
    knn.add_argument("--points", required=True, help="point-cloud CSV, numeric columns")
    knn.add_argument("--k", type=int, required=True)
    knn.add_argument("--no-header", action="store_true", help="point file has no header row")
    knn.add_argument("-o", "--output", required=True)


def _fill_lagrange(lag: _Parser) -> None:
    lag.add_argument("--graph", required=True, help="edge-list CSV")
    lag.add_argument("--nodes", required=True, help="node-set CSV (vertex column)")
    lag.add_argument("--center", type=int, required=True)
    lag.add_argument("--alpha", type=float, default=2.0)
    lag.add_argument("--radius", type=float, default=None)
    mode = lag.add_mutually_exclusive_group()
    mode.add_argument("--local", action="store_true", help="interpolate only at the nodes within --radius of the center")
    mode.add_argument("--truncate", type=float, default=None, metavar="K", help="drop kernel coefficients beyond distance K")
    lag.add_argument("--no-reproject", action="store_true", help="skip the side-condition repair after truncation")
    lag.add_argument("-o", "--output", required=True)


def _fill_interp(itp: _Parser) -> None:
    itp.add_argument("--graph", required=True)
    itp.add_argument("--known", required=True, help="function CSV (vertex,value) on the known vertices")
    itp.add_argument("--alpha", type=float, default=2.0)
    itp.add_argument("--coefficients", default=None, metavar="PATH", help="also write the solved coefficients CSV")
    itp.add_argument("-o", "--output", required=True)


def _fill_decay(dec: _Parser) -> None:
    dec.add_argument("--graph", required=True)
    dec.add_argument("--function", required=True, help="function CSV covering every vertex")
    dec.add_argument("--center", type=int, required=True)
    dec.add_argument("--bin-width", type=float, default=None, help="default: max edge length")
    dec.add_argument("--fit", action="store_true", help="also write a log-linear fit CSV")
    dec.add_argument("--fit-scale", type=float, default=1.0, help="distance scale for the fitted rate")
    dec.add_argument("-o", "--output", required=True)


def _fill_verify(ver: _Parser) -> None:
    ver.add_argument("check", choices=sorted(SUITES))
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("-o", "--output", default=None, help="optional CSV summary")


def _fill_ml(ml: _Parser) -> None:
    ml_sub = ml.add_subparsers(dest="experiment", required=True, action=_Commands)
    ml_sub.add_parser("cv", help="repeated k-fold cross-validation, spline vs nearest neighbors", populate=_fill_ml_cv, run=_cmd_ml_cv)


def _fill_ml_cv(cv: _Parser) -> None:
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


def _fill_experiment(exp: _Parser) -> None:
    exp_sub = exp.add_subparsers(dest="experiment", required=True, action=_Commands)
    exp_sub.add_parser("smoothness", help="data smoothness against interpolation error", populate=_fill_smoothness, run=_cmd_experiment_smoothness)


def _fill_smoothness(smooth: _Parser) -> None:
    smooth.add_argument("--n", type=int, default=1000, help="number of random sites (even)")
    smooth.add_argument("--bumps-per-axis", type=int, default=4)
    smooth.add_argument("--magnitudes", default="1,2,3,4,5,6,7,8,9,10")
    smooth.add_argument("--k", type=int, default=8)
    smooth.add_argument("--alpha", type=float, default=2.0)
    smooth.add_argument("--seed", type=int, default=0)
    smooth.add_argument("-o", "--output", required=True)


def _build_parser() -> _Parser:
    """A fresh parser holding the top-level commands; each one's parser is constructed when argv names it."""
    parser = _Parser(prog="graphsplines", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"graphsplines {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)
    sub.add_parser("graph", help="generate edge-list CSVs", populate=_fill_graph)
    sub.add_parser("lagrange", help="cardinal basis function centered at a node", populate=_fill_lagrange, run=_cmd_lagrange)
    sub.add_parser("interp", help="interpolate known vertex values to the whole graph", populate=_fill_interp, run=_cmd_interp)
    sub.add_parser("decay", help="distance-binned envelope of a vertex function", populate=_fill_decay, run=_cmd_decay)
    sub.add_parser("verify", help="run a verification suite; exit 4 on failure", populate=_fill_verify, run=_cmd_verify)
    sub.add_parser("ml", help="regression experiments on tabular data", populate=_fill_ml)
    sub.add_parser("experiment", help="synthetic studies", populate=_fill_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _refuse_overwrites(args)
        code = args.func(args) or 0
        if args.output:
            _manifest(args)
        return code
    except GraphSplinesError as exc:
        label = "numerical failure" if isinstance(exc, NumericalError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NumericalError.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
