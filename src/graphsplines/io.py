"""CSV wire formats and run manifests.

All numeric output uses 17 significant digits so values round-trip exactly
through text. Every CLI output file gets a sibling ``<output>.manifest.json``
recording the subcommand, flags, seed, input digests, and tool version;
identical manifests imply identical outputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import MissingValue, NonNumericColumn, TooFewRows, ValidationError
from .graphs import WeightedGraph, build_graph

if TYPE_CHECKING:
    from .diagnostics import DecayFit, DecayProfile
    from .interpolation import Interpolant
    from .ml import RegressionReport

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "?"}


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic CSV writer; numeric cells must already be formatted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, header: bool | Sequence[str] = True, vertex_columns: int = 0) -> tuple[list[str], np.ndarray]:
    """The one reader of input files: column names and a float array of a numeric CSV/TSV file.

    The delimiter is a tab when the first line holds one, else a comma; blank
    lines are skipped. ``header`` is True when the first line names the columns,
    False when there is none (columns ``col0, col1, ...``), or the names it must
    hold. Every row must be as wide as the first and every cell finite: a
    missing token (``""``, ``NA``, ``nan``, ...) raises :class:`MissingValue`,
    any other bad cell :class:`NonNumericColumn`, as does a cell of the first
    ``vertex_columns`` columns that is not an integer below 2**53 in size.
    Messages name the file, the row by its line in the file, and the column.
    """
    with open(path, newline="") as fh:
        delimiter = "\t" if "\t" in fh.readline() else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        lines, rows = [], []
        for row in reader:
            if "".join(row).strip():
                lines.append(reader.line_num)
                rows.append(row)
    if not rows:
        raise TooFewRows(f"{path} is empty")
    if header is False:
        names = [f"col{j}" for j in range(len(rows[0]))]
    else:
        names = [cell.strip() for cell in rows[0]]
        if header is not True and names != list(header):
            raise ValidationError(f"{path}: expected header {','.join(header)}, got {','.join(names)}")
        lines, rows = lines[1:], rows[1:]
    for line, row in zip(lines, rows):
        if len(row) != len(names):
            raise ValidationError(f"{path}: row {line} has {len(row)} cells, expected {len(names)}")
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all() or not _are_vertex_ids(data[:, :vertex_columns]):
        _reject_first_bad_cell(path, names, lines, rows, vertex_columns)
    return names, data


def _are_vertex_ids(x) -> bool:
    """Integers that a float holds exactly, so that a cast to int keeps them."""
    return bool(np.all((x % 1 == 0) & (np.abs(x) < 2.0**53)))


def _reject_first_bad_cell(path, names: list[str], lines: list[int], rows: list[list[str]], vertex_columns: int) -> None:
    """Raise for the first cell, in file order, that :func:`read_table` refuses."""
    for line, row in zip(lines, rows):
        for j, cell in enumerate(row):
            token = cell.strip()
            where = f"{path}: row {line}, column {names[j]!r}"
            if token.lower() in _MISSING_TOKENS:
                raise MissingValue(f"{where}: missing value {token!r}")
            try:
                x = float(token)
            except ValueError:
                raise NonNumericColumn(f"{where}: non-numeric value {token!r}") from None
            if not np.isfinite(x):
                raise NonNumericColumn(f"{where}: non-finite value {token!r}")
            if j < vertex_columns and not _are_vertex_ids(x):
                raise NonNumericColumn(f"{where}: vertex {token!r} is not an integer below 2**53 in size")


# --- graphs -------------------------------------------------------------------

def write_edge_csv(path, g: WeightedGraph) -> None:
    write_rows(path, ["u", "v", "weight", "length"], [(u, v, fmt(w), fmt(ell)) for u, v, w, ell in g.edges])


def read_edge_csv(path) -> WeightedGraph:
    return build_graph(read_table(path, ["u", "v", "weight", "length"], vertex_columns=2)[1])


def read_points_csv(path, header: bool = True) -> np.ndarray:
    """Point cloud: one row per point, numeric columns only."""
    return read_table(path, header)[1]


# --- vertex functions and node sets --------------------------------------------

def write_function_csv(path, values: np.ndarray) -> None:
    write_rows(path, ["vertex", "value"], [(i, fmt(v)) for i, v in enumerate(values)])


def read_function_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (vertices, values); the file may cover only a subset of vertices."""
    data = read_table(path, ["vertex", "value"], vertex_columns=1)[1]
    return data[:, 0].astype(int), data[:, 1]


def write_nodes_csv(path, nodes) -> None:
    write_rows(path, ["vertex"], [(int(v),) for v in nodes])


def read_nodes_csv(path) -> np.ndarray:
    return read_table(path, ["vertex"], vertex_columns=1)[1][:, 0].astype(int)


# --- interpolants, profiles, reports -------------------------------------------

def write_interpolant_csv(path, interpolant: Interpolant) -> None:
    rows = [(int(v), fmt(b)) for v, b in zip(interpolant.nodes, interpolant.coefficients)]
    rows.append(("constant", fmt(interpolant.constant)))
    write_rows(path, ["node", "beta"], rows)


def write_profile_csv(path, profile: DecayProfile) -> None:
    write_rows(
        path,
        ["distance", "envelope"],
        [(fmt(d), fmt(e)) for d, e in zip(profile.distances, profile.envelopes)],
    )


def write_fit_csv(path, fit: DecayFit) -> None:
    write_rows(
        path,
        ["amplitude", "rate", "scale", "r_squared", "slope", "no_decay"],
        [(fmt(fit.amplitude), fmt(fit.rate), fmt(fit.scale), fmt(fit.r_squared), fmt(fit.slope), int(fit.no_decay))],
    )


def write_report_csv(path, report: RegressionReport) -> None:
    write_rows(
        path,
        ["method", "target", "k", "mean_mse", "std_mse"],
        [(r.method, r.target, r.k_neighbors, fmt(r.mean_mse), fmt(r.std_mse)) for r in report.rows],
    )


def write_pairs_csv(path, pairs: Iterable[tuple[float, float]], header: Sequence[str]) -> None:
    write_rows(path, header, [(fmt(a), fmt(b)) for a, b in pairs])


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Dense matrix dump for debugging; one row per line, no header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([fmt(x) for x in row])


# --- manifests ------------------------------------------------------------------

def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(output_path, subcommand: str, flags: dict, inputs: Sequence, version: str) -> None:
    """Write ``<output>.manifest.json`` next to an output file."""
    manifest = {
        "tool": "graphsplines",
        "version": version,
        "subcommand": subcommand,
        "flags": {k: v for k, v in sorted(flags.items())},
        "inputs": {str(p): file_digest(p) for p in inputs},
    }
    path = Path(str(output_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
