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
import warnings
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


def _write_numeric(path, header: Sequence[str] | None, lines: list[str]) -> None:
    """Write a header (none for ``None``) and rows formatted as ``"a,b,...\\r\\n"`` lines in one call.

    The bytes are those :func:`write_rows` gives: numbers and the plain-word
    headers of the writers below hold no delimiter, quote or line break, so
    :mod:`csv` would quote none of them.
    """
    head = "" if header is None else ",".join(header) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(head + "".join(lines))


def read_table(path, header: bool | Sequence[str] = True, vertex_columns: int = 0) -> tuple[list[str], np.ndarray]:
    """The one reader of input files: column names and a float array of a numeric CSV/TSV file.

    The file is read as UTF-8, and a byte-order mark at its start, as
    spreadsheet programs write, is dropped. Blank lines (nothing but whitespace
    and delimiters) are skipped. The first other line sets the delimiter, a tab
    when it holds one, else a comma.
    ``header`` is True when that line names the columns, False when there is
    none (columns ``col0, col1, ...``), or the names it must hold. Every row
    must be as wide as that line and every cell finite: a missing token
    (``""``, ``NA``, ``nan``, ...) raises :class:`MissingValue`, any other bad
    cell :class:`NonNumericColumn`, as does a cell of the first
    ``vertex_columns`` columns that is not an integer below 2**53 in size.
    Messages name the file, the row by its line in the file, and the column.

    The header line is split with :mod:`csv`; the rows after it are parsed in
    one C pass (``np.loadtxt``). Only when that pass fails or its result breaks
    a rule above are the rows walked with :mod:`csv` and ``float``: that walk
    alone reads irregular but valid files (lines of only delimiters or
    whitespace among the rows, numbers that ``float`` takes and ``loadtxt``
    refuses) and words the messages.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    first = next((i for i, line in enumerate(lines) if not _is_blank(line)), None)
    if first is None:
        raise TooFewRows(f"{path} is empty")
    delimiter = "\t" if "\t" in lines[first] else ","
    reader = csv.reader(lines[first:], delimiter=delimiter)
    top = next(reader)
    if header is False:
        names, body = [f"col{j}" for j in range(len(top))], first
    else:
        names, body = [cell.strip() for cell in top], first + reader.line_num
        if header is not True and names != list(header):
            raise ValidationError(f"{path}: expected header {','.join(header)}, got {','.join(names)}")
    data = _parse_rows(lines[body:], delimiter, len(names))
    if data is None or not _are_numbers(data, vertex_columns):
        data = _walk_rows(path, names, lines, body, delimiter, vertex_columns)
    return names, data


def _is_blank(line: str) -> bool:
    """Nothing but whitespace and delimiters, the line's delimiter being a tab when it holds one."""
    row = next(csv.reader([line], delimiter="\t" if "\t" in line else ","), [])
    return not "".join(row).strip()


def _parse_rows(lines: list[str], delimiter: str, width: int) -> np.ndarray | None:
    """The rows parsed in one C pass, or None when ``loadtxt`` fails, warns or finds a wrong width."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a file with no data rows warns
        try:
            data = np.loadtxt(lines, delimiter=delimiter, comments=None, quotechar='"', ndmin=2, dtype=float)
        except (ValueError, Warning):
            return None
    return data if data.shape[1] == width else None


def _are_numbers(data: np.ndarray, vertex_columns: int) -> bool:
    """Every value finite, and every value of the first ``vertex_columns`` columns a vertex id."""
    return bool(np.isfinite(data).all()) and _are_vertex_ids(data[:, :vertex_columns])


def _walk_rows(path, names: list[str], lines: list[str], body: int, delimiter: str, vertex_columns: int) -> np.ndarray:
    """The rows from ``lines[body]`` on, split with :mod:`csv`; raises for the first row or cell that is refused."""
    reader = csv.reader(lines[body:], delimiter=delimiter)
    numbers, rows = [], []
    for row in reader:
        if "".join(row).strip():
            numbers.append(body + reader.line_num)
            rows.append(row)
    for line, row in zip(numbers, rows):
        if len(row) != len(names):
            raise ValidationError(f"{path}: row {line} has {len(row)} cells, expected {len(names)}")
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    except ValueError:
        data = None
    if data is None or not _are_numbers(data, vertex_columns):
        _reject_first_bad_cell(path, names, numbers, rows, vertex_columns)
    return data


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
    lines = [f"{u},{v},{w:.17g},{ell:.17g}\r\n" for u, v, w, ell in g.edges]
    _write_numeric(path, ["u", "v", "weight", "length"], lines)


def read_edge_csv(path) -> WeightedGraph:
    return build_graph(read_table(path, ["u", "v", "weight", "length"], vertex_columns=2)[1])


def read_points_csv(path, header: bool = True) -> np.ndarray:
    """Point cloud: one row per point, numeric columns only."""
    return read_table(path, header)[1]


# --- vertex functions and node sets --------------------------------------------

def write_function_csv(path, values: np.ndarray) -> None:
    lines = [f"{i},{v:.17g}\r\n" for i, v in enumerate(np.asarray(values, dtype=float).tolist())]
    _write_numeric(path, ["vertex", "value"], lines)


def read_function_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (vertices, values); the file may cover only a subset of vertices."""
    data = read_table(path, ["vertex", "value"], vertex_columns=1)[1]
    return data[:, 0].astype(int), data[:, 1]


def write_nodes_csv(path, nodes) -> None:
    _write_numeric(path, ["vertex"], [f"{v}\r\n" for v in np.asarray(nodes, dtype=np.int64).tolist()])


def read_nodes_csv(path) -> np.ndarray:
    return read_table(path, ["vertex"], vertex_columns=1)[1][:, 0].astype(int)


# --- interpolants, profiles, reports -------------------------------------------

def write_interpolant_csv(path, interpolant: Interpolant) -> None:
    nodes = np.asarray(interpolant.nodes, dtype=np.int64).tolist()
    lines = [f"{v},{b:.17g}\r\n" for v, b in zip(nodes, np.asarray(interpolant.coefficients, dtype=float).tolist())]
    _write_numeric(path, ["node", "beta"], lines + [f"constant,{float(interpolant.constant):.17g}\r\n"])


def write_profile_csv(path, profile: DecayProfile) -> None:
    pairs = np.column_stack([profile.distances, profile.envelopes]).astype(float).tolist()
    _write_numeric(path, ["distance", "envelope"], [f"{d:.17g},{e:.17g}\r\n" for d, e in pairs])


def write_fit_csv(path, fit: DecayFit) -> None:
    numbers = ",".join(fmt(x) for x in (fit.amplitude, fit.rate, fit.scale, fit.r_squared, fit.slope))
    header = ["amplitude", "rate", "scale", "r_squared", "slope", "no_decay"]
    _write_numeric(path, header, [f"{numbers},{int(fit.no_decay)}\r\n"])


def write_report_csv(path, report: RegressionReport) -> None:
    write_rows(
        path,
        ["method", "target", "k", "mean_mse", "std_mse"],
        [(r.method, r.target, r.k_neighbors, fmt(r.mean_mse), fmt(r.std_mse)) for r in report.rows],
    )


def write_pairs_csv(path, pairs: Iterable[tuple[float, float]], header: Sequence[str]) -> None:
    """Two numeric columns under ``header``, whose names must need no CSV quoting."""
    values = np.asarray(list(pairs), dtype=float).reshape(-1, 2).tolist()
    _write_numeric(path, header, [f"{a:.17g},{b:.17g}\r\n" for a, b in values])


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Dense matrix dump for debugging; one row per line, no header."""
    rows = np.asarray(matrix, dtype=float).tolist()
    _write_numeric(path, None, [",".join([f"{x:.17g}" for x in row]) + "\r\n" for row in rows])


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
