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
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import DecayFit, DecayProfile
from .errors import ValidationError
from .graphs import WeightedGraph, build_graph
from .interpolation import Interpolant
from .ml import RegressionReport


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic CSV writer; numeric cells must already be formatted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, expected_header: Sequence[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path} is empty")
    header = [c.strip() for c in rows[0]]
    if header != list(expected_header):
        raise ValidationError(f"{path}: expected header {','.join(expected_header)}, got {','.join(header)}")
    body = [(i, r) for i, r in enumerate(rows[1:], start=2) if any(cell.strip() for cell in r)]
    for i, r in body:
        if len(r) != len(header):
            raise ValidationError(f"{path}: row {i} has {len(r)} cells, expected {len(header)}")
    return [r for _, r in body]


# --- graphs -------------------------------------------------------------------

def write_edge_csv(path, g: WeightedGraph) -> None:
    write_rows(path, ["u", "v", "weight", "length"], [(u, v, fmt(w), fmt(ell)) for u, v, w, ell in g.edges])


def read_edge_csv(path) -> WeightedGraph:
    rows = _read_rows(path, ["u", "v", "weight", "length"])
    edges = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]
    return build_graph(edges)


def read_points_csv(path, header: bool = True) -> np.ndarray:
    """Point cloud: one row per point, numeric columns only."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(cell.strip() for cell in r)]
    if header:
        rows = rows[1:]
    if not rows:
        raise ValidationError(f"{path} has no data rows")
    try:
        return np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from None


# --- vertex functions and node sets --------------------------------------------

def write_function_csv(path, values: np.ndarray) -> None:
    write_rows(path, ["vertex", "value"], [(i, fmt(v)) for i, v in enumerate(values)])


def read_function_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (vertices, values); the file may cover only a subset of vertices."""
    rows = _read_rows(path, ["vertex", "value"])
    vertices = np.array([int(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    return vertices, values


def write_nodes_csv(path, nodes) -> None:
    write_rows(path, ["vertex"], [(int(v),) for v in nodes])


def read_nodes_csv(path) -> np.ndarray:
    rows = _read_rows(path, ["vertex"])
    return np.array([int(r[0]) for r in rows])


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
