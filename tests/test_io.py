import ast
import csv
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsplines import build_graph
from graphsplines import io as gio
from graphsplines.diagnostics import DecayProfile
from graphsplines.errors import MissingValue, NonNumericColumn, ValidationError


def test_vertex_columns_take_integer_valued_floats(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("u,v,weight,length\n0,1.0,1,1\n1,2,1,1\n2.0,0,1,1\n")
    assert gio.read_edge_csv(path).edges == ((0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0), (1, 2, 1.0, 1.0))


@pytest.mark.parametrize("token", ["2.5", "1e20"])
def test_vertex_column_rejects_what_is_no_vertex_id(tmp_path, token):
    path = tmp_path / "nodes.csv"
    path.write_text(f"vertex\n0\n{token}\n")
    with pytest.raises(NonNumericColumn, match=r"nodes.csv: row 3, column 'vertex'"):
        gio.read_nodes_csv(path)


def test_delimiter_comes_from_the_header_line_after_a_blank_line(tmp_path):
    tabbed, plain = tmp_path / "tabbed.csv", tmp_path / "plain.csv"
    rows = ["u,v,weight,length", "0,1,1,1", "1,2,1,1", "0,2,1,1"]
    tabbed.write_text("\n \n" + "\n".join(row.replace(",", "\t") for row in rows) + "\n")
    plain.write_text("\n".join(rows) + "\n")
    assert gio.read_edge_csv(tabbed).edges == gio.read_edge_csv(plain).edges


def _reference_table(path, header):
    """What read_table must return, by the plainest route: csv cells, float() per cell."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    delimiter = "\t" if "\t" in next(line for line in lines if line.replace(",", "").strip()) else ","
    rows = [row for row in csv.reader(lines, delimiter=delimiter) if "".join(row).strip()]
    names = [cell.strip() for cell in rows.pop(0)] if header else [f"col{j}" for j in range(len(rows[0]))]
    return names, np.array([[float(cell) for cell in row] for row in rows]).reshape(len(rows), len(names))


_VALUES = [
    ["0.1", "-0.0", "4.9406564584124654e-324"],
    ["2.2250738585072009e-308", "1.7976931348623157e308", "0.30000000000000004"],
    ["-123456789.01234567", "7", "1e-5"],
]


def _layout(delimiter=",", newline="\n", quote=False, filler=(), header=True, values=_VALUES):
    cell = (lambda x: f'"{x}"') if quote else str
    lines = [delimiter.join(f"c{j}" for j in range(len(values[0])))] if header else []
    for row in values:
        lines.append(delimiter.join(cell(x) for x in row))
        lines.extend(filler)
    return newline.join(lines) + newline


_LAYOUTS = {
    "comma": {},
    "tab": {"delimiter": "\t"},
    "crlf": {"newline": "\r\n"},
    "tab crlf": {"delimiter": "\t", "newline": "\r\n"},
    "quoted": {"quote": True},
    "blank lines": {"filler": [""]},
    "delimiter-only lines": {"filler": [",,"]},
    "tab delimiter-only lines": {"delimiter": "\t", "filler": ["\t\t"]},
    "whitespace-only lines": {"filler": ["   "]},
    "mixed filler crlf": {"newline": "\r\n", "filler": ["", " \t", ",,,"]},
    "one row": {"values": _VALUES[:1]},
    "digits with underscores": {"values": [["1_000", "2", "-0.000_5"]]},
    "one column": {"values": [[row[0]] for row in _VALUES]},
    "one column, blank lines": {"values": [[row[1]] for row in _VALUES], "filler": ["", "  "]},
    "no header": {"header": False},
    "no header, tab, one row": {"header": False, "delimiter": "\t", "values": _VALUES[1:2]},
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_read_table_matches_the_csv_and_float_reference(tmp_path, layout):
    options = _LAYOUTS[layout]
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_layout(**options))
    header = options.get("header", True)
    names, data = gio.read_table(path, header)
    want_names, want = _reference_table(path, header)
    assert names == want_names
    assert data.dtype == want.dtype and data.shape == want.shape
    assert data.tobytes() == want.tobytes()  # bit-identical, the sign of -0.0 included


def test_header_only_file_gives_no_rows_and_no_warning(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        names, data = gio.read_table(path)
    assert names == ["a", "b", "c"]
    assert data.dtype == np.float64 and data.shape == (0, 3)


def test_a_well_formed_table_is_not_walked_cell_by_cell(tmp_path, monkeypatch):
    def walk(*args):
        raise AssertionError("csv walk on a well-formed table")

    monkeypatch.setattr(gio, "_walk_rows", walk)
    path = tmp_path / "t.csv"
    path.write_text(_layout(newline="\r\n", quote=True, filler=[""]))
    assert gio.read_table(path)[1].shape == (3, 3)


_FAULTS = ["short", "long", "", "NA", "abc", "inf", "2.5 in a vertex column", "1e20 in a vertex column"]


@st.composite
def _faulty_tables(draw):
    """``(vertex_columns, lines)``: a header line, then 1-6 rows of 1-4 columns, the first ``vertex_columns``
    holding vertex ids, with blank filler lines among them and 0-3 faults put into the rows."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    vertex_columns = draw(st.integers(0, min(2, width)))
    ids = st.integers(-(2**53) + 1, 2**53 - 1).map(str)
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cells = [ids] * vertex_columns + [numbers] * (width - vertex_columns)
    rows = [[draw(cell) for cell in cells] for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(_FAULTS if vertex_columns else _FAULTS[:6]))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        elif fault.endswith("vertex column"):
            row[draw(st.integers(0, vertex_columns - 1))] = fault.split()[0]
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = fault
    lines = [delimiter.join(f"c{j}" for j in range(width))]
    for row in rows:
        lines.append(delimiter.join(row))
        lines += draw(st.lists(st.sampled_from(["", "   ", delimiter * 2]), max_size=1))
    return vertex_columns, lines


def _read_in_order(lines, vertex_columns):
    """What ``read_table`` must make of ``lines`` by a plain walk in file order: ``(class, line, column)`` of the
    first row or cell refused (column None for a row of the wrong width), else the float-per-cell array."""
    delimiter = "\t" if "\t" in lines[0] else ","
    names = [cell.strip() for cell in lines[0].split(delimiter)]
    rows = []
    for line, text in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in text.split(delimiter)]
        if not "".join(cells):
            continue
        if len(cells) != len(names):
            return ValidationError, line, None
        for j, cell in enumerate(cells):
            if cell.lower() in ("", "na", "nan"):
                return MissingValue, line, names[j]
            try:
                x = float(cell)
            except ValueError:
                return NonNumericColumn, line, names[j]
            if not math.isfinite(x) or (j < vertex_columns and (x % 1 or abs(x) >= 2**53)):
                return NonNumericColumn, line, names[j]
        rows.append([float(cell) for cell in cells])
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


@given(_faulty_tables())
@example((2, ["u,v,weight,length", "0,1,1,1", "1,2,abc,1", "2,0,1"]))  # a bad cell before a short row
@settings(max_examples=150, deadline=None, derandomize=True)
def test_read_table_refuses_the_first_fault_in_file_order(tmp_path_factory, table):
    vertex_columns, lines = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    want = _read_in_order(lines, vertex_columns)
    if isinstance(want, np.ndarray):
        names, data = gio.read_table(path, vertex_columns=vertex_columns)
        assert names == [f"c{j}" for j in range(want.shape[1])]
        assert data.shape == want.shape and data.tobytes() == want.tobytes()
        return
    error, line, column = want
    with pytest.raises(ValidationError) as raised:
        gio.read_table(path, vertex_columns=vertex_columns)
    assert type(raised.value) is error
    where = f"row {line} has " if column is None else f"row {line}, column {column!r}: "
    assert str(raised.value).startswith(f"{path}: {where}")


def _csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


_AWKWARD = np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3])


def test_numeric_writers_give_the_bytes_of_the_csv_module(tmp_path):
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    fmt = gio.fmt

    gio.write_function_csv(out, _AWKWARD)
    assert out.read_bytes() == _csv_reference(ref, ["vertex", "value"], [(i, fmt(v)) for i, v in enumerate(_AWKWARD)])

    gio.write_profile_csv(out, DecayProfile(0, _AWKWARD, _AWKWARD[::-1]))
    expected = _csv_reference(ref, ["distance", "envelope"], [(fmt(d), fmt(e)) for d, e in zip(_AWKWARD, _AWKWARD[::-1])])
    assert out.read_bytes() == expected

    pairs = list(zip(_AWKWARD, _AWKWARD[::-1].tolist()))
    gio.write_pairs_csv(out, pairs, ["seminorm", "error"])
    assert out.read_bytes() == _csv_reference(ref, ["seminorm", "error"], [(fmt(a), fmt(b)) for a, b in pairs])

    gio.write_nodes_csv(out, np.array([0, 3, 17]))
    assert out.read_bytes() == _csv_reference(ref, ["vertex"], [(0,), (3,), (17,)])

    g = build_graph([(0, 1, 5e-324, 1e308), (1, 2, 0.1, 1 / 3), (2, 0, 1e-300, 0.1)])
    gio.write_edge_csv(out, g)
    expected = _csv_reference(ref, ["u", "v", "weight", "length"], [(u, v, fmt(w), fmt(ell)) for u, v, w, ell in g.edges])
    assert out.read_bytes() == expected


def test_matrix_coefficient_and_fit_writers_give_the_bytes_of_the_csv_module(tmp_path):
    # negative, tiny, huge and integer-valued floats, and the interpolant's constant row
    from graphsplines.diagnostics import DecayFit
    from graphsplines.interpolation import Interpolant

    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    fmt = gio.fmt
    values = np.array([-2.5, -0.0, 5e-324, -1e-300, 1e308, -1.7976931348623157e308, 3.0, -7.0, 0.1, 1 / 3])

    matrix = values.reshape(2, 5)
    gio.write_matrix_csv(out, matrix)
    with open(ref, "w", newline="") as fh:
        csv.writer(fh).writerows([[fmt(x) for x in row] for row in matrix])
    assert out.read_bytes() == ref.read_bytes()

    nodes = np.arange(0, 40, 4)
    gio.write_interpolant_csv(out, Interpolant(-4.0, values, 2.0, nodes))
    rows = [(int(v), fmt(b)) for v, b in zip(nodes, values)] + [("constant", fmt(-4.0))]
    assert out.read_bytes() == _csv_reference(ref, ["node", "beta"], rows)

    for fit in (DecayFit(1e308, 0.5, 2.0, -1e-300, -3.0, False), DecayFit(5e-324, 1.25, 1.0, 1.0, 0.1, True)):
        gio.write_fit_csv(out, fit)
        numbers = (fit.amplitude, fit.rate, fit.scale, fit.r_squared, fit.slope)
        header = ["amplitude", "rate", "scale", "r_squared", "slope", "no_decay"]
        assert out.read_bytes() == _csv_reference(ref, header, [(*map(fmt, numbers), int(fit.no_decay))])


def test_empty_numeric_files_hold_only_their_header(tmp_path):
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    gio.write_nodes_csv(out, [])
    assert out.read_bytes() == _csv_reference(ref, ["vertex"], [])
    gio.write_pairs_csv(out, [], ["seminorm", "error"])
    assert out.read_bytes() == _csv_reference(ref, ["seminorm", "error"], [])


def test_a_rerun_rewrites_its_outputs_in_place_without_a_truncating_open(tmp_path, monkeypatch):
    from graphsplines import cli

    gio.write_edge_csv(tmp_path / "g.csv", build_graph([(i, (i + 1) % 16, 1.0, 1.0) for i in range(16)]))
    gio.write_nodes_csv(tmp_path / "nodes.csv", range(0, 16, 4))
    out = tmp_path / "chi.csv"
    argv = ["lagrange", "--graph", str(tmp_path / "g.csv"), "--nodes", str(tmp_path / "nodes.csv"), "--center", "4",
            "--truncate", "6", "--alpha", "1.5", "-o", str(out)]
    assert cli.main(argv) == 0
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(gio, "open", spy, raising=False)
    assert cli.main(argv) == 0
    writes = {(file, mode) for file, mode in opened if set(mode) & set("wax+")}
    assert writes == {(str(out), "r+b"), (str(out) + ".manifest.json", "r+b")}


def test_a_shorter_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path):
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    gio.write_function_csv(out, np.linspace(0, 1, 100))
    out.chmod(0o640)
    inode = out.stat().st_ino
    gio.write_function_csv(out, _AWKWARD)
    gio.write_function_csv(fresh, _AWKWARD)
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode and out.stat().st_mode & 0o777 == 0o640


def test_a_symlinked_output_writes_through_to_its_target(tmp_path):
    from graphsplines import cli

    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old,and,much,longer,content\n" * 20)
    link.symlink_to(target)
    assert cli.main(["graph", "cycle", "--n", "4", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert gio.read_edge_csv(target).edges == ((0, 1, 1.0, 1.0), (0, 3, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0))


def test_an_output_that_is_no_regular_file_is_written_without_truncation():
    gio.write_function_csv(os.devnull, _AWKWARD)


def test_a_file_that_may_be_written_but_not_read_is_rewritten_whole(tmp_path, monkeypatch):
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    gio.write_function_csv(out, np.linspace(0, 1, 100))

    def write_only(file, mode="r", *args, **kwargs):
        if "r" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(gio, "open", write_only, raising=False)
    gio.write_function_csv(out, _AWKWARD)
    monkeypatch.undo()
    gio.write_function_csv(fresh, _AWKWARD)
    assert out.read_bytes() == fresh.read_bytes()


def test_text_rows_and_manifests_give_the_bytes_of_the_csv_and_json_modules(tmp_path):
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    header = ["method", "target"]
    rows = [("spline", "a,b"), ("nnr", 'say "y"'), ("spline", "two\nlines"), ("spline", "\u00e9t\u00e9")]
    gio.write_rows(out, header, rows)
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert out.read_bytes() == ref.read_bytes()

    flags = {"output": tmp_path / "out.csv", "alpha": 1.5, "center": 3, "local": False}
    gio.write_manifest(out, "lagrange", flags, [ref], "9.9")
    manifest = {
        "tool": "graphsplines",
        "version": "9.9",
        "subcommand": "lagrange",
        "flags": flags,
        "inputs": {str(ref): hashlib.sha256(ref.read_bytes()).hexdigest()},
    }
    expected = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    assert (tmp_path / "out.csv.manifest.json").read_bytes() == expected.encode()


def _writes(tree):
    """Line numbers of the calls in ``tree`` that can write a file: ``write_text``, ``write_bytes`` and every
    ``open`` whose mode is given and is not a literal read-only mode (the second argument of ``open(path, mode)``,
    the first of ``path.open(mode)``; ``os.open(path, flags)`` counts as a write)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            yield node.lineno
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                yield node.lineno


def test_the_package_writes_files_only_through_its_one_writer():
    found, allowed = [], set()
    for source in sorted(Path(gio.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if source.name == "io.py":
            writer = [node for node in tree.body if getattr(node, "name", None) == "_write_bytes"]
            allowed = {line for node in writer for line in _writes(node)}
        found += [f"{source.name}:{line}" for line in _writes(tree) if source.name != "io.py" or line not in allowed]
    assert found == []
    assert allowed, "io._write_bytes opens no file for writing"
