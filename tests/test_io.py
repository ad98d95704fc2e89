import csv
import warnings

import numpy as np
import pytest

from graphsplines import build_graph
from graphsplines import io as gio
from graphsplines.diagnostics import DecayProfile
from graphsplines.errors import NonNumericColumn


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
