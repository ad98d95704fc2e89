import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphsplines import (
    build_graph,
    cli,
    cycle_graph,
    decompose_graph,
    interpolation,
    knn_graph,
    truncated_lagrange,
)
from graphsplines import io as gio
from longdouble import extended, longdouble_solve
from test_interpolation import bordered_oracle


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def cycle_csv(tmp_path):
    out = tmp_path / "cycle.csv"
    assert run("graph", "cycle", "--n", 4, "-o", out) == 0
    return out


class TestGraphCommands:
    def test_cycle_writes_four_edges(self, cycle_csv):
        g = gio.read_edge_csv(cycle_csv)
        assert g.n_vertices == 4
        assert len(g.edges) == 4

    def test_lattice(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run("graph", "lattice", "--rows", 2, "--cols", 3, "-o", out) == 0
        assert gio.read_edge_csv(out).n_vertices == 6

    def test_knn_from_points(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0,0\n1,0\n3,0\n")
        out = tmp_path / "knn.csv"
        assert run("graph", "knn", "--points", pts, "--k", 1, "-o", out) == 0
        g = gio.read_edge_csv(out)
        assert len(g.edges) == 2

    # SHA-256 of the edge CSV that `graph knn --k 6` wrote for these clouds before knn_graph
    # kept only the k + 1 nearest distances of each row; the lattice has exact distance ties
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cloud", "e69ecf030754593ca8f5de5eea5312c224c0d56f9a0cbb753a9c9b860d318cf0"),
            ("lattice", "3c0a71cbcb19b7f662b15173c0908c72ae4669887a70948007e6403ca19c30cf"),
        ],
    )
    def test_knn_edge_bytes_are_pinned(self, tmp_path, name, digest):
        if name == "cloud":
            points = np.random.default_rng(400).random((400, 2))
        else:
            points = np.column_stack(np.divmod(np.arange(400), 20))
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        out = tmp_path / "knn.csv"
        assert run("graph", "knn", "--points", pts, "--k", 6, "-o", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_outputs_are_reproducible(self, tmp_path, cycle_csv):
        again = tmp_path / "again.csv"
        run("graph", "cycle", "--n", 4, "-o", again)
        assert again.read_bytes() == cycle_csv.read_bytes()

    def test_manifest_written(self, cycle_csv):
        manifest = json.loads((cycle_csv.parent / "cycle.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "graph cycle"
        assert manifest["flags"]["n"] == 4
        assert manifest["tool"] == "graphsplines"


class TestLagrangeCommand:
    def test_all_nodes_gives_unit_vector(self, tmp_path, cycle_csv):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, range(4))
        out = tmp_path / "chi.csv"
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--alpha", 2, "-o", out) == 0
        _, values = gio.read_function_csv(out)
        assert np.allclose(values, [1, 0, 0, 0], atol=1e-9)

    def test_local_and_truncate_variants(self, tmp_path, cycle_csv):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 2])
        for extra in (["--local", "--radius", 4], ["--truncate", 4]):
            out = tmp_path / "out.csv"
            assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, *extra, "-o", out) == 0
            _, values = gio.read_function_csv(out)
            # radius covers the whole 4-cycle, so both match the full function
            assert np.allclose(values, [1.0, 0.5, 0.0, 0.5], atol=1e-9)

    def test_out_of_range_node_is_two(self, tmp_path, cycle_csv):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 4])
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--truncate", 4, "-o", tmp_path / "x.csv") == 2

    def test_local_requires_radius(self, tmp_path, cycle_csv):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 2])
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--local", "-o", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("mode", [(), ("--truncate", 4)])
    def test_radius_without_local_is_two(self, tmp_path, cycle_csv, capsys, mode):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 2])
        out = tmp_path / "x.csv"
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--radius", 4, *mode, "-o", out) == 2
        assert "--radius requires --local" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [(), ("--local", "--radius", 4)])
    def test_no_reproject_without_truncate_is_two(self, tmp_path, cycle_csv, capsys, mode):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 2])
        out = tmp_path / "x.csv"
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--no-reproject", *mode, "-o", out) == 2
        assert "--no-reproject requires --truncate" in capsys.readouterr().err
        assert not out.exists()

    def test_center_outside_node_set_is_two(self, tmp_path, cycle_csv, capsys):
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0, 2])
        out = tmp_path / "x.csv"
        assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 1, "-o", out) == 2
        assert "not in the node set" in capsys.readouterr().err
        assert not out.exists()


class TestInterpAndDecay:
    def test_interp_symmetry_values(self, tmp_path, cycle_csv):
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n2,0\n")
        out = tmp_path / "pred.csv"
        assert run("interp", "--graph", cycle_csv, "--known", known, "--alpha", 2, "-o", out) == 0
        _, values = gio.read_function_csv(out)
        assert np.allclose(values, [1.0, 0.5, 0.0, 0.5], atol=1e-9)

    def test_interp_coefficient_and_kernel_dumps(self, tmp_path, cycle_csv):
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n2,1\n")
        coeffs = tmp_path / "coeffs.csv"
        assert run("interp", "--graph", cycle_csv, "--known", known,
                   "--coefficients", coeffs, "-o", tmp_path / "pred.csv") == 0
        lines = coeffs.read_text().splitlines()
        assert lines[0] == "node,beta"
        assert lines[-1].startswith("constant,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(2.0)  # constant data on the 4-cycle

    @pytest.mark.parametrize("command", ["lagrange", "interp"])
    def test_kernel_dump_flag_is_a_usage_error(self, tmp_path, cycle_csv, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text("vertex,value\n0,1\n2,0\n")
        given = ["--nodes", data, "--center", 0] if command == "lagrange" else ["--known", data]
        before = sorted(tmp_path.iterdir())
        assert run(command, "--graph", cycle_csv, *given, "--dump-kernel", tmp_path / "k.csv", "-o", tmp_path / "o.csv") == 1
        assert "unrecognized arguments: --dump-kernel" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before  # no output, kernel or manifest

    def test_decay_profile_and_fit(self, tmp_path):
        g_csv = tmp_path / "g.csv"
        run("graph", "cycle", "--n", 32, "-o", g_csv)
        fn = tmp_path / "f.csv"
        g = gio.read_edge_csv(g_csv)
        gio.write_function_csv(fn, np.exp(-0.3 * g.distances_from(0)))
        out = tmp_path / "prof.csv"
        assert run("decay", "--graph", g_csv, "--function", fn, "--center", 0, "--fit", "-o", out) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "distance,envelope"
        assert len(rows) == 18  # bins 0..16 plus header
        fit = (tmp_path / "prof.csv.fit.csv").read_text().splitlines()
        slope = float(fit[1].split(",")[4])
        assert slope == pytest.approx(-0.3, abs=1e-9)

    def test_function_must_cover_graph(self, tmp_path, cycle_csv):
        fn = tmp_path / "partial.csv"
        fn.write_text("vertex,value\n0,1\n")
        assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", 0, "-o", tmp_path / "p.csv") == 2


class TestVerifyCommands:
    def test_zeros_lemma_passes(self, capsys):
        assert run("verify", "zeros-lemma", "--trials", 4, "--seed", 3) == 0
        assert "PASS" in capsys.readouterr().out

    def test_min_norm_passes(self):
        assert run("verify", "min-norm", "--trials", 3, "--seed", 1) == 0

    def test_coeff_symmetry_passes(self):
        assert run("verify", "coeff-symmetry", "--trials", 3, "--seed", 2) == 0

    def test_bulk_ratio_passes(self, tmp_path):
        out = tmp_path / "bulk.csv"
        assert run("verify", "bulk-ratio", "--trials", 4, "-o", out) == 0
        assert out.read_text().startswith("r2,r3,ratio")

    def test_cover_constant_passes(self):
        assert run("verify", "cover-constant", "--trials", 3, "--seed", 4) == 0

    def test_failure_exits_four(self, monkeypatch, capsys):
        def failing(trials, seed):
            return False, ["synthetic check"], ["x"], [(1,)]

        monkeypatch.setitem(cli.SUITES, "zeros-lemma", failing)
        assert run("verify", "zeros-lemma") == 4
        assert "FAIL" in capsys.readouterr().out


class TestMLCommands:
    def test_cv_report(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "d.csv"
        lines = ["a,b,y"]
        X = rng.normal(size=(30, 2))
        for row in X:
            lines.append(f"{row[0]},{row[1]},{row[0] - row[1]}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        code = run("ml", "cv", "--data", data, "--features", "a,b", "--targets", "y",
                   "--k", 4, "--folds", 3, "--repeats", 2, "--seed", 9, "-o", out)
        assert code == 0
        body = out.read_text().splitlines()
        assert body[0] == "method,target,k,mean_mse,std_mse"
        assert len(body) == 3  # spline + nnr for one target

    def test_cv_notes_the_baseline_fallbacks(self, tmp_path, capsys):
        # k = 2 with two folds leaves some held-out rows without a known neighbour
        from graphsplines import CVConfig, cross_validate, load_dataset

        X = np.random.default_rng(13).normal(size=(60, 3))
        data = tmp_path / "d.csv"
        rows = np.column_stack([X, X @ [1.0, -1.0, 0.5]]).tolist()
        data.write_text("a,b,c,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        out = tmp_path / "report.csv"
        capsys.readouterr()
        assert run("ml", "cv", "--data", data, "--features", "a,b,c", "--targets", "y",
                   "--k", 2, "--folds", 2, "--repeats", 3, "--seed", 13, "-o", out) == 0
        cfg = CVConfig(k_neighbors=2, folds=2, repeats=3, seed=13)
        report = cross_validate(load_dataset(data, list("abc"), ["y"]), cfg)
        assert report.nnr_fallbacks > 0
        note = f"note: {report.nnr_fallbacks} unknown vertices had no known neighbor (global-mean fallback)\n"
        assert capsys.readouterr().out == note

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--features", "a,nope"), "unknown column 'nope'"),
            (("--features", "a,3"), "column index 3 out of range"),
            (("--folds", 1), "at least 2 folds"),
            (("--repeats", 0), "at least 1 repeat"),
            (("--k", 0), "k_neighbors >= 1"),
        ],
    )
    def test_cv_refusals_are_two(self, tmp_path, capsys, flags, message):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        data.write_text("a,b,y\n" + "".join(f"{a},{b},{a - b}\n" for a, b in rng.normal(size=(30, 2))))
        defaults = {"--features": "a,b", "--k": 4, "--folds": 3, "--repeats": 2}
        defaults[flags[0]] = flags[1]
        out = tmp_path / "report.csv"
        argv = [x for item in defaults.items() for x in item]
        assert run("ml", "cv", "--data", data, "--targets", "y", *argv, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_smoothness_pairs(self, tmp_path):
        out = tmp_path / "sm.csv"
        assert run("experiment", "smoothness", "--n", 60, "--magnitudes", "1,2", "--k", 6, "--seed", 2, "-o", out) == 0
        body = out.read_text().splitlines()
        assert body[0] == "seminorm,error"
        assert len(body) == 3


def test_same_inputs_give_byte_identical_outputs_and_manifests(tmp_path, cycle_csv):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    known = tmp_path / "known.csv"
    known.write_text("vertex,value\n0,1\n2,0\n")
    rng = np.random.default_rng(0)
    data = tmp_path / "d.csv"
    data.write_text("a,b,y\n" + "".join(f"{a},{b},{a - b}\n" for a, b in rng.normal(size=(30, 2))))
    runs = {
        "chi.csv": ("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--truncate", 4),
        "values.csv": ("interp", "--graph", cycle_csv, "--known", known, "--alpha", 2),
        "report.csv": ("ml", "cv", "--data", data, "--features", "a,b", "--targets", "y",
                       "--k", 4, "--folds", 3, "--repeats", 2, "--seed", 9),
    }
    for name, argv in runs.items():
        out = tmp_path / name
        manifest = tmp_path / f"{name}.manifest.json"
        assert run(*argv, "-o", out) == 0
        first = out.read_bytes(), manifest.read_bytes()
        assert run(*argv, "-o", out) == 0
        assert (out.read_bytes(), manifest.read_bytes()) == first


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run("graph", "cycle") == 1
        assert run("nonsense") == 1

    def test_validation_error_is_two(self, tmp_path):
        assert run("graph", "cycle", "--n", 2, "-o", tmp_path / "x.csv") == 2

    def test_missing_file_is_two(self, tmp_path):
        assert run("interp", "--graph", tmp_path / "missing.csv", "--known", tmp_path / "k.csv", "-o", tmp_path / "o.csv") == 2

    def test_numerical_failure_is_three(self, tmp_path):
        # one node on cycle-64 at alpha = 8: (L^8)_UU has rcond about 5e-20 and is refused
        g_csv = tmp_path / "g.csv"
        run("graph", "cycle", "--n", 64, "-o", g_csv)
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, [0])
        out = tmp_path / "x.csv"
        assert run("lagrange", "--graph", g_csv, "--nodes", nodes, "--center", 0, "--alpha", 8, "-o", out) == 3
        # every vertex a node: nothing to solve, and the function is e_center
        gio.write_nodes_csv(nodes, range(64))
        assert run("lagrange", "--graph", g_csv, "--nodes", nodes, "--center", 5, "--alpha", 8, "-o", out) == 0
        assert np.array_equal(gio.read_function_csv(out)[1], np.eye(64)[5])

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("dsysv failed"), MemoryError()])
    def test_lapack_and_memory_failures_are_three(self, monkeypatch, tmp_path, cycle_csv, capsys, error):
        def failing(A, rhs):
            raise error

        monkeypatch.setattr(interpolation, "_solve_symmetric", failing)  # the one solve of every interp call
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n2,0\n")
        assert run("interp", "--graph", cycle_csv, "--known", known, "-o", tmp_path / "o.csv") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_help_on_every_subcommand(self, capsys):
        helps = [
            ["--help"],
            ["graph", "--help"],
            ["graph", "cycle", "--help"],
            ["graph", "lattice", "--help"],
            ["graph", "knn", "--help"],
            ["lagrange", "--help"],
            ["interp", "--help"],
            ["decay", "--help"],
            ["verify", "--help"],
            ["ml", "--help"],
            ["ml", "cv", "--help"],
            ["experiment", "--help"],
            ["experiment", "smoothness", "--help"],
        ]
        for argv in helps:
            assert run(*argv) == 0
            out = capsys.readouterr().out
            assert "usage" in out.lower()


def test_bulk_ratio_builds_no_all_pairs_metric(monkeypatch, tmp_path):
    from graphsplines import graphs

    search = graphs.dijkstra

    def single_source_only(*args, **kwargs):
        if kwargs.get("indices") is None:
            raise AssertionError("all-pairs metric built")
        return search(*args, **kwargs)

    monkeypatch.setattr(graphs, "dijkstra", single_source_only)
    assert run("verify", "bulk-ratio", "--trials", 1, "-o", tmp_path / "bulk.csv") == 0


class TestInputChecks:
    @pytest.mark.parametrize(
        "edges, known",
        [
            ("u,v,weight,length\n0,1,1,1\n1,2,1\n2,0,1,1\n", "vertex,value\n0,1\n1,0\n"),
            ("u,v,weight,length\n0,1,1,1\n1,2,1,1\n2,0,1,1\n", "vertex,value\n0,1\n1\n"),
        ],
    )
    def test_short_csv_row_is_two(self, tmp_path, capsys, edges, known):
        (tmp_path / "g.csv").write_text(edges)
        (tmp_path / "k.csv").write_text(known)
        code = run("interp", "--graph", tmp_path / "g.csv", "--known", tmp_path / "k.csv", "-o", tmp_path / "o.csv")
        assert code == 2
        assert "row 3 has" in capsys.readouterr().err

    @pytest.mark.parametrize("vertices", [(0, 1, 1, 3), (0, 1, 2, 5), (-1, 0, 1, 2)])
    def test_decay_needs_each_vertex_exactly_once(self, tmp_path, cycle_csv, vertices):
        fn = tmp_path / "f.csv"
        fn.write_text("vertex,value\n" + "".join(f"{v},1\n" for v in vertices))
        assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", 0, "-o", tmp_path / "p.csv") == 2

    @pytest.mark.parametrize("center", [-1, 4])
    def test_decay_center_out_of_range_is_two(self, tmp_path, cycle_csv, center):
        fn = tmp_path / "f.csv"
        gio.write_function_csv(fn, np.arange(4.0))
        assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", center, "-o", tmp_path / "p.csv") == 2

    def test_decay_rejects_nan_in_function(self, tmp_path):
        g_csv = tmp_path / "c3.csv"
        assert run("graph", "cycle", "--n", 3, "-o", g_csv) == 0
        fn = tmp_path / "f.csv"
        fn.write_text("vertex,value\n0,nan\n1,1\n2,1\n")
        assert run("decay", "--graph", g_csv, "--function", fn, "--center", 0, "-o", tmp_path / "p.csv") == 2

    def test_failed_decay_fit_writes_nothing(self, tmp_path, cycle_csv):
        fn = tmp_path / "f.csv"
        gio.write_function_csv(fn, np.array([1.0, 0.0, 0.0, 0.0]))
        out = tmp_path / "p.csv"
        assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", 0, "--fit", "-o", out) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.csv", "cycle.csv.manifest.json", "f.csv"]


# Each input kind: its header, two good data rows, and the arguments that read it
# (other inputs of the command are good). The bad row sits on file line 4, after a
# blank line, so a message must count file lines, not data rows.
_INPUT_KINDS = {
    "edges": ("u,v,weight,length", ["0,1,1,1", "1,2,1,1", "2,3,1,1", "3,0,1,1"],
              lambda bad, good: ["interp", "--graph", bad, "--known", good["known"]]),
    "function": ("vertex,value", ["0,1", "1,0", "2,1"],
                 lambda bad, good: ["interp", "--graph", good["graph"], "--known", bad]),
    "nodes": ("vertex", ["0", "2", "1"],
              lambda bad, good: ["lagrange", "--graph", good["graph"], "--nodes", bad, "--center", 0]),
    "points": ("x,y", ["0,0", "1,0", "0,1"],
               lambda bad, good: ["graph", "knn", "--points", bad, "--k", 1]),
    "table": ("a,b,y", ["0,1,2", "1,0,3", "1,1,4"],
              lambda bad, good: ["ml", "cv", "--data", bad, "--features", "a,b", "--targets", "y", "--k", 1]),
}

_DEFECTS = {
    # a one-column row cannot be short without being blank, so it gets an extra cell
    "short row": lambda cells: cells[:-1] if len(cells) > 1 else cells + ["0"],
    "non-numeric cell": lambda cells: cells[:-1] + ["abc"],
    "missing token": lambda cells: cells[:-1] + ["NA"],
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
@pytest.mark.parametrize("kind", sorted(_INPUT_KINDS))
def test_bad_input_row_names_file_and_line(tmp_path, capsys, cycle_csv, kind, defect):
    header, rows, argv = _INPUT_KINDS[kind]
    known = tmp_path / "known.csv"
    known.write_text("vertex,value\n0,1\n2,0\n")
    bad_row = ",".join(_DEFECTS[defect](rows[1].split(",")))
    bad = tmp_path / f"bad-{kind}.csv"
    bad.write_text("\n".join([header, rows[0], "", bad_row, *rows[2:]]) + "\n")
    code = run(*argv(bad, {"graph": cycle_csv, "known": known}), "-o", tmp_path / "out.csv")
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err and "row 4" in err


_VERIFY_FLAGS = {
    "zeros-lemma": ("--trials", 2, "--seed", 3),
    "min-norm": ("--trials", 2, "--seed", 1),
    "coeff-symmetry": ("--trials", 2, "--seed", 2),
    "bulk-ratio": ("--trials", 1),
    "cover-constant": ("--trials", 2, "--seed", 4),
}


@pytest.mark.parametrize("check", sorted(_VERIFY_FLAGS))
def test_verify_gives_byte_identical_outputs_and_manifests(tmp_path, capsys, check):
    out = tmp_path / "verify.csv"
    manifest = tmp_path / "verify.csv.manifest.json"
    argv = ("verify", check, *_VERIFY_FLAGS[check], "-o", out)
    assert run(*argv) == 0
    first = capsys.readouterr().out, out.read_bytes(), manifest.read_bytes()
    assert run(*argv) == 0
    assert (capsys.readouterr().out, out.read_bytes(), manifest.read_bytes()) == first


def _data_inputs(folder):
    """Seeded input files for every data-producing command, named as the templates below use them."""
    folder.mkdir()
    rng = np.random.default_rng(11)
    paths = {name: folder / f"{name}.csv" for name in ("points", "graph", "nodes", "known", "function", "table")}
    paths["points"].write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rng.random((60, 2)).tolist()))
    assert run("graph", "cycle", "--n", 32, "-o", paths["graph"]) == 0
    gio.write_nodes_csv(paths["nodes"], range(0, 32, 4))
    known = zip(range(0, 32, 4), rng.random(8).tolist())
    paths["known"].write_text("vertex,value\n" + "".join(f"{v},{x!r}\n" for v, x in known))
    gio.write_function_csv(paths["function"], np.exp(-0.3 * np.minimum(np.arange(32), 32 - np.arange(32))))
    table = rng.normal(size=(40, 3))
    paths["table"].write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{y!r}\n" for a, b, y in table.tolist()))
    return paths


# argv before "-o", and the files a run writes beside its output and manifest
_DATA_COMMANDS = {
    "graph-knn": (("graph", "knn", "--points", "{points}", "--k", 5), ()),
    "interp-coefficients": (
        ("interp", "--graph", "{graph}", "--known", "{known}", "--coefficients", "{out}/coeffs.csv"),
        ("coeffs.csv",),
    ),
    "lagrange": (("lagrange", "--graph", "{graph}", "--nodes", "{nodes}", "--center", 0), ()),
    "lagrange-local": (("lagrange", "--graph", "{graph}", "--nodes", "{nodes}", "--center", 0, "--local", "--radius", 8), ()),
    "lagrange-truncate": (("lagrange", "--graph", "{graph}", "--nodes", "{nodes}", "--center", 0, "--truncate", 8), ()),
    "decay-fit": (("decay", "--graph", "{graph}", "--function", "{function}", "--center", 0, "--fit"), ("out.csv.fit.csv",)),
    "ml-cv": (
        ("ml", "cv", "--data", "{table}", "--features", "a,b", "--targets", "y", "--k", 5, "--folds", 3, "--repeats", 2),
        (),
    ),
    "experiment-smoothness": (("experiment", "smoothness", "--n", 40, "--magnitudes", "1,2", "--seed", 1), ()),
}


@pytest.mark.parametrize("command", sorted(_DATA_COMMANDS))
def test_data_commands_give_byte_identical_outputs_and_manifests(tmp_path, command):
    # the README's promise: runs with the same manifest produce byte-identical outputs
    inputs = _data_inputs(tmp_path / "inputs")
    template, extras = _DATA_COMMANDS[command]
    argv = [str(a).format(**inputs, out=tmp_path) for a in template]
    out = tmp_path / "out.csv"
    written = [out, tmp_path / "out.csv.manifest.json", *(tmp_path / name for name in extras)]
    assert run(*argv, "-o", out) == 0
    first = [path.read_bytes() for path in written]
    for path in written:
        path.unlink()
    assert run(*argv, "-o", out) == 0
    assert [path.read_bytes() for path in written] == first


@pytest.mark.parametrize("command", sorted(_DATA_COMMANDS))
def test_the_manifest_is_the_last_file_a_command_writes(tmp_path, monkeypatch, command):
    inputs = _data_inputs(tmp_path / "inputs")
    template, _ = _DATA_COMMANDS[command]
    argv = [str(a).format(**inputs, out=tmp_path) for a in template]
    calls = []
    for name in [name for name in vars(gio) if name.startswith("write_")]:
        writer = getattr(gio, name)
        monkeypatch.setattr(gio, name, lambda *a, _name=name, _writer=writer, **k: calls.append(_name) or _writer(*a, **k))
    assert run(*argv, "-o", tmp_path / "out.csv") == 0
    assert calls[-1] == "write_manifest" and calls.count("write_manifest") == 1, calls


# Every leaf command: its words, the rest of its argv before "-o", and the input files it reads
_LEAF_RUNS = {
    "graph cycle": (("--n", 8), ()),
    "graph lattice": (("--rows", 2, "--cols", 3), ()),
    "graph knn": (("--points", "{points}", "--k", 5), ("points",)),
    "lagrange": (("--graph", "{graph}", "--nodes", "{nodes}", "--center", 0), ("graph", "nodes")),
    "interp": (("--graph", "{graph}", "--known", "{known}"), ("graph", "known")),
    "decay": (("--graph", "{graph}", "--function", "{function}", "--center", 0), ("graph", "function")),
    "verify zeros-lemma": (("--trials", 2, "--seed", 3), ()),
    "ml cv": (("--data", "{table}", "--features", "a,b", "--targets", "y", "--k", 5, "--folds", 3, "--repeats", 2),
              ("table",)),
    "experiment smoothness": (("--n", 40, "--magnitudes", "1,2", "--seed", 1), ()),
}


@pytest.mark.parametrize("words", sorted(_LEAF_RUNS))
def test_every_leaf_command_records_its_words_and_the_files_it_read(tmp_path, words):
    inputs = _data_inputs(tmp_path / "inputs")
    rest, read = _LEAF_RUNS[words]
    assert run(*words.split(), *(str(a).format(**inputs) for a in rest), "-o", tmp_path / "out.csv") == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["subcommand"] == words
    assert manifest["inputs"] == {str(inputs[name]): hashlib.sha256(inputs[name].read_bytes()).hexdigest() for name in read}


# One run of the commands whose outputs the README promises at any BLAS thread count; it runs in a
# fresh interpreter, so that the BLAS reads its thread variables when numpy is imported.
_THREAD_COUNT_RUN = """
import sys
from graphsplines import cli
graph, nodes, known = sys.argv[1:]
for argv in (
    ["lagrange", "--graph", graph, "--nodes", nodes, "--center", "0", "--alpha", "2", "-o", "full.csv"],
    ["lagrange", "--graph", graph, "--nodes", nodes, "--center", "0", "--alpha", "3", "--local", "--radius", "0.3",
     "-o", "local.csv"],
    ["interp", "--graph", graph, "--known", known, "--alpha", "2", "-o", "interp.csv"],
):
    assert cli.main(argv) == 0, argv
"""


def test_integer_alpha_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(5)
    graph, nodes, known = (tmp_path / f"{name}.csv" for name in ("graph", "nodes", "known"))
    gio.write_edge_csv(graph, knn_graph(rng.random((400, 2)), 8))
    gio.write_nodes_csv(nodes, range(0, 400, 2))
    known_values = zip(range(0, 400, 2), rng.random(200).tolist())
    known.write_text("vertex,value\n" + "".join(f"{v},{x!r}\n" for v, x in known_values))
    package_root = str(Path(interpolation.__file__).parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        folder = tmp_path / f"threads{threads}"
        folder.mkdir()
        blas = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = dict(os.environ, PYTHONPATH=path, **blas)
        argv = [sys.executable, "-c", _THREAD_COUNT_RUN, graph, nodes, known]
        subprocess.run(argv, cwd=folder, env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in folder.iterdir()})
    assert len(outputs[0]) == 6  # three outputs and their manifests
    assert outputs[0] == outputs[1]


# ``lagrange --local`` and ``interp`` at alpha = 2 on graphs whose Dirichlet blocks take the band LU; the
# run records each dgbtrf half-bandwidth, and the planar ones pass 64, where dgbtrf works in blocks
_THREAD_COUNT_BAND_RUN = """
import sys
from scipy.linalg import lapack
from graphsplines import cli
bands = []
factor = lapack.dgbtrf
lapack.dgbtrf = lambda ab, kl, ku, **kwargs: bands.append(kl) or factor(ab, kl, ku, **kwargs)
for name, radius in (("cycle", "24"), ("planar", "0.3")):
    graph, nodes, known = (f"../{name}-{kind}.csv" for kind in ("graph", "nodes", "known"))
    for argv in (
        ["lagrange", "--graph", graph, "--nodes", nodes, "--center", "0", "--alpha", "2", "--local", "--radius",
         radius, "-o", f"{name}-local.csv"],
        ["interp", "--graph", graph, "--known", known, "--alpha", "2", "-o", f"{name}-interp.csv"],
    ):
        assert cli.main(argv) == 0, argv
assert len(bands) == 4 and min(bands[2:]) > 64, bands
"""


def test_band_route_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(5)
    cycle, cycle_nodes, _, _ = _weighted_cycle_case(5)
    for name, graph, nodes in (
        ("cycle", cycle, cycle_nodes),
        ("planar", knn_graph(rng.random((1000, 2)), 8), np.arange(0, 1000, 2)),
    ):
        gio.write_edge_csv(tmp_path / f"{name}-graph.csv", graph)
        gio.write_nodes_csv(tmp_path / f"{name}-nodes.csv", nodes)
        rows = "".join(f"{v},{x!r}\n" for v, x in zip(nodes.tolist(), rng.random(nodes.size).tolist()))
        (tmp_path / f"{name}-known.csv").write_text("vertex,value\n" + rows)
    package_root = str(Path(interpolation.__file__).parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        folder = tmp_path / f"threads{threads}"
        folder.mkdir()
        blas = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = dict(os.environ, PYTHONPATH=path, **blas)
        subprocess.run([sys.executable, "-c", _THREAD_COUNT_BAND_RUN], cwd=folder, env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in folder.iterdir()})
    assert len(outputs[0]) == 8  # four outputs and their manifests
    assert outputs[0] == outputs[1]


# ``ml cv`` at an integer alpha and ``graph knn``, which the README also promises at any BLAS thread count
_THREAD_COUNT_CV_RUN = """
import sys
from graphsplines import cli
table, points = sys.argv[1:]
for argv in (
    ["ml", "cv", "--data", table, "--features", "x0,x1,x2,x3", "--targets", "y0,y1", "--k", "8", "--alpha", "2",
     "--folds", "5", "--repeats", "2", "--seed", "3", "-o", "report.csv"],
    ["graph", "knn", "--points", points, "--k", "6", "-o", "edges.csv"],
):
    assert cli.main(argv) == 0, argv
"""


def test_cv_and_knn_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(600, 4))
    y = np.column_stack([x @ [1.0, -0.5, 0.25, 2.0], np.sin(x).sum(axis=1)]) + rng.normal(0, 0.1, (600, 2))
    table, points = tmp_path / "table.csv", tmp_path / "points.csv"
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.column_stack([x, y]))
    table.write_text("x0,x1,x2,x3,y0,y1\n" + rows)
    cloud = rng.random((700, 3))
    points.write_text("a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in cloud))
    package_root = str(Path(interpolation.__file__).parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        folder = tmp_path / f"threads{threads}"
        folder.mkdir()
        blas = {name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = dict(os.environ, PYTHONPATH=path, **blas)
        argv = [sys.executable, "-c", _THREAD_COUNT_CV_RUN, table, points]
        subprocess.run(argv, cwd=folder, env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in folder.iterdir()})
    assert len(outputs[0]) == 4  # two outputs and their manifests
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("check", sorted(_VERIFY_FLAGS))
def test_verify_refuses_fewer_than_one_trial(tmp_path, capsys, check, trials):
    out = tmp_path / "verify.csv"
    assert run("verify", check, "--trials", trials, "-o", out) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "at least 1 trial" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_decay_fit_scale_must_be_positive_and_finite(tmp_path, capsys, scale):
    g_csv = tmp_path / "g.csv"
    assert run("graph", "cycle", "--n", 32, "-o", g_csv) == 0
    fn = tmp_path / "f.csv"
    gio.write_function_csv(fn, np.exp(-0.3 * gio.read_edge_csv(g_csv).distances_from(0)))
    out = tmp_path / "prof.csv"
    argv = ("decay", "--graph", g_csv, "--function", fn, "--center", 0, "--fit", "--fit-scale", scale, "-o", out)
    assert run(*argv) == 2
    assert "fit scale" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("magnitudes", ["", "1,nan"])
def test_smoothness_needs_finite_magnitudes(tmp_path, capsys, magnitudes):
    out = tmp_path / "sm.csv"
    assert run("experiment", "smoothness", "--n", 60, "--magnitudes", magnitudes, "--k", 6, "-o", out) == 2
    assert "magnitudes must be a nonempty list of finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_smoothness_needs_a_bump_per_axis(tmp_path, capsys):
    out = tmp_path / "sm.csv"
    assert run("experiment", "smoothness", "--n", 60, "--bumps-per-axis", 0, "--k", 6, "-o", out) == 2
    assert "bump per axis" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", [("--local", "--radius", 4), ("--truncate", 4)])
def test_lagrange_center_outside_node_set_is_two_in_every_mode(tmp_path, cycle_csv, capsys, mode):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    out = tmp_path / "x.csv"
    assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 1, *mode, "-o", out) == 2
    assert "center 1 is not in the node set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", [("--local", "--radius", "nan"), ("--truncate", "nan")])
def test_lagrange_nan_radius_is_two(tmp_path, cycle_csv, capsys, mode):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    out = tmp_path / "x.csv"
    assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, *mode, "-o", out) == 2
    assert "radius must be positive, got nan" in capsys.readouterr().err
    assert not out.exists()


def _alpha_commands(tmp_path, cycle_csv):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    known = tmp_path / "known.csv"
    known.write_text("vertex,value\n0,1\n2,0\n")
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    data.write_text("a,b,y\n" + "".join(f"{a},{b},{a - b}\n" for a, b in rng.normal(size=(30, 2))))
    return {
        "lagrange": ("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0),
        "interp": ("interp", "--graph", cycle_csv, "--known", known),
        "ml cv": ("ml", "cv", "--data", data, "--features", "a,b", "--targets", "y", "--k", 4, "--folds", 3, "--repeats", 1),
        "smoothness": ("experiment", "smoothness", "--n", 60, "--k", 6),
    }


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("command", ["lagrange", "interp", "ml cv", "smoothness"])
def test_non_finite_alpha_is_two(tmp_path, cycle_csv, capsys, command, alpha):
    out = tmp_path / "out.csv"
    assert run(*_alpha_commands(tmp_path, cycle_csv)[command], "--alpha", alpha, "-o", out) == 2
    assert f"alpha must be positive and finite, got {alpha}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", ["nan", "inf", "0"])
def test_decay_bin_width_must_be_positive_and_finite(tmp_path, cycle_csv, capsys, width):
    fn = tmp_path / "f.csv"
    gio.write_function_csv(fn, np.arange(4.0))
    out = tmp_path / "p.csv"
    assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", 0, "--bin-width", width, "-o", out) == 2
    assert "bin width must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_decay_tiny_bin_width_keeps_distances(tmp_path, cycle_csv):
    fn = tmp_path / "f.csv"
    gio.write_function_csv(fn, np.arange(4.0))
    out = tmp_path / "p.csv"
    assert run("decay", "--graph", cycle_csv, "--function", fn, "--center", 0, "--bin-width", "1e-300", "-o", out) == 0
    distances = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert np.all(distances >= 0.0)
    assert np.allclose(distances, [0.0, 1.0, 2.0], rtol=1e-12)


def test_no_solve_uses_cholesky(monkeypatch, tmp_path):
    import scipy.linalg.lapack

    from graphsplines import CVConfig, Dataset, cross_validate, cycle_graph, spline_regress

    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky driver called")

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", refuse)
    g = cycle_graph(16)
    for alpha in (2.0, 1.5):
        assert np.all(np.isfinite(spline_regress(g, [0, 5, 9], [1.0, 0.0, 2.0], alpha)))
    rng = np.random.default_rng(1)
    features = rng.normal(size=(30, 2))
    dataset = Dataset(features, features[:, :1] - features[:, 1:], ["a", "b"], ["y"])
    assert cross_validate(dataset, CVConfig(k_neighbors=4, folds=3, repeats=1)).rows
    g_csv, nodes = tmp_path / "g.csv", tmp_path / "nodes.csv"
    assert run("graph", "cycle", "--n", 32, "-o", g_csv) == 0
    gio.write_nodes_csv(nodes, range(0, 32, 4))
    for mode in ((), ("--local", "--radius", 8), ("--truncate", 8)):
        argv = ("lagrange", "--graph", g_csv, "--nodes", nodes, "--center", 8, *mode, "-o", tmp_path / "chi.csv")
        assert run(*argv) == 0


# --- integer-alpha Lagrange functions from the Dirichlet form ---------------------

def _weighted_cycle_case(seed, n=256):
    """A cycle with seeded weights in [0.5, 2], every 4th vertex a node, and a seeded center."""
    rng = np.random.default_rng([seed, n])
    weights = rng.uniform(0.5, 2.0, n)
    nodes = np.arange(0, n, 4)
    graph = build_graph([(i, (i + 1) % n, weights[i], 1.0) for i in range(n)])
    return graph, nodes, int(rng.choice(nodes)), 24.0


def _knn_case(seed, n=200):
    """k-NN graph of seeded points in the unit square, a quarter of them nodes."""
    rng = np.random.default_rng([seed, n])
    graph = knn_graph(rng.random((n, 2)), 8)
    nodes = np.sort(rng.permutation(n)[: n // 4])
    return graph, nodes, int(nodes[0]), 0.3


@pytest.mark.parametrize("case", [*(f"cycle-{seed}" for seed in range(4)), "knn-0"])
def test_integer_alpha_lagrange_matches_the_bordered_oracle(tmp_path, case):
    # The CLI builds alpha = 2 cardinal functions from the Dirichlet form; the plain-numpy
    # bordered kernel system of bordered_oracle is an independent solve of the same function. The
    # worst relative difference over these cases was 2.9e-10 (a local cycle function), and the
    # bound is one digit above it.
    kind, seed = case.split("-")
    graph, nodes, center, radius = (_weighted_cycle_case if kind == "cycle" else _knn_case)(int(seed))
    g_csv, n_csv, out = tmp_path / "g.csv", tmp_path / "nodes.csv", tmp_path / "chi.csv"
    gio.write_edge_csv(g_csv, graph)
    gio.write_nodes_csv(n_csv, nodes)
    for mode, ball in (((), np.inf), (("--local", "--radius", radius), radius)):
        assert run("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, *mode, "-o", out) == 0
        chi = gio.read_function_csv(out)[1]
        inside = nodes[graph.distances_from(center)[nodes] <= ball]
        oracle = bordered_oracle(graph, 2.0, inside, (inside == center).astype(float))
        assert np.abs(chi - oracle).max() <= 3e-9 * np.abs(oracle).max()


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_alpha_4_lagrange_is_cardinal_and_matches_least_squares(tmp_path, seed):
    # cycle-256 at alpha = 4 with every 4th vertex a node: a bordered kernel solve of this function
    # runs at rcond about 1e-15 and is cardinal only to about 3e-6. The Dirichlet form sets the
    # node values.
    n = 256
    if seed is None:
        graph, nodes, center = cycle_graph(n), np.arange(0, n, 4), 0
    else:
        graph, nodes, center, _ = _weighted_cycle_case(seed)
    g_csv, n_csv, out = tmp_path / "g.csv", tmp_path / "nodes.csv", tmp_path / "chi.csv"
    gio.write_edge_csv(g_csv, graph)
    gio.write_nodes_csv(n_csv, nodes)
    assert run("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, "--alpha", 4, "-o", out) == 0
    chi = gio.read_function_csv(out)[1]
    assert np.array_equal(chi[nodes], (nodes == center).astype(float))
    # L^4 = (L^2)^T L^2, so the least-squares fit of L^2 chi = 0 on U solves the same problem
    weights = graph.adjacency.toarray()
    dinv = 1.0 / np.sqrt(weights.sum(axis=1))
    lap = np.eye(n) - dinv[:, None] * weights * dinv[None, :]
    lap2 = lap @ lap
    unknown = np.setdiff1d(np.arange(n), nodes)
    reference = np.linalg.lstsq(lap2[:, unknown], -lap2[:, center], rcond=None)[0]
    assert np.abs(chi[unknown] - reference).max() <= 1e-12 * np.abs(chi).max()


@pytest.mark.parametrize("mode", [(), ("--local", "--radius", 4)])
@pytest.mark.parametrize("alpha", ["0", "-2"])
def test_lagrange_non_positive_integer_alpha_is_two(tmp_path, cycle_csv, capsys, mode, alpha):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    out = tmp_path / "x.csv"
    assert run("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, *mode, "--alpha", alpha, "-o", out) == 2
    assert f"alpha must be positive and finite, got {float(alpha)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", [*(f"cycle-{seed}" for seed in range(4)), "knn-0"])
@pytest.mark.parametrize("alpha, local", [(1.5, False), (2.5, False), (1.5, True)])
def test_fractional_alpha_lagrange_matches_the_bordered_oracle(tmp_path, case, alpha, local):
    # A fractional alpha takes the Dirichlet form too, with L^alpha from the eigenpairs. The worst
    # relative difference from the plain-numpy bordered_oracle over these cases was 7.3e-10
    # (alpha = 2.5, full cycle function), and the bound is one digit above it.
    kind, seed = case.split("-")
    graph, nodes, center, radius = (_weighted_cycle_case if kind == "cycle" else _knn_case)(int(seed))
    g_csv, n_csv, out = tmp_path / "g.csv", tmp_path / "nodes.csv", tmp_path / "chi.csv"
    gio.write_edge_csv(g_csv, graph)
    gio.write_nodes_csv(n_csv, nodes)
    mode, ball = (("--local", "--radius", radius), radius) if local else ((), np.inf)
    argv = ("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, "--alpha", alpha, *mode, "-o", out)
    assert run(*argv) == 0
    chi = gio.read_function_csv(out)[1]
    inside = nodes[graph.distances_from(center)[nodes] <= ball]
    oracle = bordered_oracle(graph, alpha, inside, (inside == center).astype(float))
    assert np.abs(chi - oracle).max() <= 1e-8 * np.abs(oracle).max()


@pytest.mark.parametrize("mode", [(), ("--local", "--radius", 24)])
def test_fractional_alpha_lagrange_builds_no_kernel(monkeypatch, tmp_path, decompositions, mode):
    from graphsplines import spectral

    graph, nodes, center, _ = _weighted_cycle_case(0)
    g_csv, n_csv = tmp_path / "g.csv", tmp_path / "nodes.csv"
    gio.write_edge_csv(g_csv, graph)
    gio.write_nodes_csv(n_csv, nodes)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel built")

    monkeypatch.setattr(spectral, "pseudo_inverse_power", refuse)
    argv = ("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, "--alpha", 1.5, *mode)
    assert run(*argv, "-o", tmp_path / "chi.csv") == 0
    assert len(decompositions) == 1


def test_local_and_truncate_together_are_a_usage_error(tmp_path, cycle_csv, capsys):
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    out = tmp_path / "x.csv"
    argv = ("lagrange", "--graph", cycle_csv, "--nodes", nodes, "--center", 0, "--local", "--radius", 4, "--truncate", 4)
    assert run(*argv, "-o", out) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_no_reproject_is_the_library_truncation_without_repair(tmp_path, alpha):
    graph, nodes, center, _ = _weighted_cycle_case(1)
    g_csv, n_csv = tmp_path / "g.csv", tmp_path / "nodes.csv"
    gio.write_edge_csv(g_csv, graph)
    gio.write_nodes_csv(n_csv, nodes)
    base = ("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, "--alpha", alpha, "--truncate", 32)
    assert run(*base, "--no-reproject", "-o", tmp_path / "raw.csv") == 0
    assert run(*base, "-o", tmp_path / "repaired.csv") == 0
    raw = gio.read_function_csv(tmp_path / "raw.csv")[1]
    repaired = gio.read_function_csv(tmp_path / "repaired.csv")[1]

    graph = gio.read_edge_csv(g_csv)
    decomposition = decompose_graph(graph)
    assert np.array_equal(raw, truncated_lagrange(alpha, decomposition, graph, nodes, center, 32, reimpose_side_condition=False))
    assert np.array_equal(repaired, truncated_lagrange(alpha, decomposition, graph, nodes, center, 32))
    assert not np.array_equal(raw, repaired)


# --- accuracy against long-double references -------------------------------------


def _longdouble_cycle(weights, alpha):
    """``L^alpha`` of the normalized Laplacian and its kernel vector ``v0`` for a weighted cycle, in ``np.longdouble``."""
    n = weights.size
    w = np.zeros((n, n), dtype=np.longdouble)
    w[np.arange(n), (np.arange(n) + 1) % n] = weights
    w += w.T
    root = np.sqrt(w.sum(axis=1))
    lap = np.eye(n, dtype=np.longdouble) - w / np.outer(root, root)
    power = lap
    for _ in range(alpha - 1):
        power = power @ lap
    return power, root / np.sqrt(root @ root)


def _longdouble_spline(power, nodes, values):
    """The Dirichlet-form spline through ``values`` on ``nodes``: ``s_U = -(L^a)_UU^-1 (L^a)_UK F``."""
    unknown = np.setdiff1d(np.arange(power.shape[0]), nodes)
    s = np.zeros(power.shape[0], dtype=np.longdouble)
    s[nodes] = values
    s[unknown] = longdouble_solve(power[np.ix_(unknown, unknown)], -power[np.ix_(unknown, nodes)] @ s[nodes])
    return s


@extended
@pytest.mark.parametrize("job", range(5))
def test_truncated_lagrange_matches_a_long_double_reference(tmp_path, job):
    # The cycles and centers are the draws of the cycle256-lagrange benchmark's seed-1 jobs 0-4, at
    # alpha = 2. The reference applies the same formulas in long double: chi from the Dirichlet form,
    # beta = (L^2 chi)_K and C = v0^T chi, the kept coefficients reprojected, and the kernel applied
    # as Phi b = (L^2 + v0 v0^T)^-1 b for b orthogonal to v0. Over these jobs the differences were
    # 1.4e-11 to 2.7e-11 of max|chi| with beta from the CSR rows of L^2 (9.1e-12 to 1.3e-10 through the
    # eigenpairs); coefficients from a bordered kernel solve gave 5.6e-9 to 1.2e-8.
    n, radius = 256, 32
    nodes = np.arange(0, n, 4)
    rng = np.random.default_rng([1, n, job])
    weights = rng.uniform(0.95, 1.05, n)
    center = int(rng.choice(nodes))
    g_csv, n_csv, out = tmp_path / "g.csv", tmp_path / "nodes.csv", tmp_path / "chi.csv"
    gio.write_edge_csv(g_csv, build_graph([(i, (i + 1) % n, weights[i], 1.0) for i in range(n)]))
    gio.write_nodes_csv(n_csv, nodes)
    argv = ("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", center, "--alpha", 2, "--truncate", radius)
    assert run(*argv, "-o", out) == 0
    chi = gio.read_function_csv(out)[1]

    power, v0 = _longdouble_cycle(weights, 2)
    full = _longdouble_spline(power, nodes, (nodes == center).astype(float))
    hops = np.abs(nodes - center)
    kept = np.minimum(hops, n - hops) <= radius
    beta = (power @ full)[nodes][kept]
    u = v0[nodes][kept]
    beta -= (beta @ u) / (u @ u) * u
    b = np.zeros(n, dtype=np.longdouble)
    b[nodes[kept]] = beta
    reference = (longdouble_solve(power + np.outer(v0, v0), b) + (v0 @ full) * v0).astype(float)
    assert np.abs(chi - reference).max() <= 1e-9 * np.abs(reference).max()


@extended
def test_interp_values_match_a_long_double_reference(tmp_path):
    # interp writes the Dirichlet-form values as solved: they were off by 1.6e-14 of max|s|.
    # Re-evaluating Phi beta + C v0 from the coefficients read off them loses digits to the
    # conditioning of the kernel (1.8e10 on the known block): 4.1e-6. A bordered kernel solve
    # evaluated the same way was off by 5.8e-8.
    n = 256
    rng = np.random.default_rng([3, n])
    weights = rng.uniform(0.5, 2.0, n)
    known = np.arange(0, n, 4)
    data = rng.standard_normal(known.size)
    g_csv, known_csv, out = tmp_path / "g.csv", tmp_path / "known.csv", tmp_path / "s.csv"
    gio.write_edge_csv(g_csv, build_graph([(i, (i + 1) % n, weights[i], 1.0) for i in range(n)]))
    known_csv.write_text("vertex,value\n" + "".join(f"{v},{x:.17g}\n" for v, x in zip(known, data)))
    assert run("interp", "--graph", g_csv, "--known", known_csv, "--alpha", 3, "-o", out) == 0
    s = gio.read_function_csv(out)[1]
    reference = _longdouble_spline(_longdouble_cycle(weights, 3)[0], known, data).astype(float)
    assert np.abs(s - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize(
    "alpha, flags, eighs",
    [(2, (), 0), (1.5, (), 1), (2, ("--coefficients",), 1), (1.5, ("--coefficients",), 1)],
)
def test_interp_solves_one_system_and_decomposes_only_when_needed(
    monkeypatch, tmp_path, decompositions, alpha, flags, eighs
):
    counts = {"solve": 0}
    solve = interpolation._solve_symmetric

    def counting_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(interpolation, "_solve_symmetric", counting_solve)
    graph, known, _, _ = _weighted_cycle_case(0, n=64)
    g_csv, known_csv = tmp_path / "g.csv", tmp_path / "known.csv"
    gio.write_edge_csv(g_csv, graph)
    known_csv.write_text("vertex,value\n" + "".join(f"{v},{np.sin(v)}\n" for v in known))
    paths = [a for flag in flags for a in (flag, tmp_path / f"{flag[2:]}.csv")]
    assert run("interp", "--graph", g_csv, "--known", known_csv, "--alpha", alpha, *paths, "-o", tmp_path / "s.csv") == 0
    assert (len(decompositions), counts["solve"]) == (eighs, 1)


# --- input files written by spreadsheet programs ----------------------------------

_BOM = "\ufeff".encode()  # the UTF-8 byte-order mark a spreadsheet program may write first


def test_edge_list_with_a_byte_order_mark_runs_lagrange(tmp_path, cycle_csv):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(_BOM + cycle_csv.read_bytes())
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    for graph, out in ((cycle_csv, "plain_chi.csv"), (marked, "marked_chi.csv")):
        assert run("lagrange", "--graph", graph, "--nodes", nodes, "--center", 0, "-o", tmp_path / out) == 0
    assert (tmp_path / "marked_chi.csv").read_bytes() == (tmp_path / "plain_chi.csv").read_bytes()


def test_table_with_a_byte_order_mark_names_its_first_column(tmp_path):
    rng = np.random.default_rng(0)
    text = "a,b,y\n" + "".join(f"{a},{b},{a - b}\n" for a, b in rng.normal(size=(30, 2)))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(_BOM + text.encode())
    for data in (plain, marked):
        argv = ("ml", "cv", "--data", data, "--features", "a,b", "--targets", "y", "--k", 4, "--folds", 3, "--repeats", 1)
        assert run(*argv, "-o", tmp_path / f"{data.stem}_report.csv") == 0
    assert (tmp_path / "marked_report.csv").read_bytes() == (tmp_path / "plain_report.csv").read_bytes()


# --- the parser contract -----------------------------------------------------------

def test_every_main_call_builds_its_own_parsers(monkeypatch, tmp_path):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    counts = []
    for _ in range(2):
        before = len(built)
        assert run("graph", "cycle", "--n", 4, "-o", tmp_path / "c.csv") == 0
        counts.append(len(built) - before)
    assert counts[0] > 0 and counts[0] == counts[1]


def test_only_the_parsed_subcommand_gets_its_arguments(monkeypatch):
    # only the parsers on the path argv names are constructed: the top level and one per command word
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv, parsers in [
        (["lagrange", "--graph", "g", "--nodes", "n", "--center", "0", "-o", "o"], 2),
        (["graph", "cycle", "--n", "4", "-o", "o"], 3),
        (["ml", "cv", "--data", "d", "--features", "a", "--targets", "b", "--k", "3", "-o", "o"], 3),
    ]:
        del built[:]
        cli._build_parser().parse_args(argv)
        assert len(built) == parsers, built


# Each command word's help page and the function that adds its arguments; None for the top level.
_HELP_PAGES = [
    ([], None),
    (["graph"], cli._fill_graph),
    (["graph", "cycle"], cli._fill_graph_cycle),
    (["graph", "lattice"], cli._fill_graph_lattice),
    (["graph", "knn"], cli._fill_graph_knn),
    (["lagrange"], cli._fill_lagrange),
    (["interp"], cli._fill_interp),
    (["decay"], cli._fill_decay),
    (["verify"], cli._fill_verify),
    (["ml"], cli._fill_ml),
    (["ml", "cv"], cli._fill_ml_cv),
    (["experiment"], cli._fill_experiment),
    (["experiment", "smoothness"], cli._fill_smoothness),
]


@pytest.mark.parametrize("path, fill", _HELP_PAGES, ids=[" ".join(p) or "graphsplines" for p, _ in _HELP_PAGES])
def test_help_lists_every_option_of_its_command(capsys, path, fill):
    assert run(*path, "--help") == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: graphsplines", *path]) + " ")
    if fill is None:
        parser = cli._build_parser()
    else:
        parser = cli._Parser(prog="p")
        fill(parser)
    # every option string, subcommand name and choice the parser holds, as a word of the help page
    listed = {option for action in parser._actions for option in action.option_strings}
    listed |= {choice for action in parser._actions for choice in (action.choices or ())}
    assert listed - {"-h", "--help"}
    assert listed <= set(re.findall(r"[^\s{},\[\]]+", out))


# One minimal valid argv per leaf command and the namespace it gave before subcommand
# parsers were filled in lazily; manifests record these flags.
_LEAF_NAMESPACES = [
    (["graph", "cycle", "--n", "4", "-o", "o"],
     {"command": "graph", "kind": "cycle", "n": 4, "weight": 1.0, "length": 1.0, "output": "o",
      "func": cli._cmd_graph_cycle}),
    (["graph", "lattice", "--rows", "2", "--cols", "3", "-o", "o"],
     {"command": "graph", "kind": "lattice", "rows": 2, "cols": 3, "weight": 1.0, "length": 1.0, "output": "o",
      "func": cli._cmd_graph_lattice}),
    (["graph", "knn", "--points", "p", "--k", "2", "-o", "o"],
     {"command": "graph", "kind": "knn", "points": "p", "k": 2, "no_header": False, "output": "o",
      "func": cli._cmd_graph_knn}),
    (["lagrange", "--graph", "g", "--nodes", "n", "--center", "0", "-o", "o"],
     {"command": "lagrange", "graph": "g", "nodes": "n", "center": 0, "alpha": 2.0, "radius": None, "local": False,
      "truncate": None, "no_reproject": False, "output": "o", "func": cli._cmd_lagrange}),
    (["interp", "--graph", "g", "--known", "k", "-o", "o"],
     {"command": "interp", "graph": "g", "known": "k", "alpha": 2.0, "coefficients": None, "output": "o",
      "func": cli._cmd_interp}),
    (["decay", "--graph", "g", "--function", "f", "--center", "0", "-o", "o"],
     {"command": "decay", "graph": "g", "function": "f", "center": 0, "bin_width": None, "fit": False,
      "fit_scale": 1.0, "output": "o", "func": cli._cmd_decay}),
    (["verify", "zeros-lemma"],
     {"command": "verify", "check": "zeros-lemma", "trials": 100, "seed": 0, "output": None, "func": cli._cmd_verify}),
    (["ml", "cv", "--data", "d", "--features", "a", "--targets", "b", "--k", "3", "-o", "o"],
     {"command": "ml", "experiment": "cv", "data": "d", "features": "a", "targets": "b", "k": 3, "alpha": 2.0,
      "folds": 10, "repeats": 20, "seed": 0, "no_header": False, "output": "o", "func": cli._cmd_ml_cv}),
    (["experiment", "smoothness", "-o", "o"],
     {"command": "experiment", "experiment": "smoothness", "n": 1000, "bumps_per_axis": 4,
      "magnitudes": "1,2,3,4,5,6,7,8,9,10", "k": 8, "alpha": 2.0, "seed": 0, "output": "o",
      "func": cli._cmd_experiment_smoothness}),
]


@pytest.mark.parametrize("argv, namespace", _LEAF_NAMESPACES, ids=[" ".join(a[:2]) for a, _ in _LEAF_NAMESPACES])
def test_leaf_command_namespace_is_unchanged(argv, namespace):
    assert vars(cli._build_parser().parse_args(argv)) == namespace


@pytest.mark.parametrize("argv, usage", [
    (["lagrange", "--bogus"], "usage: graphsplines lagrange [-h] --graph GRAPH"),
    (["ml", "cv", "--features", "a", "--targets", "b", "--k", "3", "-o", "o"], "usage: graphsplines ml cv [-h] --data DATA"),
])
def test_subcommand_usage_errors_print_that_subcommands_usage(capsys, argv, usage):
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith(usage)


def test_lagrange_with_every_vertex_a_node_at_a_fractional_alpha_decomposes_nothing(tmp_path, decompositions):
    g_csv, n_csv, out = tmp_path / "g.csv", tmp_path / "nodes.csv", tmp_path / "chi.csv"
    assert run("graph", "cycle", "--n", 32, "-o", g_csv) == 0
    gio.write_nodes_csv(n_csv, range(32))
    assert run("lagrange", "--graph", g_csv, "--nodes", n_csv, "--center", 5, "--alpha", 1.5, "-o", out) == 0
    assert np.array_equal(gio.read_function_csv(out)[1], np.eye(32)[5])
    assert decompositions == []


# L^alpha at these orders overflows a double; each runs in a subprocess with a timeout, so a power loop
# that does not stop fails the test instead of hanging it
_LARGE_ALPHA = ("interp-alpha-1e300", "interp-alpha-10000", "interp-alpha-2000.5")


def _run_with_timeout(argv, folder):
    """Exit code and stderr of the command line ``argv`` run in a fresh interpreter, stopped after 20 s."""
    package_root = str(Path(interpolation.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "graphsplines.cli", *map(str, argv)]
    done = subprocess.run(argv, cwd=folder, env=env, capture_output=True, text=True, timeout=20)
    return done.returncode, done.stderr


def _input_refusal(case, tmp_path):
    """argv of one command whose input is refused before any computation, and the message it prints."""
    nodes = tmp_path / "nodes.csv"
    gio.write_nodes_csv(nodes, [0, 2])
    edges = tmp_path / "g.csv"
    table = tmp_path / "table.csv"
    out = tmp_path / "out.csv"
    if case == "empty-edge-list":
        edges.write_text("")
        return ("lagrange", "--graph", edges, "--nodes", nodes, "--center", 0, "-o", out), "is empty"
    if case == "edge-list-header":
        edges.write_text("a,b,weight,length\n0,1,1,1\n1,2,1,1\n2,0,1,1\n")
        return ("lagrange", "--graph", edges, "--nodes", nodes, "--center", 0, "-o", out), "expected header"
    if case == "one-row-table":
        table.write_text("a,b,y\n0.5,1.5,2.0\n")
        argv = ("ml", "cv", "--data", table, "--features", "a,b", "--targets", "y", "--k", 1, "-o", out)
        return argv, "need at least 2 data rows"
    if case == "knn-k-0":
        table.write_text("x,y\n0,0\n1,0\n3,0\n")
        return ("graph", "knn", "--points", table, "--k", 0, "-o", out), "k must be >= 1"
    if case == "knn-overflow":
        table.write_text("x,y\n0,0\n1e200,0\n3e200,0\n")
        return ("graph", "knn", "--points", table, "--k", 1, "-o", out), "point 2 lies too far from the mean"
    if case == "knn-underflow":
        table.write_text("x,y\n0,0\n1e-170,0\n3e-170,0\n")
        return ("graph", "knn", "--points", table, "--k", 1, "-o", out), "points 0 and 1 differ"
    if case == "degree-overflow":
        edges.write_text("u,v,weight,length\n0,1,1e308,1\n1,2,1e308,1\n2,3,1,1\n")
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n3,2\n")
        return ("interp", "--graph", edges, "--known", known, "-o", out), "vertex 1 has weighted degree inf"
    if case == "lattice-negative":
        return ("graph", "lattice", "--rows", -2, "--cols", -3, "-o", out), "got -2 rows and -3 cols"
    if case in ("empty-features", "empty-targets"):
        table.write_text("a,b,y\n0.5,1.5,2.0\n1.5,0.5,3.0\n2.5,2.5,1.0\n")
        features, targets, kind = ("", "y", "feature") if case == "empty-features" else ("a,b", "", "target")
        argv = ("ml", "cv", "--data", table, "--features", features, "--targets", targets, "--k", 1, "--folds", 2, "-o", out)
        return argv, f"the {kind} column list is empty"
    if case == "cv-target-overflow":
        rng = np.random.default_rng(5)
        rows = np.column_stack([rng.uniform(size=(60, 3)), 1e200 * (1.0 + rng.uniform(size=60))])
        table.write_text("a,b,c,y\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        argv = ("ml", "cv", "--data", table, "--features", "a,b,c", "--targets", "y", "--k", 4, "--folds", 3, "-o", out)
        return argv, "target column 'y'"
    if case in ("decay-tiny-bin", "decay-long-edges"):
        length, width, message = {
            "decay-tiny-bin": ("1", "1e-320", "distance 2.0 over bin width 1e-320 overflows a double"),
            "decay-long-edges": ("1e308", "1", "distance inf over bin width 1.0 overflows a double"),
        }[case]
        edges.write_text("u,v,weight,length\n" + "".join(f"{u},{v},1,{length}\n" for u, v in ((0, 1), (1, 2), (2, 3), (0, 3))))
        function = tmp_path / "f.csv"
        function.write_text("vertex,value\n0,1\n1,0.5\n2,0.25\n3,0.5\n")
        argv = ("decay", "--graph", edges, "--function", function, "--center", 0, "--bin-width", width, "--fit", "-o", out)
        return argv, message
    if case == "decay-fit-overflow":
        gio.write_edge_csv(edges, cycle_graph(16))
        function = tmp_path / "f.csv"
        function.write_text("vertex,value\n" + "".join(f"{v},{min(v, 16 - v) + 1}\n" for v in range(16)))
        argv = ("decay", "--graph", edges, "--function", function, "--center", 0, "--fit", "--fit-scale", "1e-4")
        return (*argv, "-o", out), "decay fit at scale 0.0001 with slope 0.25"
    if case == "smoothness-overflow":
        return ("experiment", "smoothness", "--n", 40, "--magnitudes", "1e308", "-o", out), "magnitude 1e+308 is too large"
    if case in ("output-is-known", "output-links-to-known", "output-hard-links-known", "coefficients-are-output"):
        gio.write_edge_csv(edges, cycle_graph(8))
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n2,2\n")
        argv = ("interp", "--graph", edges, "--known", known)
        if case == "coefficients-are-output":
            return (*argv, "--coefficients", out, "-o", out), "names the same file as --output"
        if case == "output-links-to-known":
            (tmp_path / "link.csv").symlink_to(known)
            return (*argv, "-o", tmp_path / "link.csv"), "names the same file as --known"
        if case == "output-hard-links-known":
            os.link(known, tmp_path / "link.csv")
            return (*argv, "-o", tmp_path / "link.csv"), "names the same file as --known"
        return (*argv, "-o", f"{tmp_path}/./known.csv"), "names the same file as --known"
    if case in ("fit-is-function", "manifest-is-function"):
        gio.write_edge_csv(edges, cycle_graph(4))
        function = tmp_path / ("out.csv.fit.csv" if case == "fit-is-function" else "out.csv.manifest.json")
        function.write_text("vertex,value\n0,1\n1,0.5\n2,0.25\n3,0.5\n")
        argv = ("decay", "--graph", edges, "--function", function, "--center", 0, "--fit", "-o", out)
        return argv, f"{'the fit' if case == 'fit-is-function' else 'the manifest'} {function} names the same file as --function"
    if case in _LARGE_ALPHA:
        gio.write_edge_csv(edges, cycle_graph(8))
        known = tmp_path / "known.csv"
        known.write_text("vertex,value\n0,1\n2,2\n")
        alpha = case.removeprefix("interp-alpha-")
        return ("interp", "--graph", edges, "--known", known, "--alpha", alpha, "-o", out), f"alpha = {float(alpha)} overflows"
    return ("graph", "lattice", "--rows", 1, "--cols", 1, "-o", out), "at least 2 vertices"


@pytest.mark.parametrize(
    "case",
    [
        "empty-edge-list", "edge-list-header", "one-row-table", "knn-k-0", "knn-overflow", "knn-underflow",
        "degree-overflow", "lattice-1x1", "lattice-negative", "empty-features", "empty-targets",
        "cv-target-overflow", "decay-tiny-bin", "decay-long-edges", "decay-fit-overflow", "smoothness-overflow",
        *_LARGE_ALPHA, "output-is-known", "output-links-to-known", "output-hard-links-known", "coefficients-are-output",
        "fit-is-function", "manifest-is-function",
    ],
)
def test_input_refusals_exit_two_with_one_error_line(tmp_path, capsys, case):
    argv, message = _input_refusal(case, tmp_path)
    files = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    capsys.readouterr()
    if case in _LARGE_ALPHA:
        code, err = _run_with_timeout(argv, tmp_path)
    else:
        code, err = run(*argv), capsys.readouterr().err
    assert code == 2
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out.csv").exists()
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == files


# Runs one command with its address space capped at 2 GiB, then prints the process's peak RSS in KiB.
# An oversized request must fail at its first allocation, not fill the cap (or, uncapped, the host).
_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from graphsplines import cli
code = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "cycle", "--n", 100_000_000_000),
        ("experiment", "smoothness", "--n", 6, "--bumps-per-axis", 100_000),
    ],
    ids=["cycle", "smoothness"],
)
def test_oversized_generator_requests_fail_at_once(tmp_path, argv):
    package_root = str(Path(interpolation.__file__).parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-c", _CAPPED_RUN, *map(str, argv), "-o", "out.csv"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: MemoryError"), err
    assert list(tmp_path.iterdir()) == []
    assert int(done.stdout) < 512 * 1024  # KiB: a quarter of the cap
