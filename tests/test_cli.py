import json

import numpy as np
import pytest

from graphsplines import cli
from graphsplines import io as gio


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
        kern = tmp_path / "kernel.csv"
        assert run("interp", "--graph", cycle_csv, "--known", known,
                   "--coefficients", coeffs, "--dump-kernel", kern, "-o", tmp_path / "pred.csv") == 0
        lines = coeffs.read_text().splitlines()
        assert lines[0] == "node,beta"
        assert lines[-1].startswith("constant,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(2.0)  # constant data on the 4-cycle
        assert len(kern.read_text().splitlines()) == 4

    def test_decay_profile_and_fit(self, tmp_path):
        g_csv = tmp_path / "g.csv"
        run("graph", "cycle", "--n", 32, "-o", g_csv)
        fn = tmp_path / "f.csv"
        g = gio.read_edge_csv(g_csv)
        gio.write_function_csv(fn, np.exp(-0.3 * g.metric[0]))
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
        def failing(args):
            return False, ["synthetic check"], ["x"], [(1,)]

        monkeypatch.setitem(cli._VERIFIERS, "zeros-lemma", failing)
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
        g_csv = tmp_path / "g.csv"
        run("graph", "cycle", "--n", 64, "-o", g_csv)
        nodes = tmp_path / "nodes.csv"
        gio.write_nodes_csv(nodes, range(64))
        code = run("lagrange", "--graph", g_csv, "--nodes", nodes, "--center", 0, "--alpha", 8, "-o", tmp_path / "x.csv")
        assert code == 3

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("dsysv failed"), MemoryError()])
    def test_lapack_and_memory_failures_are_three(self, monkeypatch, tmp_path, cycle_csv, capsys, error):
        def failing(problem):
            raise error

        monkeypatch.setattr(cli, "solve_interpolant", failing)
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
    from graphsplines import WeightedGraph

    def refuse(self):
        raise AssertionError("all-pairs metric built")

    monkeypatch.setattr(WeightedGraph, "metric", property(refuse))
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
