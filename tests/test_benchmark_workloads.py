"""Each benchmark workload's first job, run through the CLI and held to the workload's own output check.

A change that would fail the benchmark's checks fails here first, with and
without the per-layer tracer installed. The workloads and tracer files are
imported by path, so this runs without ``bench`` on ``sys.path``.
"""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from graphsplines import cli, cycle_graph, interpolation, ml, spectral

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    return _bench_module(monkeypatch, "workloads")


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_first_job_passes_its_check(monkeypatch, tmp_path, capsys, name):
    workload = _workloads(monkeypatch).WORKLOADS[name](tmp_path, 1)
    job = workload.job(0)
    for argv in job.calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    workload.check(job)


def _bindings(tracing):
    modules = [importlib.import_module("graphsplines")]
    modules += [importlib.import_module(f"graphsplines.{m}") for m in tracing.MODULES]
    return {(module.__name__, attr): value for module in modules for attr, value in vars(module).items()}


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_first_job_passes_its_check_under_the_tracer(monkeypatch, tmp_path, capsys, name):
    tracing = _bench_module(monkeypatch, "tracing")
    workload = _workloads(monkeypatch).WORKLOADS[name](tmp_path, 1)
    job = workload.job(0)
    solves = _count_calls(monkeypatch, interpolation, "_solve_symmetric")
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in job.calls:
            assert cli.main(argv) == 0, capsys.readouterr().err
    assert [span.name for span in tracer.spans if span.parent == -1] == ["cli.main"] * len(job.calls)
    after = _bindings(tracing)
    assert after.keys() == before.keys() and all(after[key] is value for key, value in before.items())
    workload.check(job)
    if name == "cycle256-lagrange":
        # three Dirichlet-form Lagrange functions, the third for the truncated function; each one
        # goes through spline_regress, so the tracer counts every system the one solve primitive sees
        assert len(solves) == 3
        assert tracer.metrics()["interpolation.systems"] == 3
        truncations = [span for span in tracer.spans if span.name == "interpolation.truncated_lagrange"]
        assert len(truncations) == 1 and tracer.spans[truncations[0].parent].name == "cli.main"


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through any graphsplines module that binds it."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    package = [m for key, m in list(sys.modules.items()) if key == "graphsplines" or key.startswith("graphsplines.")]
    for m in package:
        for attr, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, attr, counting)
    return calls


def test_cv768_makes_one_baseline_product_per_repeat(monkeypatch, tmp_path, capsys):
    # the baseline's sparse product covers a whole repeat; the spline still solves once per fold
    workload = _workloads(monkeypatch).WORKLOADS["cv768"](tmp_path, 1)
    baselines = _count_calls(monkeypatch, ml, "_nnr_predictions")
    solves = _count_calls(monkeypatch, interpolation, "_solve_symmetric")
    for argv in workload.job(0).calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert (len(baselines), len(solves)) == (workload.repeats, workload.folds * workload.repeats)


def test_cv768_forms_no_dense_laplacian_power(monkeypatch, tmp_path, capsys):
    # an integer alpha reads its fold blocks from the CSR power, so the dense n x n L^alpha is never built
    power = ml._power

    def refuse_dense(*args, **kwargs):
        result = power(*args, **kwargs)
        if not isinstance(result, csr_matrix):
            raise AssertionError("dense L^alpha built")
        return result

    monkeypatch.setattr(ml, "_power", refuse_dense)
    workload = _workloads(monkeypatch).WORKLOADS["cv768"](tmp_path, 1)
    job = workload.job(0)
    for argv in job.calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    workload.check(job)


def test_cycle256_lagrange_makes_one_eigh_per_job(monkeypatch, tmp_path, capsys, decompositions):
    # an integer alpha builds its Lagrange functions from the Dirichlet form; only the
    # truncated alpha = 1.5 call decomposes the Laplacian (by either driver)
    job = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1).job(0)
    per_call = []
    for argv in job.calls:
        before = len(decompositions)
        assert cli.main(argv) == 0, capsys.readouterr().err
        per_call.append(len(decompositions) - before)
    assert per_call == [0, 0, 1, 0]


def test_a_fractional_spline_forms_no_eigenpair_power(monkeypatch, tmp_path, capsys, decompositions):
    # a cycle256-lagrange job decomposes once, by one SVD; its truncated alpha = 1.5 call, like an
    # alpha = 1.5 interp, solves the Gram form of the eigenpairs and forms no n x n power Q diag(w) Q^T
    job = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1).job(0)
    powers = _count_calls(monkeypatch, spectral, "_spectral_power")
    for argv in job.calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert decompositions == ["svd"] and len(powers) == 0
    argv = job.calls[2]
    known = tmp_path / "known.csv"
    known.write_text("vertex,value\n" + "".join(f"{v},{np.sin(v):.17g}\n" for v in range(0, 256, 4)))
    interp = ["interp", "--graph", argv[argv.index("--graph") + 1], "--known", str(known), "--alpha", "1.5"]
    assert cli.main([*interp, "-o", str(tmp_path / "s.csv")]) == 0, capsys.readouterr().err
    assert decompositions == ["svd", "svd"] and len(powers) == 0


def test_truncated_lagrange_builds_the_kernel_only_to_dump_it(monkeypatch, tmp_path, capsys, decompositions):
    # the truncated alpha = 1.5 call decomposes the Laplacian once and forms no n x n kernel
    workload = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1)
    argv = workload.job(0).calls[2]
    assert "--truncate" in argv and argv[argv.index("--alpha") + 1] == "1.5"
    kernels = _count_calls(monkeypatch, spectral, "pseudo_inverse_power")
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert (len(decompositions), len(kernels)) == (1, 0)


def _cycle32():
    """A 32-cycle, its decomposition and every 4th vertex as nodes."""
    graph = cycle_graph(32)
    return graph, spectral.decompose_graph(graph), np.arange(0, 32, 4)


def test_only_the_bordered_check_builds_a_kernel(monkeypatch, capsys):
    # every solve takes alpha, not a kernel; verify coeff-symmetry builds one per trial to check against
    kernels = _count_calls(monkeypatch, spectral, "pseudo_inverse_power")
    assert cli.main(["verify", "min-norm", "--trials", "3"]) == 0, capsys.readouterr().err
    assert len(kernels) == 0
    graph, s, nodes = _cycle32()
    p = interpolation.InterpolationProblem(graph, s, 2.0, nodes, np.sin(nodes))
    interpolation.evaluate(interpolation.solve_interpolant(p), p)
    interpolation.lagrange_basis(2.0, s, graph, nodes)
    interpolation.local_lagrange(2.0, s, graph, nodes, 0, 8.0)
    interpolation.truncated_lagrange(2.0, s, graph, nodes, 0, 8.0)
    assert len(kernels) == 0
    assert cli.main(["verify", "coeff-symmetry", "--trials", "3"]) == 0, capsys.readouterr().err
    assert len(kernels) == 3


def test_tracer_binds_the_solve_routines_by_their_parameter_names(monkeypatch):
    # The count hooks read p, nodes, and graph, nodes, center and radius by name, after the call. A
    # renamed parameter fails here. Counter values are not asserted.
    tracing = _bench_module(monkeypatch, "tracing")
    graph, s, nodes = _cycle32()
    tracer = tracing.Tracer()
    with tracer.installed():
        interpolation.solve_interpolant(interpolation.InterpolationProblem(graph, s, 2.0, nodes, np.sin(nodes)))
        interpolation.lagrange_basis(2.0, s, graph, nodes)
        interpolation.local_lagrange(2.0, s, graph, nodes, 0, 8.0)
        interpolation.truncated_lagrange(2.0, s, graph, nodes, 0, 8.0)
    names = ("solve_interpolant", "lagrange_basis", "local_lagrange", "truncated_lagrange")
    assert [span.name for span in tracer.spans if span.parent == -1] == [f"interpolation.{n}" for n in names]
