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

from graphsplines import cli, cycle_graph, interpolation, io, spectral

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


def _count_eigh(monkeypatch):
    import scipy.linalg

    calls = []
    eigh = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


def test_cycle256_lagrange_makes_one_eigh_per_job(monkeypatch, tmp_path, capsys):
    # an integer alpha builds its Lagrange functions from the Dirichlet form; only the
    # truncated alpha = 1.5 call decomposes the Laplacian
    job = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1).job(0)
    calls = _count_eigh(monkeypatch)
    per_call = []
    for argv in job.calls:
        before = len(calls)
        assert cli.main(argv) == 0, capsys.readouterr().err
        per_call.append(len(calls) - before)
    assert per_call == [0, 0, 1, 0]


@pytest.mark.parametrize("call", [0, 1])  # the default and the --local alpha = 2 calls
def test_kernel_dump_still_writes_the_kernel(monkeypatch, tmp_path, capsys, call):
    workload = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1)
    argv = workload.job(0).calls[call]
    calls = _count_eigh(monkeypatch)
    kernel = tmp_path / "kernel.csv"
    assert cli.main([*argv, "--dump-kernel", str(kernel)]) == 0, capsys.readouterr().err
    assert len(calls) == 1
    rows = kernel.read_text().splitlines()
    assert len(rows) == workload.n and all(len(row.split(",")) == workload.n for row in rows)


def test_truncated_lagrange_builds_the_kernel_only_to_dump_it(monkeypatch, tmp_path, capsys):
    # the truncated alpha = 1.5 call decomposes the Laplacian once and forms no n x n kernel;
    # --dump-kernel builds that kernel from the same decomposition
    workload = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1)
    argv = workload.job(0).calls[2]
    assert "--truncate" in argv and argv[argv.index("--alpha") + 1] == "1.5"
    graph = io.read_edge_csv(argv[argv.index("--graph") + 1])
    expected = tmp_path / "expected.csv"
    io.write_matrix_csv(expected, spectral.pseudo_inverse_power(spectral.decompose_graph(graph), 1.5).matrix)

    eigh = _count_eigh(monkeypatch)
    kernels = _count_calls(monkeypatch, spectral, "pseudo_inverse_power")
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert (len(eigh), len(kernels)) == (1, 0)
    dumped = tmp_path / "kernel.csv"
    assert cli.main([*argv, "--dump-kernel", str(dumped)]) == 0, capsys.readouterr().err
    assert (len(eigh), len(kernels)) == (2, 1)
    assert dumped.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("call", [0, 1])  # the default and the --local calls, at a fractional alpha
def test_fractional_alpha_kernel_dump_decomposes_once(monkeypatch, tmp_path, capsys, call):
    # L^1.5 and the dumped kernel come from the same eigenpairs, so one eigh serves both
    argv = _workloads(monkeypatch).WORKLOADS["cycle256-lagrange"](tmp_path, 1).job(0).calls[call]
    if "--alpha" in argv:
        argv[argv.index("--alpha") + 1] = "1.5"
    else:
        argv += ["--alpha", "1.5"]
    calls = _count_eigh(monkeypatch)
    assert cli.main([*argv, "--dump-kernel", str(tmp_path / "kernel.csv")]) == 0, capsys.readouterr().err
    assert len(calls) == 1


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
