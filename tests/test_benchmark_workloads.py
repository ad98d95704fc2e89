"""Each benchmark workload's first job, run through the CLI and held to the workload's own output check.

A change that would fail the benchmark's checks fails here first, with and
without the per-layer tracer installed. The workloads and tracer files are
imported by path, so this runs without ``bench`` on ``sys.path``.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from graphsplines import cli

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
        # two Dirichlet-form Lagrange functions (traced as spline_regress) and one bordered basis
        assert tracer.metrics()["interpolation.systems"] == 3


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
