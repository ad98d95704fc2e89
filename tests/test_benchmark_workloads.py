"""Each benchmark workload's first job, run through the CLI and held to the workload's own output check.

A change that would fail the benchmark's checks fails here first. The workloads
file is imported by path, so this runs without ``bench`` on ``sys.path``.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from graphsplines import cli

ROOT = Path(__file__).resolve().parent.parent


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_first_job_passes_its_check(monkeypatch, tmp_path, capsys, name):
    workload = _workloads(monkeypatch).WORKLOADS[name](tmp_path, 1)
    job = workload.job(0)
    for argv in job.calls:
        assert cli.main(argv) == 0, capsys.readouterr().err
    workload.check(job)
