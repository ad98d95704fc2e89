"""graphsplines benchmark: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload cycle256-lagrange --seed 1 --seconds 50 --trace 0

The run generates its inputs from ``--seed``, measures how long a fresh
interpreter takes to import ``graphsplines.cli`` (``setup_s``), runs one
untimed warm-up job, then runs jobs back to back until ``--seconds`` have
passed. A job calls ``graphsplines.cli.main(argv)`` in-process for each of its
CLI calls and then checks the files they wrote. Just before each job the run
times a fixed reference computation (``calibrate.py``); ``job_cal`` is the
median over jobs of job time divided by that reference time, so that the
host's speed, which drifts by tens of percent over minutes, cancels out of
it. With ``--trace 1`` every
other job runs with the per-layer tracer installed and the run reports
per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit. A fuller record (environment, input
digests, per-job times, spans) goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 7
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile

# BLAS runs on one thread, set before numpy is imported here and inherited by
# the set-up interpreters. With OpenBLAS's default of one thread per CPU, a
# job waits at every BLAS call for the slower of the two CPUs of a shared VM:
# single cycle256-lagrange jobs took 0.17 to 0.43 s (10th to 90th percentile)
# against 0.09 to 0.15 s on one thread, and a second busy process slowed them
# more than tenfold.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing ``graphsplines.cli``.

    One untimed import first, so that bytecode caches and the page cache are
    as warm as they are for a user's second invocation.
    """
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-c", "import graphsplines.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"importing graphsplines.cli failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def blas_record() -> list[dict]:
    """Each OpenBLAS that numpy and scipy load, with its build string and thread count."""
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    out = []
    for lib in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*")) + glob.glob(str(site / "scipy.libs" / "*openblas*"))):
        entry = {"library": Path(lib).name}
        try:
            handle = ctypes.CDLL(lib)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_runtime": blas_record(),
        "thread_env": {k: os.environ[k] for k in ("GSK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def run_job(cli, workload, job) -> str | None:
    """Run every CLI call of a job and check its outputs; returns an error or None."""
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return f"exit {code} from {' '.join(argv[:2])}: {err.getvalue().strip()}"
    workload.check(job)
    return None


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)

    if not (SRC / "graphsplines" / "cli.py").is_file():
        fail(f"no graphsplines sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    from calibrate import reference
    from tracing import Tracer, unit

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    setup_times = measure_setup()
    import graphsplines.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported graphsplines from {cli.__file__}, not from {SRC}")

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer()
    records = []
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        deadline = None
        index = 0
        while True:
            if deadline is not None and time.perf_counter() >= deadline and index > 2:
                break
            job = workload.job(index)
            traced = args.trace == 1 and index % 2 == 0 and index > 0
            scope = tracer.installed() if traced else contextlib.nullcontext()
            reference_s = reference()
            start = time.perf_counter()
            try:
                with scope:
                    error = run_job(cli, workload, job)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:  # a crash fails this job; the loop goes on
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            record = {"job": index, "seconds": elapsed, "reference_s": reference_s, "traced": traced, "warmup": index == 0,
                      "inputs": job.inputs, "error": error}
            if traced:
                record["layers"] = tracer.metrics()
                record["spans"] = [vars(s) for s in tracer.spans]
            records.append(record)
            if error:
                print(f"job {index} failed: {error}", file=sys.stderr)
            if index == 0:
                deadline = time.perf_counter() + args.seconds
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(records)
    failed = sum(1 for r in records if r["error"])
    measured = [r for r in records if not r["warmup"]]
    plain = [r["seconds"] for r in measured if not r["traced"]]
    ratios = [r["seconds"] / r["reference_s"] for r in measured if not r["traced"]]
    digest = hashlib.sha256(json.dumps([r["inputs"] for r in records], sort_keys=True).encode()).hexdigest()

    summary = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} fresh interpreters"),
        "job_s": (statistics.median(plain), "s", f"median of {len(plain)} untraced jobs"),
        "job_cal": (statistics.median(ratios), "1", f"median of {len(ratios)} job times over the reference time before each"),
    }
    if len(plain) >= P90_MIN_JOBS:
        beyond = sum(1 for t in plain if t > percentile(plain, 90))
        summary["job_s.p90"] = (percentile(plain, 90), "s", f"{len(plain)} jobs, {beyond} beyond")
    summary["peak_rss_mb"] = (peak_rss_mb, "MB", "ru_maxrss of this process")
    summary["failed_frac"] = (failed / attempted, "1", f"{failed} of {attempted} jobs, warm-up included")

    if args.trace:
        traced = [r for r in measured if r["traced"]]
        names = list(traced[0]["layers"])
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
        layers["trace.job_s"] = statistics.median(r["seconds"] for r in traced)
        layers["trace.overhead_frac"] = layers["trace.job_s"] / summary["job_s"][0] - 1
        layers["trace.spans"] = statistics.median(len(r["spans"]) for r in traced)
        reported = {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}
    else:
        keep = ("setup_s", "job_cal", "peak_rss_mb")
        reported = {name: {"value": summary[name][0], "unit": summary[name][1]} for name in keep}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "inputs_sha256": digest, "setup_times": setup_times,
        "summary": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in summary.items()},
        "metrics": reported, "jobs": records,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    print(f"inputs sha256 {digest}")
    env = result["environment"]
    print(f"nproc {env['nproc']}  cpu {env['cpu_model']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas threads {[b.get('threads') for b in env['blas_runtime']]}")
    for name, (value, name_unit, note) in summary.items():
        print(f"  {name:<12} {value:.6g} {name_unit:<5} ({note})")
    if args.trace:
        print(f"per layer, median per job over {len(traced)} traced jobs:")
        for name, entry in reported.items():
            print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
