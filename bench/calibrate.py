"""A fixed reference computation that measures how fast the host runs right now.

On a shared VM the same job runs up to a third faster or slower from one
minute to the next, and raw run medians of ``job_s`` spread by over 20% across
seeds. ``run.py`` times ``reference()`` just before every job and reports each
job's time over that reference time, which tracked the job within a few
percent. The reference mixes what the jobs spend time on: vectorised numpy,
copies of a 4.7 MB matrix and interpreted Python. It calls no BLAS or LAPACK,
so a program change to BLAS threading cannot change it.
"""
import time

import numpy as np

_rng = np.random.default_rng(0)
_values = _rng.random(300_000)
_matrix = _rng.random((768, 768))


def reference() -> float:
    """Wall time in seconds of one pass of the reference computation."""
    start = time.perf_counter()
    for _ in range(3):
        np.cumsum(np.sort(_values))
        m = np.ascontiguousarray(_matrix.T)
        m *= 0.5
        m += _matrix
    counts = {}
    for i in range(50_000):
        counts[i & 511] = counts.get(i & 511, 0) + i
    return time.perf_counter() - start
