"""Wall-clock checks: the process backend beats serial on CPU-bound work.

Each check times the same work twice, serially and on the process backend,
and requires the process run to finish first.  Two walls of a few tenths of
a second can race on a loaded host, so these checks stay out of the tier-1
suite (``tests/``), which checks only what the program computes.  Both skip
on a single-core host, where no pool can win.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_timing.py \\
        -o python_files="bench_*.py" -o python_functions="bench_*" -q
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import CodecProfiler
from repro.utils.parallel import map_parallel

multicore = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                               reason="speedup needs more than one core")


def _spin(seconds: float) -> float:
    # CPU-bound busy loop (does not release the GIL meaningfully);
    # module-level so the process backend can pickle it
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += 1.0
    return x


@multicore
def bench_process_backend_beats_serial_on_cpu_bound_work():
    items = [0.2] * 4
    start = time.perf_counter()
    map_parallel(_spin, items, max_workers=1, backend="serial")
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    map_parallel(_spin, items, max_workers=4, backend="process")
    process_wall = time.perf_counter() - start
    assert process_wall < serial_wall


@multicore
def bench_process_fanout_beats_serial_on_multicore():
    # ~0.2 s of serial SZ3 work, so the pool's fixed start-up (forking
    # this process, ~10 ms and more for a large one) stays a small share
    rng = np.random.default_rng(12345)
    data = {f"w{i}": rng.normal(size=80_000).astype(np.float32) for i in range(4)}
    start = time.perf_counter()
    CodecProfiler(sample_limit=None, candidates=("sz3",),
                  error_bounds=(1e-2, 1e-3, 1e-4)).profile_tensors(data)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    CodecProfiler(sample_limit=None, candidates=("sz3",),
                  error_bounds=(1e-2, 1e-3, 1e-4), backend="process",
                  workers=os.cpu_count()).profile_tensors(data)
    process_wall = time.perf_counter() - start
    assert process_wall < serial_wall
