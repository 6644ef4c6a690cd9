"""Paths, seeds, the environment block and statistics shared by the
suite's scripts (``run.py``, ``workloads.py``, ``serve_target.py``,
``compare.py``)."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = SUITE / "expected.json"

DEFAULT_SEED = 0
"""The seed whose pattern digests ``expected.json`` commits."""


def load_benchmark() -> dict:
    """The benchmark definition: workloads, metric names, units, bounds."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def derive_seed(seed: int, *tags: object) -> int:
    """A generator seed for one input of one workload, fixed by ``seed``.

    Hashing keeps the derived seeds of different workloads and panel
    members independent of each other.
    """
    key = ":".join(str(part) for part in (seed, *tags)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def child_env() -> dict[str, str]:
    """Environment for suite subprocesses: the program under test is
    imported from ``src/`` of this checkout and from nowhere else."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Where and on what a result was measured (every result file)."""
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def cpu_seconds() -> float:
    """User plus system CPU seconds this process has used so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


REFERENCE_S = 0.030
"""What the reference loop takes at the speed every reported time is
scaled to: about its time on the 2-CPU machine of ``baseline.json`` in
its fast spells."""

_REFERENCE_ROWS = 8192


def _reference_loop(columns) -> int:
    """A fixed mix of the two kinds of work mining and serving do:
    interpreter work on dicts, tuples and small objects, and NumPy masks
    and counts over 8k-row columns, in about equal time."""
    import numpy as np

    counts: dict = {}
    for i in range(30_000):
        key = (i * 7919) % 1031, i & 7
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    codes, values, groups = columns
    total = len(ranked)
    for i in range(500):
        mask = (codes == (i & 3)) & (values < (i % 10) / 10)
        total += int(np.bincount(groups[mask], minlength=2)[0])
    return total


class Calibration:
    """Scales times measured on a machine whose speed drifts.

    On a shared virtual machine the CPU itself runs up to twice as fast
    in one minute as in another, for the program and for everything
    else, and CPU time slows with it.  So every measured operation is
    bracketed by the fixed reference loop, timed in CPU seconds of this
    thread (a process that preempts it does not count).  The machine's
    slowness during the operation is the mean of the two reference
    times around it over ``REFERENCE_S``, and the operation's time is
    divided by that slowness raised to the workload's ``sensitivity``.

    Workloads slow by different amounts when the machine does: a time
    ``t`` goes as slowness ** sensitivity.  Interpreter-bound mining
    slows as the loop does (1); memory-bound out-of-core mining less;
    serving, whose every request switches between two processes and
    makes system calls, more.  ``workloads.py`` gives each workload the
    sensitivity measured for it.  The loop is part of the benchmark, not
    of the program, so a change to the program moves the scaled time and
    a change of machine speed cancels out.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.columns = (rng.integers(0, 4, _REFERENCE_ROWS),
                        rng.random(_REFERENCE_ROWS),
                        rng.integers(0, 2, _REFERENCE_ROWS))
        self.reference_s: list[float] = []
        self._last: float | None = None
        _reference_loop(self.columns)  # warm up

    def _time_reference(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the loop
        try:
            started = time.thread_time()
            _reference_loop(self.columns)
            elapsed = time.thread_time() - started
        finally:
            if enabled:
                gc.enable()
        self.reference_s.append(elapsed)
        return elapsed

    def measure(self, operation, sensitivity: float):
        """``(operation(), scale)``: multiply a time measured within the
        operation by ``scale`` to get it at the reference speed.  The
        reference loop timed after one operation also serves as the one
        before the next."""
        before = (self._last if self._last is not None
                  else self._time_reference())
        result = operation()
        self._last = after = self._time_reference()
        slowness = (before + after) / (2 * REFERENCE_S)
        return result, slowness ** -sensitivity

    def timed(self, operation, sensitivity: float):
        """``(operation(), its wall seconds, the same at the reference
        speed)``."""
        def run():
            started = time.perf_counter()
            result = operation()
            return result, time.perf_counter() - started

        (result, elapsed), scale = self.measure(run, sensitivity)
        return result, elapsed, elapsed * scale

    def forget(self) -> None:
        """Time the reference loop afresh before the next operation
        (other work ran since the last one)."""
        self._last = None


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a spread is ``(q3 - q1) / median``."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
