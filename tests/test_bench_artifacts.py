"""The machine description committed benchmark artifacts carry.

Multi-core claims are admitted only from artifacts that record more than
one CPU, so ``cpus`` must count the CPUs the bench process may run on
(its affinity set under ``taskset`` or a container cpuset), not every
online CPU of the host.
"""

import os
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_artifacts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_artifacts

    return bench_artifacts


def test_cpus_counts_the_affinity_set(bench_artifacts, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {3}, raising=False
    )
    assert bench_artifacts._environment()["cpus"] == 1


def test_cpus_falls_back_to_online_cpus(bench_artifacts, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert bench_artifacts._environment()["cpus"] == 64
