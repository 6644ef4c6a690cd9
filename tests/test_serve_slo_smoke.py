"""End-to-end smoke of the SLO load harness (``--runslow``).

Runs ``benchmarks/bench_serve_slo.py`` at miniature scale — a small
synthetic dataset, short phases, modest rates — and checks the contract
rather than the performance: the harness completes with concurrent
hot-swap writers, its artifact validates against the serve schema v2,
errors stay at zero, and p99 stays under a deliberately generous
ceiling (this is a does-it-work gate, not a benchmark; shared CI
runners are slow).  Two closed-loop floors, far below what a
workstation serves, still fail an order-of-magnitude collapse: 300 req/s
for single-row ``POST /match`` and for warm-cache
``GET /runs/<id>/patterns``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Attribute, Dataset, Schema

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def slo_results():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from bench_serve_slo import SLOBenchConfig, run_slo_bench
    finally:
        sys.path.remove(str(BENCHMARKS))

    rng = np.random.default_rng(99)
    n = 1500
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    dataset = Dataset(schema, {"x": x, "color": color}, group, ["A", "B"])
    config = SLOBenchConfig(
        workers=2,
        n_client_threads=2,
        batch_rows=32,
        target_rows_per_s=(4000,),
        phase_duration_s=2.0,
        hot_swap_interval_s=0.4,
        closed_loop_requests=400,
        closed_loop_batches=(1, 64),
        dataset=dataset,
    )
    text, results = run_slo_bench(config)
    return text, results


def test_harness_completes_and_reports(slo_results):
    text, results = slo_results
    assert "open-loop SLO phases" in text
    assert results["slo"], "no SLO phases reported"


def test_artifact_validates_as_schema_v2(slo_results):
    _, results = slo_results
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from bench_artifacts import validate_serve_artifact
    finally:
        sys.path.remove(str(BENCHMARKS))
    document = {
        "bench": "serve",
        "schema_version": 2,
        "results": results,
    }
    validate_serve_artifact(document)  # raises on any schema violation
    json.dumps(document)  # and it must be JSON-serializable as-is


def test_zero_errors_and_swaps_absorbed(slo_results):
    _, results = slo_results
    for phase in results["slo"]:
        assert phase["error_rate"] == 0.0, phase
        assert phase["requests"] > 0
        assert phase["hot_swaps"] >= 1, "writer never swapped mid-phase"


def test_p99_under_generous_ceiling(slo_results):
    _, results = slo_results
    for phase in results["slo"]:
        # loopback batch matching sits well under 100ms even on slow
        # shared runners; 1s means the server is drowning, not just slow
        assert phase["p99_ms"] < 1000.0, phase


def test_throughput_section_reports_speedup(slo_results):
    _, results = slo_results
    throughput = results["throughput"]
    assert throughput["baseline_v1_match_rps"] == 1054
    assert throughput["speedup_vs_v1"] > 0
    batch_keys = [
        k for k in throughput if k.startswith("match_batch")
        and k.endswith("_rows_per_s")
    ]
    assert batch_keys, throughput


def test_closed_loop_floors(slo_results):
    """Single-row matches and warm-cache pattern queries each clear
    300 req/s (1-row requests: rows/s is req/s)."""
    _, results = slo_results
    throughput = results["throughput"]
    assert throughput["match_single_rows_per_s"] >= 300, throughput
    assert throughput["patterns_rps"] >= 300, throughput
