"""Committed machine-readable benchmark artifacts.

Human-readable bench reports live in ``benchmarks/out/*.txt`` (see
``conftest.report``) and are regenerated locally.  Headline numbers that
the docs and CI refer to are additionally *committed* at the repo root
as ``BENCH_<name>.json`` so that a clone carries its own baseline:

* one JSON file per bench, written through :func:`write_bench_artifact`;
* a fixed envelope (``bench``, ``schema_version``, ``environment``,
  ``results``) with sorted keys and a trailing newline, so regenerating
  on the same machine produces a clean diff;
* ``results`` is flat-ish JSON: numbers, strings, and shallow dicts —
  anything a dashboard or a CI threshold check can consume without
  importing the package.

Benches call ``write_bench_artifact("columnar", {...})`` from their
``main()`` so artifacts refresh only on explicit standalone runs, never
as a pytest side effect.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 1

SERVE_V2_REQUIRED_PHASES = ("throughput", "slo")
"""Top-level result sections a schema-v2 serve artifact must carry."""

SERVE_V2_SLO_FIELDS = (
    "target_rps",
    "achieved_rps",
    "p50_ms",
    "p99_ms",
    "jitter_ms",
    "error_rate",
    "requests",
    "hot_swaps",
)
"""Per-SLO-phase fields (open-loop load: latency measured from the
*scheduled* send time, so queueing delay is charged to the server)."""


def _usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set (``taskset``,
    container cpusets) where the platform reports one, else every
    online CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _environment() -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": _usable_cpus(),
    }


def write_bench_artifact(
    name: str, results: dict, schema_version: int = SCHEMA_VERSION
) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path."""
    if not name.isidentifier():
        raise ValueError(f"artifact name must be identifier-like: {name!r}")
    path = REPO_ROOT / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "schema_version": schema_version,
        "environment": _environment(),
        "results": results,
    }
    if name == "serve" and schema_version >= 2:
        validate_serve_artifact(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def read_bench_artifact(name: str) -> dict:
    """Load a committed artifact (raises FileNotFoundError if absent)."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    return json.loads(path.read_text())


def validate_serve_artifact(document: dict) -> None:
    """Schema-v2 check for ``BENCH_serve.json`` (raises ``ValueError``).

    v2 replaces the flat v1 ``{match_rps, ...}`` shape with two result
    sections: ``throughput`` (closed-loop rows/s and req/s ceilings) and
    ``slo`` (a list of sustained open-loop phases, each reporting the
    :data:`SERVE_V2_SLO_FIELDS`).  The SLO smoke test and CI job both
    validate through this single function so the committed artifact and
    freshly generated ones cannot drift apart silently.
    """
    if document.get("bench") != "serve":
        raise ValueError("not a serve artifact")
    if int(document.get("schema_version", 0)) < 2:
        raise ValueError(
            f"serve artifact schema_version "
            f"{document.get('schema_version')!r} < 2"
        )
    results = document.get("results")
    if not isinstance(results, dict):
        raise ValueError("results must be a dict")
    for phase in SERVE_V2_REQUIRED_PHASES:
        if phase not in results:
            raise ValueError(f"results missing {phase!r} section")
    throughput = results["throughput"]
    if not isinstance(throughput, dict) or not throughput:
        raise ValueError("throughput section must be a non-empty dict")
    slo = results["slo"]
    if not isinstance(slo, list) or not slo:
        raise ValueError("slo section must be a non-empty list of phases")
    for i, entry in enumerate(slo):
        if not isinstance(entry, dict):
            raise ValueError(f"slo[{i}] must be a dict")
        missing = [f for f in SERVE_V2_SLO_FIELDS if f not in entry]
        if missing:
            raise ValueError(f"slo[{i}] missing fields: {missing}")
        if not 0.0 <= float(entry["error_rate"]) <= 1.0:
            raise ValueError(f"slo[{i}] error_rate out of [0, 1]")
