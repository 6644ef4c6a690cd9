"""Smoke test of the benchmark suite.  It is not part of the tier-1
suite; run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py -q

It checks ``BENCHMARK.json`` against the benchmark contract, runs every
workload at a tiny size (``run.py --quick``), untraced and traced, and
checks the output schema; and it checks that the benchmark fails cleanly
where the program is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import BENCHMARK_JSON, ROOT, SUITE, load_benchmark

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/suite/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _compare(*dirs: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "compare.py"), *map(str, dirs)],
        capture_output=True, text=True, timeout=60,
    )


def test_benchmark_json_follows_the_contract():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert len(BENCHMARK_JSON.read_bytes()) <= 64 * 1024
    command = bench["command"]
    assert 1 <= len(command) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in command)
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.fullmatch(path) and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60

    workloads = bench["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric

    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(tmp_path, trace):
    bench = load_benchmark()
    done = _run("--quick", "--trace", str(trace), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1

    specs = bench["per_layer" if trace else "end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for spec in specs:
            entry = summary["metrics"][f"{workload}/{spec['name']}"]
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], float)
            if not trace:
                assert entry["value"] > 0, (workload, spec["name"])
            line = f"{workload} {spec['name']} "
            assert line in done.stdout

        kind = "trace" if trace else "plain"
        record = json.loads(
            (tmp_path / f"{workload}.seed0.{kind}.json").read_text())
        assert {"usable_cpus", "loadavg_at_start", "python", "numpy",
                "git_commit"} <= set(record["env"])
        assert record["seed"] == 0
        if trace:
            assert (tmp_path / f"{workload}.seed0.spans.json").is_file()

    if not trace:
        # A set compared with itself agrees; a set missing a workload
        # does not.
        compared = _compare(tmp_path, tmp_path)
        assert compared.returncode == 0, compared.stdout + compared.stderr
        assert compared.stdout.rstrip().endswith("sets agree: yes")
        partial = tmp_path / "partial"
        partial.mkdir()
        for path in tmp_path.glob("mine_*.plain.json"):
            shutil.copy(path, partial)
        compared = _compare(tmp_path, partial)
        assert compared.returncode == 1, compared.stdout + compared.stderr
        assert "B missing" in compared.stdout
        assert compared.stdout.rstrip().endswith("sets agree: no")
    else:
        value = {key: entry["value"]
                 for key, entry in summary["metrics"].items()}
        assert value["mine_census_cat_d3/partition.split.calls"] == 0
        assert value["mine_census_cat_d3/counting.count.calls"] > 0
        assert value["mine_adult_d3/partition.split.calls"] > 0
        assert value["mine_chunked_256k/dataset.chunked.read.calls"] > 0
        assert value["serve_match/index.match.calls"] > 0
        assert value["serve_match/store.put.calls"] > 0


def test_single_workload_summary_uses_plain_names(tmp_path):
    bench = load_benchmark()
    done = _run("--quick", "--workload", "mine_adult_d3",
                "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary["metrics"]) == {m["name"] for m in bench["end_to_end"]}

    # A second run of the same seed in one set is refused, not merged.
    written = tmp_path / "mine_adult_d3.seed0.plain.json"
    (tmp_path / "again.json").write_text(written.read_text())
    compared = _compare(tmp_path)
    assert compared.returncode == 2
    assert "appears twice" in compared.stderr


def test_refuses_another_run_length(tmp_path):
    seconds = load_benchmark()["run_seconds"]
    done = _run("--workload", "mine_adult_d3", "--seconds", str(seconds + 1),
                "--out", str(tmp_path))
    assert done.returncode == 2
    assert "--seconds must be" in done.stderr
    assert not done.stdout


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--quick", "--workload", "mine_adult_d3", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{")
                   for line in done.stdout.splitlines())
