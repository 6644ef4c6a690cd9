"""Benchmark of record for the contrast-pattern miner and its server.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--trace [0|1]] [--out DIR] [--seconds S | --quick]

Every run measures ``run_seconds`` of ``BENCHMARK.json`` per workload;
``--seconds`` is accepted only with that value, so runs of one length
are all that can be compared.  ``--quick`` runs tiny inputs for 2 s.
Runs each workload (all four by default) in its own subprocess, so its
peak RSS and caches belong to it alone, and prints every metric as
``workload metric value unit``: the end-to-end metrics, or with
``--trace`` the per-layer metrics, as ``BENCHMARK.json`` names them.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each workload also writes
``<out>/<workload>.seed<N>.<plain|trace>.json`` (environment block,
metrics, details) and, traced, ``<workload>.seed<N>.spans.json``.

The program is imported from ``src/`` of this checkout; no file under
it is changed or instrumented.  If any workload fails to run, the exit
code is non-zero and no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import (
    DEFAULT_SEED,
    ROOT,
    SUITE,
    child_env,
    environment,
    load_benchmark,
)

WORK_ROOT = ROOT / ".suite_work"
DEFAULT_OUT = ROOT / ".suite_out"
QUICK_SECONDS = 2.0


class WorkloadError(RuntimeError):
    pass


def run_workload(name: str, args, seconds: float, spans: Path | None) -> dict:
    """One workload in a fresh interpreter; returns its result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    command = [
        sys.executable, str(SUITE / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--work", str(work),
    ]
    if args.trace:
        command.append("--trace")
        if spans is not None:
            command += ["--spans", str(spans)]
    if args.quick:
        command.append("--quick")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=3 * seconds + 100)
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{name}: timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    if proc.returncode != 0:
        raise WorkloadError(f"{name}: exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkloadError(f"{name}: printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the benchmark of record (see README.md)."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run; repeat for several "
                        "(default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or the bare flag): per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result files")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float,
                        help="measured seconds per workload; accepted "
                        "only as run_seconds of BENCHMARK.json, the one "
                        "length runs are compared at")
    length.add_argument("--quick", action="store_true",
                        help=f"tiny inputs and {QUICK_SECONDS:g} s, for "
                        "checking the harness")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else float(bench["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {bench['run_seconds']} "
                     "(run_seconds of BENCHMARK.json)")
    specs = bench["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in specs}
    workloads = args.workload or names
    env = environment()
    args.out.mkdir(parents=True, exist_ok=True)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        stem = f"{name}.seed{args.seed}"
        spans = args.out / f"{stem}.spans.json" if args.trace else None
        try:
            result = run_workload(name, args, seconds, spans)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"error: {name} reported metrics "
                  f"{sorted(result['metrics'])}, expected {sorted(units)}",
                  file=sys.stderr)
            return 1
        metrics = {metric: {"value": result["metrics"][metric],
                            "unit": unit}
                   for metric, unit in units.items()}
        for metric, entry in metrics.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for key, value in result["details"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                print(f"{name} detail.{key} {value:.6g}")
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "env": env,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "details": result["details"],
        }
        kind = "trace" if args.trace else "plain"
        (args.out / f"{stem}.{kind}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{name}/"
        summary["metrics"].update(
            {prefix + metric: entry for metric, entry in metrics.items()}
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
