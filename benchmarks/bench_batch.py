"""Vectorized level-batch evaluation engine: end-to-end speed and parity.

Times the depth-3 Adult mining run (bitmap backend) through the batch
evaluator, the miners' one path from candidate to verdict.  Parity is
asserted the strong way: each scale's pattern list must hash to the
sha256 fingerprint committed in ``BENCH_batch.json`` when the
per-candidate scalar driver still existed and produced the same bytes
(``FINGERPRINTS`` below), so the timed computation is provably the one
that reference made.

The speed is interpreter-bound: per-candidate Python overhead dominates
at small and medium row counts, and O(n) counting takes over as the
data grows.  DESIGN.md §7 and §12 keep the scalar driver's v1.5.0
timings for comparison.

Results are committed as ``BENCH_batch.json`` at the repo root (see
``bench_artifacts.py``).

Run standalone:  PYTHONPATH=src python benchmarks/bench_batch.py
Under pytest the bench runs a reduced smoke check (fewer repeats, the
small scale only); the committed artifact is refreshed only by
standalone runs.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import uci

DEPTH = 3
BACKEND = "bitmap"
SCALES = (0.15, 1.0)
REPEATS = 5

#: Pattern fingerprints per scale, as committed in ``BENCH_batch.json``.
FINGERPRINTS = {
    0.15: "47f1176728332720763ededcb6cc91d30bd443cf1eb4ff20acf00ac31ebf71ce",
    1.0: "c854b42be06a17603a71c7f8c27f04a6f7ea392ab15b124e9568b7a14ee530ab",
}


def _fingerprint(patterns) -> str:
    payload = json.dumps(patterns_to_dicts(patterns), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _time_mine(dataset, repeats: int):
    config = MinerConfig(max_tree_depth=DEPTH, counting_backend=BACKEND)
    result = ContrastSetMiner(config).mine(dataset)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        result = ContrastSetMiner(config).mine(dataset)
        best = min(best, perf_counter() - start)
    return best, result


def run_bench(scales=SCALES, repeats=REPEATS) -> dict:
    results: dict[str, object] = {
        "dataset": "adult",
        "depth": DEPTH,
        "backend": BACKEND,
        "repeats": repeats,
    }
    for scale in scales:
        dataset = uci.adult(scale=scale)
        seconds, result = _time_mine(dataset, repeats)
        fp = _fingerprint(result.patterns)
        assert fp == FINGERPRINTS[scale], (
            "patterns drifted from the committed fingerprint at scale %s"
            % scale
        )
        tag = str(scale).replace(".", "_")
        results[f"scale_{tag}"] = {
            "n_rows": dataset.n_rows,
            "batch_seconds": round(seconds, 4),
            "n_patterns": len(result.patterns),
            "patterns_sha256": fp,
        }
    return results


def test_batch_driver_matches_committed_fingerprint():
    """Smoke: the small scale mines the committed patterns."""
    results = run_bench(scales=(0.15,), repeats=2)
    assert results["scale_0_15"]["patterns_sha256"] == FINGERPRINTS[0.15]


def main() -> None:
    from bench_artifacts import write_bench_artifact

    results = run_bench()
    path = write_bench_artifact("batch", results)
    print(f"wrote {path}")
    for key, value in results.items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
