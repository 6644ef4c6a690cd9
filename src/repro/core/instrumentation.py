"""Counters for the experiments' cost reporting (paper Table 5).

Table 5 reports wall time and the *number of partitions evaluated* per
miner; every space or candidate whose supports are actually counted bumps
``partitions_evaluated``.  The other counters feed the ablation benches.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "MiningStats",
    "Stopwatch",
    "EndpointStats",
    "ServeMetrics",
    "merge_endpoint_snapshots",
]


@dataclass
class MiningStats:
    """Mutable counters threaded through a mining run."""

    partitions_evaluated: int = 0
    spaces_pruned: int = 0
    sdad_calls: int = 0
    merges_performed: int = 0
    candidates_generated: int = 0
    nodes_expanded: int = 0
    elapsed_seconds: float = 0.0
    count_calls: int = 0
    """Raw backend counting calls (itemset and cover group-counts alike)."""
    cache_hits: int = 0
    """Always 0: the counter keeps no counts cache since 1.9.0.  Kept
    because ``benchmarks/suite/workloads.py`` reads it."""
    cache_misses: int = 0
    """Always 0, like :attr:`cache_hits`."""
    batch_calls: int = 0
    """``group_counts_batch`` invocations on the counting backend."""
    batched_candidates: int = 0
    """Candidates counted through ``group_counts_batch`` (each also bumps
    ``count_calls``)."""
    batch_fallbacks: int = 0
    """Batched candidates counted one by one on their packed covers
    (itemsets with a numeric item, or over the table bound)."""
    prune_rule_checks: dict[str, int] = field(default_factory=dict)
    """Per pipeline rule: candidates the rule examined."""
    prune_rule_hits: dict[str, int] = field(default_factory=dict)
    """Per pipeline rule: candidates the rule pruned."""
    prune_rule_seconds: dict[str, float] = field(default_factory=dict)
    """Per pipeline rule: wall time spent inside the rule's check."""
    prune_reasons: dict[str, int] = field(default_factory=dict)
    """Unique pruned keys per :class:`PruneReason` name (the Table-4-style
    ablation view; sourced from the prune lookup table)."""
    prune_table_checks: int = 0
    """Prune lookup-table probes (Algorithm 1 lines 7-9)."""
    prune_table_hits: int = 0
    """Probes that found the key already pruned (skipped re-evaluation)."""
    tasks_retried: int = 0
    """Parallel tasks re-dispatched after a failed attempt."""
    task_timeouts: int = 0
    """Task attempts abandoned for exceeding the per-task budget."""
    task_errors: int = 0
    """Task attempts that raised inside a worker (poison-pill shards)."""
    corrupt_results: int = 0
    """Task attempts whose returned result failed validation."""
    worker_crashes: int = 0
    """Pool-breaking worker crashes (``BrokenProcessPool`` events)."""
    pool_restarts: int = 0
    """Times the process pool was rebuilt after breaking."""
    serial_fallbacks: int = 0
    """Tasks re-executed serially in the parent after exhausting retries."""
    tasks_failed: int = 0
    """Tasks that failed permanently (even the serial fallback)."""
    checkpoints_written: int = 0
    """Level-boundary checkpoints persisted during the run."""
    resumed_from_level: int = 0
    """Deepest completed level restored from a checkpoint (0 = fresh run)."""

    def merge_from(self, other: "MiningStats") -> None:
        """Accumulate counters from a sub-run (used by the parallel driver)."""
        self.partitions_evaluated += other.partitions_evaluated
        self.spaces_pruned += other.spaces_pruned
        self.sdad_calls += other.sdad_calls
        self.merges_performed += other.merges_performed
        self.candidates_generated += other.candidates_generated
        self.nodes_expanded += other.nodes_expanded
        self.count_calls += other.count_calls
        self.batch_calls += other.batch_calls
        self.batched_candidates += other.batched_candidates
        self.batch_fallbacks += other.batch_fallbacks
        for name, value in other.prune_rule_checks.items():
            self.prune_rule_checks[name] = (
                self.prune_rule_checks.get(name, 0) + value
            )
        for name, value in other.prune_rule_hits.items():
            self.prune_rule_hits[name] = (
                self.prune_rule_hits.get(name, 0) + value
            )
        for name, seconds in other.prune_rule_seconds.items():
            self.prune_rule_seconds[name] = (
                self.prune_rule_seconds.get(name, 0.0) + seconds
            )
        for name, value in other.prune_reasons.items():
            self.prune_reasons[name] = (
                self.prune_reasons.get(name, 0) + value
            )
        self.prune_table_checks += other.prune_table_checks
        self.prune_table_hits += other.prune_table_hits
        self.tasks_retried += other.tasks_retried
        self.task_timeouts += other.task_timeouts
        self.task_errors += other.task_errors
        self.corrupt_results += other.corrupt_results
        self.worker_crashes += other.worker_crashes
        self.pool_restarts += other.pool_restarts
        self.serial_fallbacks += other.serial_fallbacks
        self.tasks_failed += other.tasks_failed
        self.checkpoints_written += other.checkpoints_written
        # A driver-level marker, not an additive event counter.
        self.resumed_from_level = max(
            self.resumed_from_level, other.resumed_from_level
        )


class Stopwatch:
    """Context manager measuring wall time into ``MiningStats``."""

    def __init__(self, stats: MiningStats) -> None:
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stats.elapsed_seconds += time.perf_counter() - self._start


class EndpointStats:
    """Request/latency/error counters for one served endpoint.

    Latencies go into a bounded reservoir (the most recent observations),
    which is enough for the p50/p99 the serving layer reports without
    unbounded memory on a long-lived server.  Thread-safe: the serving
    layer observes from many handler threads at once.
    """

    __slots__ = ("requests", "errors", "total_seconds", "_latencies", "_lock")

    def __init__(self, reservoir: int = 4096) -> None:
        self.requests = 0
        self.errors = 0
        self.total_seconds = 0.0
        self._latencies: deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def observe(self, seconds: float, error: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1
            self.total_seconds += seconds
            self._latencies.append(seconds)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the reservoir."""
        with self._lock:
            sample = sorted(self._latencies)
        if not sample:
            return 0.0
        rank = max(0, min(len(sample) - 1, int(round(q / 100.0 * (len(sample) - 1)))))
        return sample[rank]

    def snapshot(self) -> dict:
        with self._lock:
            requests = self.requests
            errors = self.errors
            total = self.total_seconds
        return {
            "requests": requests,
            "errors": errors,
            "mean_ms": (total / requests * 1000.0) if requests else 0.0,
            "p50_ms": self.percentile(50.0) * 1000.0,
            "p99_ms": self.percentile(99.0) * 1000.0,
        }


def merge_endpoint_snapshots(snapshots) -> dict:
    """Merge per-endpoint snapshots from several serving processes.

    ``snapshots`` is an iterable of :meth:`ServeMetrics.snapshot` dicts
    (one per worker).  Request and error counts sum exactly — that is
    the invariant the multi-worker hammer test asserts against
    client-observed totals.  ``mean_ms`` merges request-weighted;
    ``p50_ms``/``p99_ms`` cannot be merged exactly from summaries, so
    the merged view reports the worst (max) worker's value as a
    conservative bound (per-worker exact percentiles stay available in
    the unmerged snapshots).
    """
    merged: dict[str, dict] = {}
    weighted_ms: dict[str, float] = {}
    for snapshot in snapshots:
        for name, stats in snapshot.items():
            agg = merged.setdefault(
                name,
                {
                    "requests": 0,
                    "errors": 0,
                    "mean_ms": 0.0,
                    "p50_ms": 0.0,
                    "p99_ms": 0.0,
                },
            )
            requests = int(stats.get("requests", 0))
            agg["requests"] += requests
            agg["errors"] += int(stats.get("errors", 0))
            weighted_ms[name] = weighted_ms.get(name, 0.0) + (
                float(stats.get("mean_ms", 0.0)) * requests
            )
            agg["p50_ms"] = max(agg["p50_ms"], float(stats.get("p50_ms", 0.0)))
            agg["p99_ms"] = max(agg["p99_ms"], float(stats.get("p99_ms", 0.0)))
    for name, agg in merged.items():
        if agg["requests"]:
            agg["mean_ms"] = weighted_ms[name] / agg["requests"]
    return merged


class ServeMetrics:
    """Per-endpoint :class:`EndpointStats`, created on first observation."""

    def __init__(self) -> None:
        self._endpoints: dict[str, EndpointStats] = {}
        self._lock = threading.Lock()

    def endpoint(self, name: str) -> EndpointStats:
        with self._lock:
            stats = self._endpoints.get(name)
            if stats is None:
                stats = self._endpoints[name] = EndpointStats()
            return stats

    def observe(self, name: str, seconds: float, error: bool = False) -> None:
        self.endpoint(name).observe(seconds, error)

    def snapshot(self) -> dict:
        with self._lock:
            names = list(self._endpoints)
        return {name: self._endpoints[name].snapshot() for name in names}
