"""Sustained-load SLO harness for the serving layer (owns BENCH_serve.json).

Besides asking "how fast can a closed loop of clients drain the
server?", this harness asks the production question: *does the server
hold its latency SLO under a fixed offered load, while new runs are
being published underneath it?*  Methodology:

* **Open-loop arrivals.**  Requests are scheduled on a fixed cadence
  derived from the target rate, and every latency is measured from the
  request's *scheduled* send time — not from when the client got around
  to sending it.  A closed loop hides overload (a slow server slows its
  own clients, flattering the percentiles; "coordinated omission"); an
  open loop charges queueing delay to the server where it belongs.
* **Concurrent writers.**  A writer thread keeps appending runs to the
  store mid-phase, so every SLO figure includes the cost of hot swaps
  (multi-worker mode: store-epoch polling; single mode: explicit
  ``publish_run``).
* **Batched match traffic.**  Clients POST ``{"rows": [...]}`` batches —
  the vectorized hot path — so the harness reports both request and
  row throughput.

Reported per phase: achieved rows/s vs target, p50/p99 (scheduled-send
based), jitter (p99 − p50), error rate, hot swaps absorbed.  The
``throughput`` section additionally reports closed-loop batch ceilings,
the speedup over the committed v1 single-row baseline, and the
closed-loop ceiling of ``GET /runs/<id>/patterns`` queries answered from
a warm query cache by a one-process server (``patterns_rps``).

Run standalone:  PYTHONPATH=src python benchmarks/bench_serve_slo.py
Standalone runs refresh the committed ``BENCH_serve.json`` (schema v2,
validated by ``bench_artifacts.validate_serve_artifact``).  The pytest
smoke lives in ``tests/test_serve_slo_smoke.py`` (``--runslow``).
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import ContrastSetMiner, MinerConfig
from repro.serve import (
    PatternServer,
    PatternStore,
    ServeConfig,
    reuseport_available,
)
from repro.serve.index import row_from_dataset

V1_BASELINE_MATCH_RPS = 1054
"""Single-row closed-loop req/s committed before the vectorized plan."""

PATTERN_QUERY_SHAPES = (
    "",
    "limit=5",
    "min_diff=0.1&limit=10",
    "sort=purity_ratio&limit=5",
    "min_pr=0.3&sort=support_difference",
)
"""``GET /runs/<id>/patterns`` query strings of the patterns ceiling."""

PATTERNS_CACHE_SIZE = 256
"""Query-cache entries of the patterns ceiling's server."""


@dataclass
class SLOBenchConfig:
    """Everything the harness needs; the smoke test shrinks these."""

    workers: int = 2
    n_client_threads: int = 4
    batch_rows: int = 64
    target_rows_per_s: tuple = (5_000, 15_000)
    phase_duration_s: float = 4.0
    hot_swap_interval_s: float = 0.5
    closed_loop_requests: int = 300
    closed_loop_batches: tuple = (1, 64, 512)
    store_poll_interval: float = 0.05
    dataset: object = None
    """Pre-built dataset (defaults to UCI Adult when None)."""
    mine_config: MinerConfig = field(
        default_factory=lambda: MinerConfig(max_tree_depth=2)
    )


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _sample_rows(dataset, n: int = 256) -> list[dict]:
    step = max(1, dataset.n_rows // n)
    return [
        row_from_dataset(dataset, i) for i in range(0, dataset.n_rows, step)
    ]


class _SwapWriter(threading.Thread):
    """Publishes a fresh run into the store every ``interval`` seconds."""

    def __init__(self, store, result, interval: float, server=None) -> None:
        super().__init__(name="slo-swap-writer", daemon=True)
        self._store = store
        self._result = result
        self._interval = interval
        self._server = server  # set in single mode: explicit publish
        self._halt = threading.Event()  # "_stop" is Thread-internal
        self.swaps = 0

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            run_id = self._store.put(self._result, tags=("slo-swap",))
            if self._server is not None:
                self._server.publish_run(run_id)
            self.swaps += 1

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _closed_loop(host, port, payloads, n_requests, n_threads,
                 method="POST"):
    """Hammer keep-alive connections; return (latencies, elapsed, rows).

    Each payload is ``(target, n_rows)``: a body POSTed to ``/match``,
    or with ``method="GET"`` a path to GET.
    """
    latencies: list[list[float]] = [[] for _ in range(n_threads)]
    rows_done = [0] * n_threads
    errors: list = []
    per_thread = max(1, n_requests // n_threads)

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for i in range(per_thread):
                target, n_rows = payloads[(slot + i) % len(payloads)]
                started = perf_counter()
                if method == "GET":
                    conn.request("GET", target)
                else:
                    conn.request("POST", "/match", body=target)
                response = conn.getresponse()
                response.read()
                latencies[slot].append(perf_counter() - started)
                if response.status >= 500:
                    errors.append(response.status)
                    return
                rows_done[slot] += n_rows
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(s,)) for s in range(n_threads)
    ]
    started = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = perf_counter() - started
    assert not errors, f"server returned 5xx: {errors}"
    return [x for per in latencies for x in per], elapsed, sum(rows_done)


def _open_loop_phase(
    host,
    port,
    payloads,
    target_rows_per_s: float,
    batch_rows: int,
    duration_s: float,
    n_threads: int,
):
    """One sustained-load phase; returns the per-phase stats dict (sans
    ``hot_swaps``, which the caller owns).

    The global arrival schedule (one batch every
    ``batch_rows / target_rows_per_s`` seconds) is split round-robin
    across the client threads; each thread sleeps until a batch's
    scheduled time and never skips a late slot, so backlog shows up as
    latency rather than as silently shed load.
    """
    interval = batch_rows / target_rows_per_s
    n_total = max(n_threads, int(duration_s / interval))
    latencies: list[list[float]] = [[] for _ in range(n_threads)]
    error_counts = [0] * n_threads

    barrier = threading.Barrier(n_threads + 1)

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            barrier.wait()
            epoch = perf_counter()
            for k in range(slot, n_total, n_threads):
                scheduled = epoch + k * interval
                delay = scheduled - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                body, _ = payloads[k % len(payloads)]
                try:
                    conn.request("POST", "/match", body=body)
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    status = 599
                # Latency from the *scheduled* send time: queueing delay
                # (ours or the server's) is charged to this request.
                latencies[slot].append(perf_counter() - scheduled)
                if status >= 500:
                    error_counts[slot] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(s,)) for s in range(n_threads)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = perf_counter()
    for t in threads:
        t.join()
    elapsed = perf_counter() - started

    flat = [x for per in latencies for x in per]
    n_requests = len(flat)
    p50 = _percentile(flat, 0.50) * 1e3
    p99 = _percentile(flat, 0.99) * 1e3
    return {
        "target_rps": round(target_rows_per_s),
        "achieved_rps": round(n_requests * batch_rows / elapsed),
        "batch_rows": batch_rows,
        "requests": n_requests,
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "jitter_ms": round(p99 - p50, 3),
        "error_rate": round(sum(error_counts) / max(1, n_requests), 6),
    }


def _patterns_ceiling(store, run_id, config: SLOBenchConfig):
    """Closed-loop ``GET /runs/<run_id>/patterns`` ceiling of a
    one-process server whose query cache every shape has warmed;
    returns (latencies, elapsed)."""
    server = PatternServer(
        store, ServeConfig(port=0, cache_size=PATTERNS_CACHE_SIZE)
    )
    server.publish_run(run_id)
    host, port = server.start()
    try:
        queries = [
            (f"/runs/{run_id}/patterns?{shape}".rstrip("?"), 0)
            for shape in PATTERN_QUERY_SHAPES
        ]
        _closed_loop(  # warm-up: each client sends every shape once
            host, port, queries, len(queries) * config.n_client_threads,
            config.n_client_threads, method="GET",
        )
        lat, elapsed, _ = _closed_loop(
            host, port, queries, config.closed_loop_requests,
            config.n_client_threads, method="GET",
        )
    finally:
        server.stop()
    return lat, elapsed


def run_slo_bench(config: SLOBenchConfig | None = None):
    """Run the full harness; returns (report text, schema-v2 results)."""
    config = config or SLOBenchConfig()
    dataset = config.dataset
    if dataset is None:
        from repro.dataset import uci

        dataset = uci.adult()
    result = ContrastSetMiner(config.mine_config).mine(dataset)

    workers = config.workers if reuseport_available() else 1
    rows = _sample_rows(dataset)
    single_payloads = [
        (json.dumps({"row": row}), 1) for row in rows[:64]
    ]

    def batch_payloads(batch_rows: int) -> list:
        out = []
        for start in range(0, max(1, len(rows) - batch_rows), 17):
            chunk = (rows * ((batch_rows // len(rows)) + 2))[
                start : start + batch_rows
            ]
            out.append((json.dumps({"rows": chunk}), len(chunk)))
            if len(out) == 8:
                break
        return out

    with tempfile.TemporaryDirectory() as tmp:
        store = PatternStore(Path(tmp) / "store")
        run_id = store.put(result, tags=("slo",))
        server = PatternServer(
            store,
            ServeConfig(
                port=0,
                cache_size=0,  # measure matching, not the LRU
                workers=workers,
                store_poll_interval=config.store_poll_interval,
                max_batch_rows=max(4096, max(config.closed_loop_batches)),
            ),
        )
        if workers <= 1:
            server.publish_run(run_id)
        host, port = server.start()
        try:
            # ---- closed-loop throughput ceilings ----
            throughput: dict[str, object] = {
                "n_rows": dataset.n_rows,
                "n_patterns": len(result.patterns),
                "workers": workers,
                "mode": server.mode,
                "client_threads": config.n_client_threads,
                "baseline_v1_match_rps": V1_BASELINE_MATCH_RPS,
            }
            tp_lines = []
            for batch in config.closed_loop_batches:
                payloads = (
                    single_payloads if batch == 1 else batch_payloads(batch)
                )
                _closed_loop(  # warm-up
                    host, port, payloads, len(payloads),
                    config.n_client_threads,
                )
                lat, elapsed, n_rows_done = _closed_loop(
                    host,
                    port,
                    payloads,
                    config.closed_loop_requests,
                    config.n_client_threads,
                )
                rows_per_s = n_rows_done / elapsed
                key = "match_single" if batch == 1 else f"match_batch{batch}"
                throughput[f"{key}_rows_per_s"] = round(rows_per_s)
                throughput[f"{key}_p99_ms"] = round(
                    _percentile(lat, 0.99) * 1e3, 3
                )
                tp_lines.append(
                    f"  batch={batch:<4d} {len(lat):5d} requests  "
                    f"{rows_per_s:10.0f} rows/s  "
                    f"p99 {_percentile(lat, 0.99) * 1e3:8.3f} ms"
                )
            best_rows_per_s = max(
                v
                for k, v in throughput.items()
                if k.endswith("_rows_per_s")
            )
            throughput["speedup_vs_v1"] = round(
                best_rows_per_s / V1_BASELINE_MATCH_RPS, 1
            )
            lat, elapsed = _patterns_ceiling(store, run_id, config)
            throughput["patterns_rps"] = round(len(lat) / elapsed)
            throughput["patterns_p99_ms"] = round(
                _percentile(lat, 0.99) * 1e3, 3
            )

            # ---- sustained open-loop SLO phases with live hot swaps ----
            slo_phases = []
            slo_lines = []
            payloads = batch_payloads(config.batch_rows)
            for target in config.target_rows_per_s:
                writer = _SwapWriter(
                    store,
                    result,
                    config.hot_swap_interval_s,
                    server=None if workers > 1 else server,
                )
                writer.start()
                try:
                    phase = _open_loop_phase(
                        host,
                        port,
                        payloads,
                        target,
                        config.batch_rows,
                        config.phase_duration_s,
                        config.n_client_threads,
                    )
                finally:
                    writer.stop()
                phase["hot_swaps"] = writer.swaps
                slo_phases.append(phase)
                slo_lines.append(
                    f"  target {target:>8,d} rows/s → "
                    f"{phase['achieved_rps']:>8,d} achieved  "
                    f"p50 {phase['p50_ms']:8.3f} ms  "
                    f"p99 {phase['p99_ms']:8.3f} ms  "
                    f"jitter {phase['jitter_ms']:8.3f} ms  "
                    f"errors {phase['error_rate']:.2%}  "
                    f"swaps {phase['hot_swaps']}"
                )
        finally:
            server.stop()

    lines = [
        "Serving SLO under sustained load "
        f"({dataset.n_rows} rows, {len(result.patterns)} patterns, "
        f"{workers} worker(s), mode {throughput['mode']})",
        "",
        "closed-loop throughput ceilings (batched POST /match):",
        *tp_lines,
        f"  speedup vs v1 single-row baseline "
        f"({V1_BASELINE_MATCH_RPS} req/s): "
        f"{throughput['speedup_vs_v1']}x",
        "",
        "closed-loop GET /runs/<id>/patterns, warm query cache "
        "(one process):",
        f"  {throughput['patterns_rps']:>8,d} req/s  "
        f"p99 {throughput['patterns_p99_ms']:8.3f} ms",
        "",
        "open-loop SLO phases (latency from scheduled send; "
        "writer hot-swapping runs throughout):",
        *slo_lines,
    ]
    results = {"throughput": throughput, "slo": slo_phases}
    return "\n".join(lines), results


def main() -> None:
    from bench_artifacts import write_bench_artifact

    text, results = run_slo_bench()
    print(text)
    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    (out / "bench_serve_slo.txt").write_text(text + "\n")
    artifact = write_bench_artifact("serve", results, schema_version=2)
    print(f"\nwrote {out / 'bench_serve_slo.txt'}")
    print(f"wrote {artifact}")


if __name__ == "__main__":
    main()
