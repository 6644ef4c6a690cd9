"""The suite's four workloads.  ``run.py`` runs each in a fresh
subprocess, so its peak RSS and caches belong to it alone.

    PYTHONPATH=src python3 benchmarks/suite/workloads.py --workload NAME \\
        --seed N --seconds S --work DIR [--trace] [--quick] [--spans PATH]

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed``, ``metrics`` (the end-to-end metrics, or with ``--trace`` the
per-layer metrics, named as in ``BENCHMARK.json``) and ``details``.

Every input comes from ``--seed``.  A mining run mines a panel of
datasets (or packed stores) whose generator seeds derive from it, in
turn, so one unusually easy or hard dataset cannot move the run's
median by itself.  Each mine is one operation: ``ContrastSetMiner().mine``
plus ``result.meaningfulness()``, data to meaningful patterns, with the
default ``MinerConfig``.  README.md says why each workload was chosen.

The end-to-end times are scaled to a reference speed by a fixed loop
timed around each operation (``common.Calibration``), because the
machine's own speed drifts; the details also keep them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from common import (
    DEFAULT_SEED,
    Calibration,
    EXPECTED_JSON,
    SUITE,
    child_env,
    cpu_seconds,
    derive_seed,
    load_benchmark,
    percentile,
)
from tracer import Tracer, mining_targets

# ---------------------------------------------------------------------------
# Mining inputs
# ---------------------------------------------------------------------------


class InMemory:
    """A generated in-memory dataset.  It is generated again, untimed,
    before every mine, so one panel member is resident at a time."""

    def __init__(self, generate) -> None:
        self.generate = generate

    def setup(self, seed: int, quick: bool, work: Path) -> int:
        self.generate(seed, quick)
        return seed

    def open(self, seed: int, quick: bool):
        return self.generate(seed, quick)


def adult(seed: int, quick: bool):
    from repro.dataset import uci

    return uci.adult(scale=0.2 if quick else 1.0, seed=seed)


def census(seed: int, quick: bool):
    from repro.dataset import uci

    return uci.census_income(scale=0.01 if quick else 0.1, seed=seed)


TELEMETRY_CHUNKS = 4
TELEMETRY_CHUNK_ROWS = 65_536
TELEMETRY_METRICS = 8
TELEMETRY_GROUPS = ("ok", "degraded")


class Telemetry:
    """The telemetry stream of ``benchmarks/bench_columnar.py`` (eight
    continuous metrics, one region; contrasts planted on ``metric_0``
    and ``region``), packed chunk by chunk into a ``ChunkedDataset``.
    Mining opens the store, so every column is read from the chunk
    files through the lazy view."""

    def setup(self, seed: int, quick: bool, work: Path) -> Path:
        import numpy as np

        from repro import Attribute, ChunkedDataset, Dataset, Schema

        schema = Schema.of(
            [Attribute.continuous(f"metric_{i}")
             for i in range(TELEMETRY_METRICS)]
            + [Attribute.categorical(
                "region", ["us-east", "us-west", "eu", "apac"])]
        )
        rng = np.random.default_rng(seed)
        n = 4096 if quick else TELEMETRY_CHUNK_ROWS
        path = work / f"telemetry-{seed}"
        store = ChunkedDataset.create(path, schema, TELEMETRY_GROUPS)
        for _ in range(TELEMETRY_CHUNKS):
            group = rng.integers(0, 2, n)
            columns = {
                "metric_0": rng.gamma(2.0, 1.0, n)
                + np.where(group == 1, 1.5, 0.0)
            }
            for i in range(1, TELEMETRY_METRICS):
                columns[f"metric_{i}"] = rng.uniform(0.0, 100.0, n)
            columns["region"] = np.where(
                group == 1,
                rng.choice(4, n, p=[0.1, 0.2, 0.6, 0.1]),
                rng.choice(4, n, p=[0.3, 0.3, 0.1, 0.3]),
            )
            store.append(Dataset(schema, columns, group, TELEMETRY_GROUPS))
        return path

    def open(self, path: Path, quick: bool):
        from repro import ChunkedDataset

        return ChunkedDataset(path)


@dataclass(frozen=True)
class MiningWorkload:
    name: str
    source: object
    depth: int
    panel: int
    """Datasets per run, each from its own derived seed."""
    warmups: int
    sensitivity: float
    """How a mine's time goes with the machine's slowness
    (``common.Calibration``), as measured over runs spanning a 1.7-fold
    range of machine speed."""
    categorical_only: bool = False


MINING = {
    w.name: w
    for w in (
        MiningWorkload("mine_adult_d3", InMemory(adult), depth=3, panel=8,
                       warmups=3, sensitivity=1.0),
        MiningWorkload("mine_census_cat_d3", InMemory(census), depth=3,
                       panel=8, warmups=1, sensitivity=0.75,
                       categorical_only=True),
        MiningWorkload("mine_chunked_256k", Telemetry(), depth=2, panel=3,
                       warmups=1, sensitivity=0.5),
    )
}

SETUP_SENSITIVITY = 1.0
"""Set-up generates data and mines it or packs it; its time goes with
the machine's slowness as the reference loop's does."""

# Per-layer metrics a workload computes itself; every other per-layer
# name is ``<layer>.<field>`` and is derived from the tracer's totals.
SPECIAL_METRICS = frozenset({
    "trace.op_ms", "trace.overhead_ratio",
    "counting.cache_hit_ratio", "counting.batch_fallback_ratio",
    "pipeline.pruned_ratio", "topk.accept_ratio",
    "index.matches_per_row", "serve.wait_share",
    "store.put.calls", "store.put.share",
    "serve.publish.calls", "serve.publish.share",
    "loadgen.sent.8k", "loadgen.sent.16k",
    "loadgen.on_time_ratio.8k", "loadgen.on_time_ratio.16k",
})
PER_OP_COUNTERS = frozenset({"mb", "itemsets", "candidates", "rows"})


def layer_metrics(snapshot: dict, ops: int, op_seconds: float,
                  special: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``<layer>.calls`` and counters are per operation; ``.share`` and
    ``.self_share`` are the layer's busy and self time as a share of
    the operations' own time.  A layer this workload never reaches
    reads 0.
    """
    out = {}
    for spec in load_benchmark()["per_layer"]:
        name = spec["name"]
        if name in SPECIAL_METRICS:
            out[name] = float(special.get(name, 0.0))
            continue
        layer, _, field = name.rpartition(".")
        entry = snapshot["layers"].get(layer, {})
        if field == "calls":
            value = entry.get("calls", 0) / ops
        elif field == "share":
            value = entry.get("busy_s", 0.0) / op_seconds
        elif field == "self_share":
            value = entry.get("self_s", 0.0) / op_seconds
        elif field in PER_OP_COUNTERS:
            value = entry.get(field, 0) / ops
        else:
            raise ValueError(f"no rule derives per-layer metric {name!r}")
        out[name] = float(value)
    return out


def layer_table(snapshot: dict, ops: int) -> dict:
    """Absolute per-operation calls, busy and self milliseconds of every
    traced layer (the human-readable table in result files)."""
    table = {}
    for layer, entry in sorted(snapshot["layers"].items()):
        row = {"calls": entry["calls"] / ops,
               "busy_ms": entry["busy_s"] * 1e3 / ops,
               "self_ms": entry["self_s"] * 1e3 / ops}
        row.update({k: v / ops for k, v in entry.items()
                    if k not in ("calls", "busy_s", "self_s")})
        table[layer] = row
    return table


def patterns_digest(report) -> str:
    """SHA-256 of the meaningful-pattern output: each pattern's items,
    counts, group sizes and level, and its meaningfulness verdict.
    Derived floats (p-values, hypervolumes) are left out; the counts
    determine them."""
    from repro.core.serialize import itemset_to_dict

    rows = [
        [itemset_to_dict(p.itemset), [int(c) for c in p.counts],
         [int(s) for s in p.group_sizes], int(p.level), bool(ok)]
        for p, ok in zip(report.patterns, report.meaningful)
    ]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def run_mining(spec: MiningWorkload, args) -> dict:
    from repro import ContrastSetMiner, MinerConfig
    from repro.core.instrumentation import MiningStats

    quick = args.quick
    config = MinerConfig(max_tree_depth=min(spec.depth, 2) if quick
                         else spec.depth)
    panel = 2 if quick else spec.panel
    seeds = [derive_seed(args.seed, spec.name, i) for i in range(panel)]
    calibration = Calibration()
    setup_s, setup_raw_s, sources = [], [], []
    for seed in seeds:
        source, raw, scaled = calibration.timed(
            lambda: spec.source.setup(seed, quick, args.work),
            SETUP_SENSITIVITY)
        sources.append(source)
        setup_raw_s.append(raw)
        setup_s.append(scaled)

    tracer = Tracer() if args.trace else None
    targets = mining_targets() if args.trace else ()
    digests: dict[int, str] = {}
    tally = {"attempted": 0, "failed": 0}
    traced_stats = MiningStats()
    last: dict = {}

    def mine(member: int, traced: bool = False,
             calibrated: bool = False) -> tuple[float, float]:
        """Wall seconds of one mine, and the same at the reference speed
        (``calibrated``) or again as measured."""
        dataset = spec.source.open(sources[member], quick)
        attributes = (
            [a.name for a in dataset.schema if a.is_categorical]
            if spec.categorical_only else None
        )
        miner = ContrastSetMiner(config)

        def operation():
            result = miner.mine(dataset, attributes=attributes)
            return result, result.meaningfulness()

        if traced:
            operation = tracer.wrap("mine", operation)
            tracer.install(targets)
        try:
            if calibrated:
                (result, report), elapsed, scaled = calibration.timed(
                    operation, spec.sensitivity)
            else:
                started = perf_counter()
                result, report = operation()
                elapsed = scaled = perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
        tally["attempted"] += 1
        digest = patterns_digest(report)
        if digests.setdefault(member, digest) != digest:
            tally["failed"] += 1
        if traced:
            traced_stats.merge_from(result.stats)
        last.update(rows=result.dataset.n_rows,
                    patterns=len(result.patterns),
                    meaningful=report.n_meaningful)
        return elapsed, scaled

    for i in range(spec.warmups):
        mine(i % panel)
    calibration.forget()

    plain: list[float] = []
    plain_scaled: list[float] = []
    traced: list[float] = []
    rows = 0
    started = perf_counter()
    step = 0
    step_s: list[float] = []
    # Stop before an operation (a pair of them when tracing) that would
    # run past --seconds, once every panel member has been mined.
    min_steps = 2 if args.trace else panel
    while (step < min_steps or perf_counter() - started
           + statistics.median(step_s) <= args.seconds):
        step_started = perf_counter()
        member = step % panel
        if args.trace:
            # Untraced and traced mines of one dataset, alternating
            # which goes first, give the tracing overhead in-run.
            for flag in ((False, True) if step % 2 == 0 else (True, False)):
                (traced if flag else plain).append(mine(member, flag)[0])
        else:
            elapsed, scaled = mine(member, calibrated=True)
            plain.append(elapsed)
            plain_scaled.append(scaled)
            rows += last["rows"]
        step_s.append(perf_counter() - step_started)
        step += 1

    expected = json.loads(EXPECTED_JSON.read_text())["patterns_sha256"].get(
        spec.name)
    combined = None
    if len(digests) == panel:
        combined = hashlib.sha256(
            "".join(digests[i] for i in range(panel)).encode()
        ).hexdigest()
    checked = (args.seed == DEFAULT_SEED and not quick
               and expected is not None and combined is not None)
    if checked and combined != expected:
        tally["failed"] = tally["attempted"]
    details = {
        "ops": len(plain) + len(traced),
        "op_ms": [t * 1e3 for t in plain],
        "op_ms_at_reference": [t * 1e3 for t in plain_scaled],
        "setup_s": setup_raw_s,
        "setup_s_at_reference": setup_s,
        "reference_ms": [t * 1e3 for t in calibration.reference_s],
        "panel_seeds": seeds,
        "patterns_sha256": combined,
        "expected_sha256_checked": checked,
        "rows_per_op": last["rows"],
        "n_patterns": last["patterns"],
        "n_meaningful": last["meaningful"],
        "fail_share": tally["failed"] / tally["attempted"],
        "mine_s_p50": statistics.median(plain),
    }
    if len(plain) >= 50:
        details["mine_s_p80"] = percentile(plain, 0.8)
    correct = tally["failed"] == 0

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_p50_ms": statistics.median(plain_scaled) * 1e3,
            "rows_per_s": rows / sum(plain_scaled),
        }
    else:
        snapshot = tracer.snapshot()
        ops = snapshot["layers"]["mine"]["calls"]
        op_seconds = snapshot["layers"]["mine"]["busy_s"]
        stats = traced_stats
        looked_up = stats.cache_hits + stats.cache_misses
        offers = snapshot["layers"].get("topk.offer", {})
        special = {
            "trace.op_ms": statistics.median(traced) * 1e3,
            # Each traced mine ran next to an untraced mine of the same
            # data, so the ratio within a pair cancels machine drift.
            "trace.overhead_ratio": statistics.median(
                t / u for u, t in zip(plain, traced)) - 1.0,
            "counting.cache_hit_ratio": (stats.cache_hits / looked_up
                                         if looked_up else 0.0),
            "counting.batch_fallback_ratio": (
                stats.batch_fallbacks / stats.batched_candidates
                if stats.batched_candidates else 0.0),
            "pipeline.pruned_ratio": (
                stats.spaces_pruned / stats.partitions_evaluated
                if stats.partitions_evaluated else 0.0),
            "topk.accept_ratio": (offers.get("accepted", 0) / offers["calls"]
                                  if offers.get("calls") else 0.0),
        }
        metrics = layer_metrics(snapshot, ops, op_seconds, special)
        details["layers"] = layer_table(snapshot, ops)
        details["traced_op_ms"] = [t * 1e3 for t in traced]
        # The tracer's root spans must be the traced mines this process
        # timed itself, one each and within 5% in total; otherwise spans
        # were lost or opened outside a mine, and the table is wrong.
        details["trace_root_gap"] = abs(snapshot["root_s"] / sum(traced)
                                        - 1.0)
        correct = (correct and snapshot["roots"] == len(traced)
                   and details["trace_root_gap"] <= 0.05)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    return {"correct": correct, **tally, "metrics": metrics,
            "details": details}


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

ROWS_PER_REQUEST = 64
CLIENTS = 2
"""Client threads, each with its own keep-alive connection."""
LIGHT_ROWS_PER_S = 8_000
HEAVY_ROWS_PER_S = 16_000
CHECK_EVERY = 10
"""One response body in this many is checked against the client's own
rank lists; every status is checked."""
N_PAYLOADS = 16
SEGMENT_S = 1.0
"""Length of one closed-loop segment between two timings of the
reference loop."""
ON_TIME_S = 0.001
SERVER_SETUPS = 3
SERVE_SENSITIVITY = 1.5
"""How request latency and server CPU time go with the machine's
slowness: each request switches between client and server process and
makes system calls, which slow more than the reference loop does."""


class ServerProcess:
    """A ``serve_target.py`` process, driven over its stdin/stdout."""

    def __init__(self, store: Path, quick: bool, spans: Path | None) -> None:
        command = [sys.executable, str(SUITE / "serve_target.py"),
                   "--store", str(store)]
        if quick:
            command.append("--quick")
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), text=True,
        )
        try:
            hello = self._read(timeout=120)
            self.port = hello["port"]
            self.run_id = hello["run_id"]
            self._await_health(timeout=60)
        except BaseException:
            self.close()
            raise

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("serve_target did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serve_target exited early")
        return json.loads(line)

    def _await_health(self, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = json.loads(response.read())
                if response.status == 200 and body.get("status") == "ok":
                    return
            except (http.client.HTTPException, OSError, ValueError):
                pass
            finally:
                conn.close()
            if perf_counter() > deadline:
                raise TimeoutError("server never became healthy")
            time.sleep(0.01)

    def command(self, text: str, timeout: float = 60) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self) -> dict | None:
        """Stop the server, wait for it to exit and return its final
        report (``None`` if it could not give one)."""
        final = None
        if self.proc.poll() is None:
            try:
                final = self.command("stop")
            except (OSError, TimeoutError, RuntimeError, ValueError):
                final = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        return final


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def post(self, body: bytes, expect: list | None) -> str:
        """``ok``, or why the request failed: ``status``, ``transport``
        or ``wrong`` (a checked body disagreed with ``expect``)."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=30)
            self.conn.request("POST", "/match", body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            return "transport"
        if response.status != 200:
            return "status"
        if expect is not None and not _body_matches(data, expect):
            return "wrong"
        return "ok"

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _body_matches(data: bytes, expect: list) -> bool:
    try:
        payload = json.loads(data)
        results = [entry["matches"] for entry in payload["results"]]
        listed = payload["patterns"]
    except (ValueError, KeyError, TypeError):
        return False
    return results == expect and all(
        str(rank) in listed for ranks in expect for rank in ranks
    )


def _run_clients(worker) -> tuple[list, float]:
    started = perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        futures = [pool.submit(worker, slot) for slot in range(CLIENTS)]
        per_client = [future.result() for future in futures]
    return [s for samples in per_client for s in samples], (
        perf_counter() - started)


def open_loop(port: int, bodies, expected, rate: float,
              duration: float) -> tuple[list, float]:
    """Open-loop load: request ``k`` is due at ``k * interval`` whatever
    happened to earlier ones, and its latency counts from that due
    time, so a stall is charged to every request queued behind it."""
    interval = ROWS_PER_REQUEST / rate
    n_total = max(CLIENTS, int(duration / interval))
    origin = perf_counter() + 0.02

    def worker(slot: int) -> list:
        client = Client(port)
        samples = []
        try:
            for k in range(slot, n_total, CLIENTS):
                due = origin + k * interval
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = perf_counter()
                p = k % len(bodies)
                outcome = client.post(
                    bodies[p], expected[p] if k % CHECK_EVERY == 0 else None)
                done = perf_counter()
                samples.append((done - due, done - sent, sent - due, outcome))
        finally:
            client.close()
        return samples

    return _run_clients(worker)


def closed_loop(port: int, bodies, expected,
                duration: float) -> tuple[list, float]:
    """Each client sends its next request as soon as the last returns:
    the rows per second the server sustains."""
    deadline = perf_counter() + duration

    def worker(slot: int) -> list:
        client = Client(port)
        samples = []
        k = slot
        try:
            while perf_counter() < deadline:
                sent = perf_counter()
                p = k % len(bodies)
                outcome = client.post(
                    bodies[p], expected[p] if k % CHECK_EVERY == 0 else None)
                done = perf_counter()
                samples.append((done - sent, done - sent, 0.0, outcome))
                k += CLIENTS
        finally:
            client.close()
        return samples

    return _run_clients(worker)


def summarize(samples: list, elapsed: float) -> dict:
    latency = [s[0] for s in samples]
    late = [s[2] for s in samples]
    ok = sum(1 for s in samples if s[3] == "ok")
    return {
        "sent": len(samples),
        "ok": ok,
        "failed": {kind: sum(1 for s in samples if s[3] == kind)
                   for kind in ("status", "transport", "wrong")},
        "p50_ms": statistics.median(latency) * 1e3,
        "p99_ms": percentile(latency, 0.99) * 1e3,
        "late_p99_ms": percentile(late, 0.99) * 1e3,
        "on_time": sum(1 for x in late if x <= ON_TIME_S),
        "service_s": sum(s[1] for s in samples),
        "rows_per_s": ok * ROWS_PER_REQUEST / elapsed,
    }


def run_phase(server: ServerProcess, load, calibration=None,
              segments: int = 1) -> dict:
    """The summary of ``load()`` run ``segments`` times back to back,
    plus the CPU seconds the server process and this client process
    spent.  The client's share of them is what it took from the
    server's CPU; the server's capacity is the rows it matched per
    second of its own CPU time.  With a ``calibration``, each segment
    is scaled by the reference loop timed around it, and the summary
    adds the median latency and the capacity at the reference speed."""
    samples, elapsed, server_cpu, client_cpu = [], 0.0, 0.0, 0.0
    scaled_latency, scaled_cpu = [], 0.0

    def segment():
        server_from = server.command("cpu")["cpu_s"]
        client_from = cpu_seconds()
        part, part_elapsed = load()
        return (part, part_elapsed, server.command("cpu")["cpu_s"]
                - server_from, cpu_seconds() - client_from)

    for _ in range(segments):
        if calibration is None:
            (part, part_elapsed, part_server, part_client), scale = (
                segment(), 1.0)
        else:
            (part, part_elapsed, part_server, part_client), scale = (
                calibration.measure(segment, SERVE_SENSITIVITY))
        samples += part
        elapsed += part_elapsed
        server_cpu += part_server
        client_cpu += part_client
        scaled_latency += [s[0] * scale for s in part]
        scaled_cpu += part_server * scale
    summary = summarize(samples, elapsed)
    summary.update(
        server_cpu_s=server_cpu,
        client_cpu_s=client_cpu,
        client_cpu_share=client_cpu / (client_cpu + server_cpu),
        rows_per_server_cpu_s=summary["ok"] * ROWS_PER_REQUEST / server_cpu,
    )
    if calibration is not None:
        summary.update(
            segments=segments,
            p50_ms_at_reference=statistics.median(scaled_latency) * 1e3,
            rows_per_server_cpu_s_at_reference=(
                summary["ok"] * ROWS_PER_REQUEST / scaled_cpu),
        )
    return summary


def run_serve(args) -> dict:
    import numpy as np

    from repro.serve import PatternStore
    from repro.serve.index import PatternIndex, row_from_dataset
    from serve_target import serve_dataset

    quick = args.quick
    setups = 2 if quick else SERVER_SETUPS
    calibration = Calibration()
    setup_s, setup_raw_s = [], []
    server = None
    try:
        for i in range(setups):
            if server is not None:
                server.close()
            server, raw, scaled = calibration.timed(lambda: ServerProcess(
                args.work / f"patterns-{i}", quick,
                args.spans if args.trace else None), SETUP_SENSITIVITY)
            setup_raw_s.append(raw)
            setup_s.append(scaled)

        dataset = serve_dataset(quick)
        rng = np.random.default_rng(derive_seed(args.seed, "serve_match",
                                                "rows"))
        batches = [
            [row_from_dataset(dataset, int(i))
             for i in rng.integers(0, dataset.n_rows, ROWS_PER_REQUEST)]
            for _ in range(N_PAYLOADS)
        ]
        bodies = [json.dumps({"rows": rows}).encode() for rows in batches]
        # Every published run holds the same patterns, so rank lists
        # computed from the first stored run hold for all of them.
        stored = PatternStore(args.work / f"patterns-{setups - 1}",
                              create=False).get(server.run_id)
        index = PatternIndex(stored.patterns, stored.interests)
        expected = [[[entry.rank for entry in matches]
                     for matches in index.match_batch(rows)]
                    for rows in batches]

        s = args.seconds

        def light(share):
            return run_phase(server, lambda: open_loop(
                server.port, bodies, expected, LIGHT_ROWS_PER_S, share * s))

        def heavy(share):
            return run_phase(server, lambda: open_loop(
                server.port, bodies, expected, HEAVY_ROWS_PER_S, share * s))

        def closed(share, calibrated=False):
            segments = (max(1, round(share * s / SEGMENT_S)) if calibrated
                        else 1)
            return run_phase(
                server, lambda: closed_loop(server.port, bodies, expected,
                                            share * s / segments),
                calibration if calibrated else None, segments)

        phases = {}
        server.command("mark")
        if not args.trace:
            # At 25 s, 1,000 requests at 8k rows/s and 1,250 at 16k: at
            # least ten lie beyond each phase's 99th percentile.
            phases["8k"] = light(0.32)
            phases["16k"] = heavy(0.2)
            calibration.forget()
            phases["closed"] = closed(0.48, calibrated=True)
        else:
            phases["closed.plain"] = closed(0.2)
            server.command("trace on")
            traced_from = perf_counter()
            phases["8k"] = light(0.2)
            before_heavy = server.command("report")
            phases["16k"] = heavy(0.3)
            after_heavy = server.command("report")
            phases["closed"] = closed(0.3)
            snapshot = server.command("report")
            traced_wall = perf_counter() - traced_from
            server.command("trace off")
    finally:
        final = server.close() if server is not None else None
    if final is None:
        raise RuntimeError("serve_target gave no final report")

    attempted = sum(p["sent"] for p in phases.values())
    failed = sum(sum(p["failed"].values()) for p in phases.values())
    publish_ms = final["publish_ms"]
    details = {
        "phases": phases,
        "setup_s": setup_raw_s,
        "setup_s_at_reference": setup_s,
        "reference_ms": [t * 1e3 for t in calibration.reference_s],
        "n_patterns": final["n_patterns"],
        "publishes": len(publish_ms),
        "publish_ms_p50": statistics.median(publish_ms) if publish_ms
        else None,
        "fail_share": failed / attempted,
        "match_p50_ms.8k": phases["8k"]["p50_ms"],
        "match_p99_ms.8k": phases["8k"]["p99_ms"],
        "match_p50_ms.16k": phases["16k"]["p50_ms"],
        "match_p99_ms.16k": phases["16k"]["p99_ms"],
        "client_cpu_share.closed": phases["closed"]["client_cpu_share"],
    }
    correct = failed == 0
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": final["peak_rss_mb"],
            "op_p50_ms": phases["closed"]["p50_ms_at_reference"],
            "rows_per_s": (
                phases["closed"]["rows_per_server_cpu_s_at_reference"]),
        }
    else:
        traced_phases = [phases[k] for k in ("8k", "16k", "closed")]
        ops = sum(p["sent"] for p in traced_phases)
        service_s = sum(p["service_s"] for p in traced_phases)
        heavy_handle = (
            after_heavy["layers"]["serve.handle"]["busy_s"]
            - before_heavy["layers"]["serve.handle"]["busy_s"])
        match = snapshot["layers"].get("index.match", {})
        special = {
            "trace.op_ms": phases["closed"]["p50_ms"],
            "trace.overhead_ratio": (phases["closed"]["p50_ms"]
                                     / phases["closed.plain"]["p50_ms"] - 1.0),
            "index.matches_per_row": (match.get("matches", 0)
                                      / match.get("rows", 1)),
            "serve.wait_share": 1.0 - heavy_handle
            / phases["16k"]["service_s"],
            "loadgen.sent.8k": phases["8k"]["sent"],
            "loadgen.sent.16k": phases["16k"]["sent"],
            "loadgen.on_time_ratio.8k": (phases["8k"]["on_time"]
                                         / phases["8k"]["sent"]),
            "loadgen.on_time_ratio.16k": (phases["16k"]["on_time"]
                                          / phases["16k"]["sent"]),
        }
        for layer in ("store.put", "serve.publish"):
            entry = snapshot["layers"].get(layer, {})
            special[f"{layer}.calls"] = entry.get("calls", 0) / traced_wall
            special[f"{layer}.share"] = entry.get("busy_s", 0.0) / traced_wall
        metrics = layer_metrics(snapshot, ops, service_s, special)
        details["layers"] = layer_table(snapshot, ops)
        # Each traced request must be exactly one ``handle`` span: the
        # span closes before the response is written, so none is open.
        correct = (correct
                   and snapshot["layers"]["serve.handle"]["calls"] == ops)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*MINING, "serve_match"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    # Everything runs on one CPU (a server process inherits this
    # affinity): the reference loop then runs where the operations it
    # calibrates run, and a request never wakes a thread on another CPU,
    # which on a virtual machine costs an amount that swings with host
    # load.  A serving client's CPU time is measured (``run_phase``), and
    # capacity counts the server's CPU time only.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "serve_match":
        result = run_serve(args)
    else:
        result = run_mining(MINING[args.workload], args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
