"""Multi-worker serving: SO_REUSEPORT pool under concurrent load + swaps.

The pool's guarantees under test:

* concurrent batch clients against ``workers=2`` see **zero 5xx** while
  a writer keeps publishing new runs into the store; the clients keep
  sending until the writer has published at least two runs and some
  response names one of them, so every run overlaps a hot swap;
* every response is consistent with a single store epoch: the epoch it
  names is exactly ``run_seq(run)`` of the run it names, and its matches
  equal what that stored run's index produces for the same rows;
* the merged ``/metrics`` view sums per-worker match counters to exactly
  the number of requests the clients sent;
* platforms without ``SO_REUSEPORT`` degrade to the single-socket
  fallback rather than failing.
"""

import json
import threading
import time
import http.client

import numpy as np
import pytest

from repro import Attribute, ContrastSetMiner, Dataset, MinerConfig, Schema
from repro.serve import (
    PatternServer,
    PatternStore,
    ServeConfig,
    reuseport_available,
)
from repro.serve.index import PatternIndex, row_from_dataset
from repro.serve.workers import run_seq

needs_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="platform lacks SO_REUSEPORT"
)


@pytest.fixture(scope="module")
def mined():
    rng = np.random.default_rng(4242)
    n = 500
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
    result = ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(dataset)
    assert result.patterns
    return dataset, result


@pytest.fixture
def pool(tmp_path, mined):
    dataset, result = mined
    store = PatternStore(tmp_path / "store")
    first = store.put(result, tags=("seed",))
    server = PatternServer(
        store,
        ServeConfig(port=0, workers=2, store_poll_interval=0.05),
    )
    host, port = server.start()
    yield dataset, result, store, first, server, host, port
    server.stop()


def _post(host, port, path, body):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@needs_reuseport
class TestMultiWorkerPool:
    N_CLIENT_THREADS = 4
    REQUESTS_PER_THREAD = 40
    BATCH = 8
    #: Seconds the hammer may run before it fails for want of a swap.
    HAMMER_DEADLINE_S = 60.0

    def test_pool_mode_and_basic_traffic(self, pool):
        dataset, result, _, first, server, host, port = pool
        assert server.mode == "multi-worker"
        row = row_from_dataset(dataset, 0)
        status, body = _post(host, port, "/match", {"row": row})
        assert status == 200, body
        payload = json.loads(body)
        assert payload["run"] == first
        assert payload["epoch"] == run_seq(first)

    def test_hammer_zero_5xx_epoch_consistent_metrics_sum(self, pool):
        dataset, result, store, first, server, host, port = pool
        rows = [row_from_dataset(dataset, i) for i in range(64)]
        # per stored run: the exact matches its index yields per row,
        # rendered through the same encoder the server uses
        expected_cache: dict[str, list] = {}

        def expected_for(run_id):
            if run_id not in expected_cache:
                stored = store.get(run_id)
                index = PatternIndex(stored.patterns, stored.interests)
                expected_cache[run_id] = [
                    [e.rank for e in index.match(row)] for row in rows
                ]
            return expected_cache[run_id]

        failures: list = []
        sent = [0] * self.N_CLIENT_THREADS
        stop_writer = threading.Event()
        swaps = []
        swapped = threading.Event()  # the writer has published two runs
        served_new = threading.Event()  # a response named one of them
        deadline = time.monotonic() + self.HAMMER_DEADLINE_S

        def writer():
            while not stop_writer.wait(0.15):
                swaps.append(store.put(result, tags=("swap",)))
                if len(swaps) >= 2:
                    swapped.set()

        def client(slot):
            i = 0
            while (i < self.REQUESTS_PER_THREAD or not swapped.is_set()
                   or not served_new.is_set()):
                if time.monotonic() > deadline:
                    failures.append(("deadline", len(swaps)))
                    return
                start = (slot * 7 + i) % (len(rows) - self.BATCH)
                i += 1
                batch = rows[start : start + self.BATCH]
                status, body = _post(host, port, "/match", {"rows": batch})
                sent[slot] += 1
                if status != 200:
                    failures.append(("status", status, body))
                    return
                payload = json.loads(body)
                run_id = payload["run"]
                if run_id != first:
                    served_new.set()
                if payload["epoch"] != run_seq(run_id):
                    failures.append(("epoch", payload["epoch"], run_id))
                    return
                expected = expected_for(run_id)
                for k, res in enumerate(payload["results"]):
                    if res["matches"] != expected[start + k]:
                        failures.append(("matches", run_id, start + k))
                        return

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        clients = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(self.N_CLIENT_THREADS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop_writer.set()
        writer_thread.join()

        assert not failures, failures[:5]
        assert len(swaps) >= 2, "writer published fewer than two runs"
        assert served_new.is_set(), "no response named a swapped-in run"

        # merged /metrics: per-worker match counters sum to client totals
        status, body = _get(host, port, "/metrics")
        assert status == 200, body
        metrics = json.loads(body)
        assert metrics["mode"] == "multi-worker"
        workers = metrics["workers"]
        assert len(workers) == 2
        assert not any(w.get("unreachable") for w in workers)
        merged_match = metrics["endpoints"]["match"]["requests"]
        per_worker = sum(
            w["endpoints"].get("match", {}).get("requests", 0)
            for w in workers
        )
        assert merged_match == per_worker
        # >= because test_pool_mode runs on a fresh pool; this pool only
        # saw this test's traffic plus the /metrics scrape itself
        assert merged_match == sum(sent)
        assert metrics["endpoints"]["match"]["errors"] == 0

    def test_workers_converge_on_new_run(self, pool):
        dataset, result, store, first, server, host, port = pool
        import time

        second = store.put(result, tags=("later",))
        row = row_from_dataset(dataset, 3)
        deadline = time.monotonic() + 10
        seen = set()
        while time.monotonic() < deadline:
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200, body
            payload = json.loads(body)
            seen.add(payload["run"])
            if payload["run"] == second:
                assert payload["epoch"] == run_seq(second)
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"pool never converged on {second}; saw {seen}")

    def test_pool_requires_store(self, mined):
        dataset, result = mined
        server = PatternServer(config=ServeConfig(port=0, workers=2))
        server.publish_patterns(result.patterns, result.interests)
        with pytest.raises(RuntimeError, match="store"):
            server.start()

    def test_publish_forbidden_while_pooled(self, pool):
        _, result, _, _, server, _, _ = pool
        with pytest.raises(RuntimeError):
            server.publish_patterns(result.patterns, result.interests)


class TestSingleSocketFallback:
    """workers > 1 without SO_REUSEPORT serves in-process, one socket."""

    def test_fallback_serves(self, tmp_path, mined, monkeypatch):
        dataset, result = mined
        import repro.serve.workers as workers_mod

        monkeypatch.setattr(
            workers_mod, "reuseport_available", lambda: False
        )
        store = PatternStore(tmp_path / "store")
        run_id = store.put(result)
        server = PatternServer(
            store, ServeConfig(port=0, workers=2)
        )
        server.publish_run(run_id)
        host, port = server.start()
        try:
            assert server.mode == "single-socket-fallback"
            row = row_from_dataset(dataset, 0)
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200, body
            status, body = _get(host, port, "/metrics")
            assert json.loads(body)["mode"] == "single-socket-fallback"
        finally:
            server.stop()
