"""PatternStore durability, corruption detection, and maintenance.

Mirrors the checkpoint suite's stance: every anomaly a loader can meet —
truncated files, flipped bytes, foreign content, version mismatches —
must raise :class:`StoreError`, never a wrong result or a crash deeper
in the stack.  Round trips must be bit-for-bit: patterns, interests,
prune accounting, summary.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ContrastSetMiner, MinerConfig
from repro.serve.store import (
    CorruptRunError,
    PatternStore,
    StoreError,
    UnknownRunError,
)


@pytest.fixture
def result(mixed_dataset):
    return ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(
        mixed_dataset
    )


@pytest.fixture
def store(tmp_path):
    return PatternStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get_bit_for_bit(self, store, result):
        run_id = store.put(result, tags=("nightly", "adult"))
        run = store.get(run_id)
        assert run.patterns == result.patterns
        assert run.interests == result.interests
        assert run.summary == result.summary()
        assert run.summary.prune_reasons == result.summary().prune_reasons
        assert run.tags == ("nightly", "adult")
        assert run.miner_config() == result.config

    def test_reopen_fresh_instance(self, tmp_path, result):
        run_id = PatternStore(tmp_path / "s").put(result)
        # a brand-new handle (fresh process in real life) sees the run
        reopened = PatternStore(tmp_path / "s", create=False)
        run = reopened.get(run_id)
        assert run.patterns == result.patterns
        assert run.summary == result.summary()

    def test_runs_are_versioned_not_overwritten(self, store, result):
        first = store.put(result)
        second = store.put(result)
        assert first != second
        assert [info.run_id for info in store.list_runs()] == [
            first,
            second,
        ]
        assert store.latest() == second

    def test_fingerprint_matches_checkpoint_fingerprint(
        self, store, result, mixed_dataset
    ):
        from repro.resilience.checkpoint import dataset_fingerprint

        run = store.get(store.put(result))
        assert run.fingerprint == dataset_fingerprint(mixed_dataset)

    def test_mine_with_store_publishes(self, store, mixed_dataset):
        miner = ContrastSetMiner(MinerConfig(max_tree_depth=1))
        result = miner.mine(mixed_dataset, store=store, store_tags=("ci",))
        assert result.run_id is not None
        assert store.get(result.run_id).patterns == result.patterns

    def test_empty_result_round_trips(self, store, mixed_dataset):
        # delta=0.99: nothing passes; the store must cope with 0 patterns
        result = ContrastSetMiner(
            MinerConfig(delta=0.97, max_tree_depth=1)
        ).mine(mixed_dataset)
        run = store.get(store.put(result))
        assert run.patterns == result.patterns
        assert run.summary == result.summary()


class TestOpen:
    def test_create_false_requires_store(self, tmp_path):
        with pytest.raises(StoreError, match="no pattern store"):
            PatternStore(tmp_path / "missing", create=False)

    def test_foreign_manifest_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "manifest.json").write_text('{"whatever": 1}')
        with pytest.raises(StoreError, match="not a repro pattern store"):
            PatternStore(root)

    def test_garbage_manifest_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "manifest.json").write_text("not json {")
        with pytest.raises(StoreError, match="unreadable"):
            PatternStore(root)

    def test_future_layout_version_rejected(self, tmp_path, store, result):
        store.put(result)
        manifest = json.loads((store.root / "manifest.json").read_text())
        manifest["version"] = 99
        (store.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="layout version"):
            PatternStore(store.root, create=False)


class TestCorruption:
    """Fuzz the on-disk files; every mutation must be detected."""

    def _paths(self, store, run_id):
        run_dir = store.root / "runs" / run_id
        return run_dir / "meta.json", run_dir / "patterns.jsonl"

    def test_unknown_run(self, store):
        with pytest.raises(UnknownRunError):
            store.get("run-999999-cafecafecafe")

    def test_truncated_patterns(self, store, result):
        run_id = store.put(result)
        _, patterns = self._paths(store, run_id)
        blob = patterns.read_bytes()
        patterns.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptRunError, match="checksum"):
            store.get(run_id)

    def test_flipped_byte_in_patterns(self, store, result):
        run_id = store.put(result)
        _, patterns = self._paths(store, run_id)
        blob = bytearray(patterns.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        patterns.write_bytes(bytes(blob))
        with pytest.raises(CorruptRunError, match="checksum"):
            store.get(run_id)

    def test_missing_patterns_file(self, store, result):
        run_id = store.put(result)
        _, patterns = self._paths(store, run_id)
        patterns.unlink()
        with pytest.raises(CorruptRunError, match="unreadable"):
            store.get(run_id)

    def test_foreign_meta(self, store, result):
        run_id = store.put(result)
        meta, _ = self._paths(store, run_id)
        meta.write_text('{"magic": "something-else"}')
        with pytest.raises(CorruptRunError, match="not a pattern-store"):
            store.get(run_id)

    def test_garbage_meta(self, store, result):
        run_id = store.put(result)
        meta, _ = self._paths(store, run_id)
        meta.write_text("}{")
        with pytest.raises(CorruptRunError, match="unreadable"):
            store.get(run_id)

    def test_schema_version_mismatch_named_in_error(self, store, result):
        run_id = store.put(result)
        meta, _ = self._paths(store, run_id)
        payload = json.loads(meta.read_text())
        payload["serialization"]["schema_version"] = 999
        meta.write_text(json.dumps(payload))
        with pytest.raises(CorruptRunError, match="schema version 999"):
            store.get(run_id)

    def test_count_mismatch(self, store, result):
        run_id = store.put(result)
        meta, patterns = self._paths(store, run_id)
        payload = json.loads(meta.read_text())
        payload["n_patterns"] += 1
        # keep the checksum honest so the count check itself fires
        import hashlib

        payload["patterns_sha256"] = hashlib.sha256(
            patterns.read_bytes()
        ).hexdigest()
        meta.write_text(json.dumps(payload))
        with pytest.raises(CorruptRunError, match="meta records"):
            store.get(run_id)

    def test_corruption_does_not_poison_other_runs(self, store, result):
        bad = store.put(result)
        good = store.put(result)
        _, patterns = self._paths(store, bad)
        patterns.write_bytes(b"garbage\n")
        with pytest.raises(CorruptRunError):
            store.get(bad)
        assert store.get(good).patterns == result.patterns


class TestMaintenance:
    def test_quarantine_moves_files_aside(self, store, result):
        run_id = store.put(result)
        target = store.quarantine(run_id)
        assert target.exists()
        assert not (store.root / "runs" / run_id).exists()
        with pytest.raises(UnknownRunError):
            store.get(run_id)

    def test_gc_removes_crashed_put_leftovers(self, store, result):
        run_id = store.put(result)
        # simulate a put that died before the manifest rewrite
        orphan = store.root / "runs" / "run-000099-deadbeef0000"
        orphan.mkdir()
        (orphan / "patterns.jsonl").write_text("")
        tmp = store.root / "runs" / ".tmp-abandoned"
        tmp.mkdir()
        removed = store.gc()
        assert "run-000099-deadbeef0000" in removed
        assert ".tmp-abandoned" in removed
        assert not orphan.exists()
        assert store.get(run_id).patterns == result.patterns

    def test_remove_then_gc(self, store, result):
        run_id = store.put(result)
        store.remove(run_id)
        assert store.latest() is None
        assert run_id in store.gc()
        assert not (store.root / "runs" / run_id).exists()

    def test_remove_unknown(self, store):
        with pytest.raises(UnknownRunError):
            store.remove("run-000001-000000000000")

    def test_gc_keeps_quarantined_runs(self, store, result):
        run_id = store.put(result)
        store.quarantine(run_id)
        store.gc()
        assert (store.root / "quarantine" / run_id).exists()


_CONCURRENT_WRITER = r"""
import json
import os
import sys
import time

import numpy as np

from repro import Attribute, ContrastSetMiner, Dataset, MinerConfig, Schema
from repro.serve import PatternStore

root, go, n_puts = sys.argv[1], sys.argv[2], int(sys.argv[3])
rng = np.random.default_rng(int(sys.argv[4]))
group = rng.integers(0, 2, 200)
x = np.where(group == 0, rng.uniform(0, 0.5, 200), rng.uniform(0.5, 1, 200))
dataset = Dataset(
    Schema.of([Attribute.continuous("x")]), {"x": x}, group, ["A", "B"]
)
result = ContrastSetMiner(MinerConfig(max_tree_depth=1)).mine(dataset)
store = PatternStore(root, create=False)
print("ready", flush=True)
while not os.path.exists(go):
    time.sleep(0.001)
print(json.dumps([store.put(result) for _ in range(n_puts)]), flush=True)
"""


class TestConcurrentWriters:
    def test_concurrent_puts_all_listed_and_loadable(self, tmp_path, src_env):
        """Three processes putting into one store at once: the writer
        lock serialises their manifest rewrites, so no run is lost and no
        sequence number is taken twice."""
        n_writers, n_puts = 3, 25
        store = PatternStore(tmp_path / "store")
        go = tmp_path / "go"
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_WRITER, str(store.root),
                 str(go), str(n_puts), str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=src_env,
            )
            for seed in range(n_writers)
        ]
        try:
            for writer in writers:
                assert writer.stdout.readline().strip() == "ready"
            go.touch()
            returned = []
            for writer in writers:
                out, err = writer.communicate(timeout=120)
                assert writer.returncode == 0, err
                returned.extend(json.loads(out))
        finally:
            for writer in writers:
                writer.kill()
                writer.wait()
        assert len(set(returned)) == n_writers * n_puts
        listed = [info.run_id for info in store.list_runs()]
        assert sorted(returned) == listed
        assert [int(run_id.split("-")[1]) for run_id in listed] == list(
            range(1, n_writers * n_puts + 1)
        )
        for run_id in listed:
            assert store.get(run_id).patterns


class TestKillDurability:
    """put → kill → reopen: the run is either fully there or invisible."""

    def test_kill_before_manifest_update_is_invisible(
        self, tmp_path, result, monkeypatch
    ):
        store = PatternStore(tmp_path / "s")
        survivor = store.put(result)

        original = PatternStore._write_manifest

        def dying_write(self, body):
            raise KeyboardInterrupt  # the process dies here

        monkeypatch.setattr(PatternStore, "_write_manifest", dying_write)
        with pytest.raises(KeyboardInterrupt):
            store.put(result)
        monkeypatch.setattr(PatternStore, "_write_manifest", original)

        reopened = PatternStore(tmp_path / "s", create=False)
        assert [i.run_id for i in reopened.list_runs()] == [survivor]
        assert reopened.get(survivor).patterns == result.patterns
        # the dead put's files are garbage gc can reclaim
        leftovers = reopened.gc()
        assert leftovers  # the orphaned run directory
        assert reopened.get(survivor).patterns == result.patterns

    def test_no_loadable_half_written_run(self, tmp_path, result, monkeypatch):
        """Kill mid-file-write: nothing under a final run name."""
        store = PatternStore(tmp_path / "s")

        def dying_write_bytes(self, data):
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_bytes", dying_write_bytes)
        with pytest.raises(KeyboardInterrupt):
            store.put(result)
        monkeypatch.undo()

        reopened = PatternStore(tmp_path / "s", create=False)
        assert reopened.list_runs() == []
        final_dirs = [
            p
            for p in (reopened.root / "runs").iterdir()
            if not p.name.startswith(".tmp-")
        ]
        assert final_dirs == []


class TestRetiredKeys:
    """Runs stored by older releases carry keys that later ones retired:
    the config's ``batch_evaluation`` and the summary's
    ``prune_rule_batched`` (1.6.0), the config's ``counting_backend``
    and ``backend_cache_size`` (1.7.0), and the summary's
    ``counting_backend``, ``cache_hits`` and ``cache_misses`` (1.9.0).
    They must load and serve, not quarantine."""

    def _write_as_v150(self, store, run_id):
        meta = store.root / "runs" / run_id / "meta.json"
        payload = json.loads(meta.read_text())
        payload["config"]["batch_evaluation"] = True
        payload["config"]["counting_backend"] = "bitmap"
        payload["config"]["backend_cache_size"] = 4096
        payload["summary"]["prune_rule_batched"] = dict(
            payload["summary"]["prune_rule_checks"]
        )
        payload["summary"].update(
            counting_backend="mask", cache_hits=0, cache_misses=0
        )
        meta.write_text(json.dumps(payload))
        return meta, payload

    def test_v150_run_loads(self, store, result):
        run_id = store.put(result)
        self._write_as_v150(store, run_id)
        run = store.get(run_id)
        assert run.patterns == result.patterns
        assert run.summary == result.summary()
        assert run.miner_config() == result.config

    def test_v150_run_serves(self, store, result):
        import http.client

        from repro.serve.server import PatternServer, ServeConfig

        run_id = store.put(result)
        self._write_as_v150(store, run_id)
        server = PatternServer(store, ServeConfig(port=0))
        host, port = server.start()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", f"/runs/{run_id}/patterns")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            assert response.status == 200
        finally:
            server.stop()
        assert [info.run_id for info in store.list_runs()] == [run_id]

    def test_other_unknown_summary_key_still_corrupt(self, store, result):
        run_id = store.put(result)
        meta, payload = self._write_as_v150(store, run_id)
        payload["summary"]["prune_rule_mystery"] = {}
        meta.write_text(json.dumps(payload))
        with pytest.raises(CorruptRunError, match="malformed summary"):
            store.get(run_id)
