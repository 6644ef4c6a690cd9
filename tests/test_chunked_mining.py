"""Out-of-core mining: parity, payload-size, streaming and CLI contracts.

The acceptance bar for the chunked layer is *byte-identical* results:
mining a :class:`ChunkedDataset` (any chunk size, covers counted on
packed words or as dense masks, serial or parallel) must reproduce the
golden patterns AND the same prune accounting as mining the equivalent
in-memory dataset — support counting is additive across row chunks, so
nothing may drift.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset, ContrastSetMiner, MinerConfig
from repro.cli import main
from repro.core.serialize import patterns_to_dicts
from repro.counting import CountingBackend
from repro.dataset import synthetic, uci
from repro.dataset.io import write_csv

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_patterns.json"

LOADERS = {
    "simulated_dataset_1": synthetic.simulated_dataset_1,
    "simulated_dataset_2": synthetic.simulated_dataset_2,
    "simulated_dataset_3": synthetic.simulated_dataset_3,
    "simulated_dataset_4": synthetic.simulated_dataset_4,
    "adult": lambda: uci.adult(scale=0.15),
}

#: Deliberately awkward chunk sizes (never a divisor of the row count)
#: so the last chunk is ragged.
CHUNK_SIZES = {
    "simulated_dataset_1": 777,
    "simulated_dataset_2": 123,
    "simulated_dataset_3": 1999,
    "simulated_dataset_4": 450,
    "adult": 997,
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _pack(tmp_path, name):
    return ChunkedDataset.pack(
        tmp_path / "store", LOADERS[name](), chunk_size=CHUNK_SIZES[name]
    )


# ---------------------------------------------------------------------------
# Golden parity (acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("covers", ["mask", "bitmap"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_chunked_patterns_match_golden(
    golden, tmp_path, count_covers, name, covers
):
    count_covers(covers)
    store = _pack(tmp_path, name)
    config = MinerConfig(max_tree_depth=2)
    result = ContrastSetMiner(config).mine(store)
    assert patterns_to_dicts(result.patterns) == golden[name], (
        f"chunked mining drifted from golden output on {name} "
        f"(covers={covers})"
    )


@pytest.mark.parametrize("covers", ["mask", "bitmap"])
@pytest.mark.parametrize("name", ["simulated_dataset_2", "adult"])
def test_chunked_parallel_matches_golden(
    golden, tmp_path, count_covers, name, covers
):
    count_covers(covers)
    store = _pack(tmp_path, name)
    config = MinerConfig(max_tree_depth=2)
    result = ContrastSetMiner(config).mine(store, n_jobs=2)
    assert patterns_to_dicts(result.patterns) == golden[name]


@pytest.mark.parametrize("name", ["simulated_dataset_1", "adult"])
def test_chunked_prune_accounting_matches_in_memory(tmp_path, name):
    """Not just the same patterns — the same pruning decisions, rule by
    rule (checks, hits, and per-reason counts)."""
    dataset = LOADERS[name]()
    store = _pack(tmp_path, name)
    config = MinerConfig(max_tree_depth=2)
    dense = ContrastSetMiner(config).mine(dataset).summary()
    chunked = ContrastSetMiner(config).mine(store).summary()
    assert chunked.prune_rule_checks == dense.prune_rule_checks
    assert chunked.prune_rule_hits == dense.prune_rule_hits
    assert chunked.prune_reasons == dense.prune_reasons
    assert chunked.n_patterns == dense.n_patterns


def test_parity_across_chunk_sizes(tmp_path):
    """Chunking is a storage decision, never a results decision."""
    dataset = LOADERS["simulated_dataset_3"]()
    config = MinerConfig(max_tree_depth=2)
    reference = None
    for chunk_size in (1_000_000, 500, 61):
        store = ChunkedDataset.pack(
            tmp_path / f"s{chunk_size}", dataset, chunk_size=chunk_size
        )
        got = patterns_to_dicts(ContrastSetMiner(config).mine(store).patterns)
        if reference is None:
            reference = got
        assert got == reference


def test_mining_a_view_after_append_uses_its_snapshot(tmp_path):
    dataset = LOADERS["simulated_dataset_1"]()
    store = ChunkedDataset.pack(tmp_path / "s", dataset, chunk_size=500)
    view = store.view()
    store.append(dataset, chunk_size=500)  # concurrent producer
    config = MinerConfig(max_tree_depth=2)
    result = ContrastSetMiner(config).mine(view)
    baseline = ContrastSetMiner(config).mine(dataset)
    assert patterns_to_dicts(result.patterns) == patterns_to_dicts(
        baseline.patterns
    )


# ---------------------------------------------------------------------------
# The counter over a view
# ---------------------------------------------------------------------------


def test_backend_from_config_dispatch(tmp_path, mixed_dataset):
    """One counter serves every layout and no config is consulted: it
    takes the chunk layout from the dataset."""
    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=200)
    assert CountingBackend(store.view()).chunk_sizes == (200, 200, 200)
    assert CountingBackend(mixed_dataset).chunk_sizes == (600,)


def test_backend_cache_size_validation():
    """The counter keeps no counts cache, and the config has no knob
    for one."""
    with pytest.raises(TypeError, match="backend_cache_size"):
        MinerConfig(backend_cache_size=8)


def test_chunked_backend_counts_match_dense(tmp_path, categorical_dataset):
    from repro.core.cover import Cover
    from repro.core.items import CategoricalItem, Itemset

    store = ChunkedDataset.pack(tmp_path / "s", categorical_dataset,
                                chunk_size=137)
    backend = CountingBackend(store.view())
    for tool in ("T1", "T2"):
        itemset = Itemset([CategoricalItem("tool", tool)])
        mask = itemset.cover(categorical_dataset)
        assert np.array_equal(
            backend.group_counts_batch([itemset])[0],
            categorical_dataset.group_counts(mask),
        )
        assert np.array_equal(backend.cover_of(itemset).to_dense(), mask)
    mask = np.asarray(categorical_dataset.group_codes) == 0
    assert np.array_equal(
        backend.cover_group_counts(
            Cover.from_dense(mask, backend.chunk_sizes)
        ),
        categorical_dataset.group_counts(mask),
    )


# ---------------------------------------------------------------------------
# Task payloads (acceptance criterion: no whole-dataset pickling)
# ---------------------------------------------------------------------------


def test_worker_payload_does_not_scale_with_rows(tmp_path, rng):
    """The worker initializer's pickled arguments must stay tiny however
    large the packed dataset grows — workers open chunks via mmap by
    path instead of receiving arrays."""
    from repro import Attribute, Dataset, Schema

    def make(n):
        schema = Schema.of([Attribute.continuous("x")])
        return Dataset(
            schema,
            {"x": rng.uniform(0, 1, n)},
            rng.integers(0, 2, n),
            ["a", "b"],
        )

    sizes = {}
    for n in (1_000, 50_000):
        store = ChunkedDataset.pack(tmp_path / f"s{n}", make(n),
                                    chunk_size=10_000)
        view = store.view()
        config = MinerConfig(max_tree_depth=1)
        # exactly what ProcessPoolExecutor pickles per worker
        sizes[n] = len(pickle.dumps((view, config, None)))
        assert len(pickle.dumps(make(n))) > n  # dense payload scales
    assert sizes[50_000] < 4_000
    assert abs(sizes[50_000] - sizes[1_000]) < 200


def test_checkpointed_chunked_run_resumes_identically(tmp_path):
    dataset = LOADERS["simulated_dataset_1"]()
    store = ChunkedDataset.pack(tmp_path / "s", dataset, chunk_size=600)
    config = MinerConfig(max_tree_depth=2)
    ckpt = tmp_path / "ckpt"
    full = ContrastSetMiner(config).mine(store, checkpoint_dir=ckpt)
    # checkpoints embed the dataset as the tiny (path, chunks) pickle
    biggest = max(p.stat().st_size for p in ckpt.iterdir())
    assert biggest < 200_000
    files = sorted(ckpt.iterdir())
    # resume from the level-1 checkpoint and finish the run
    resumed = ContrastSetMiner(config).resume(files[0])
    assert patterns_to_dicts(resumed.patterns) == patterns_to_dicts(
        full.patterns
    )
    summary_a, summary_b = full.summary(), resumed.summary()
    assert summary_a.prune_reasons == summary_b.prune_reasons


# ---------------------------------------------------------------------------
# Streaming: appended chunks as the refresh feed
# ---------------------------------------------------------------------------


def test_streaming_consume_chunks(tmp_path, mixed_dataset):
    from repro.streaming import StreamingContrastMiner

    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=200)
    miner = StreamingContrastMiner(
        mixed_dataset.schema,
        mixed_dataset.group_labels,
        MinerConfig(max_tree_depth=1),
        window_size=1_000,
        refresh_every=200,
        min_rows=100,
    )
    updates = miner.consume_chunks(store)
    assert len(updates) == store.n_chunks
    assert any(u.refreshed for u in updates)
    assert updates[-1].rows_seen == mixed_dataset.n_rows
    # nothing new: no re-feeding of already-consumed chunks
    assert miner.consume_chunks(store) == []
    # a producer appends; the next poll consumes exactly the new chunks
    store.append(mixed_dataset, chunk_size=300)
    more = miner.consume_chunks(store)
    assert len(more) == store.n_chunks - len(updates)
    assert more[-1].rows_seen == 2 * mixed_dataset.n_rows


def test_streaming_chunk_feed_matches_direct_updates(tmp_path,
                                                     mixed_dataset):
    from repro.streaming import StreamingContrastMiner

    def build():
        return StreamingContrastMiner(
            mixed_dataset.schema,
            mixed_dataset.group_labels,
            MinerConfig(max_tree_depth=1),
            window_size=1_000,
            refresh_every=150,
            min_rows=100,
        )

    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=150)
    via_chunks = build()
    chunk_updates = via_chunks.consume_chunks(store)
    via_direct = build()
    direct_updates = [
        via_direct.update_dataset(chunk) for chunk in store.iter_chunks()
    ]
    assert [u.refreshed for u in chunk_updates] == [
        u.refreshed for u in direct_updates
    ]
    assert patterns_to_dicts(via_chunks.current_patterns) == (
        patterns_to_dicts(via_direct.current_patterns)
    )


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


@pytest.fixture
def csv_path(tmp_path, mixed_dataset):
    path = tmp_path / "data.csv"
    write_csv(mixed_dataset, path)
    return str(path)


class TestDatasetCli:
    def test_pack_info_mine(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        assert main(["dataset", "pack", csv_path, "--group", "group",
                     "--store", store, "--chunk-size", "150"]) == 0
        assert "4 chunks" in capsys.readouterr().out
        assert main(["dataset", "info", store, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "600 rows in 4 chunks" in out
        assert "all digests match" in out
        assert main(["mine", store, "--depth", "2", "--top", "3"]) == 0
        assert " count calls]" in capsys.readouterr().out

    def test_verify_clean_store(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store, "--chunk-size", "150"])
        capsys.readouterr()
        assert main(["dataset", "verify", store]) == 0
        out = capsys.readouterr().out
        # one line per chunk, each reporting ok
        chunk_lines = [ln for ln in out.splitlines()
                       if ln.startswith("chunk-")]
        assert len(chunk_lines) == 4
        assert all(ln.endswith("ok") for ln in chunk_lines)
        assert "all digests match" in out

    def test_verify_corrupt_store_exits_2(self, tmp_path, csv_path,
                                          capsys):
        store_dir = tmp_path / "store"
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", str(store_dir), "--chunk-size", "150"])
        capsys.readouterr()
        victim = sorted((store_dir / "chunks").iterdir())[1] / "x.bin"
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["dataset", "verify", str(store_dir)]) == 2
        captured = capsys.readouterr()
        chunk_lines = [ln for ln in captured.out.splitlines()
                       if ln.startswith("chunk-")]
        # every chunk is still reported; exactly one is corrupt
        assert len(chunk_lines) == 4
        assert sum("CORRUPT" in ln for ln in chunk_lines) == 1
        assert "CORRUPT" in chunk_lines[1]
        assert "1 of 4 chunks corrupt" in captured.err

    def test_append_and_group_alignment(self, tmp_path, csv_path,
                                        mixed_dataset, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store, "--chunk-size", "300"])
        capsys.readouterr()
        # append a CSV holding only group "B" rows: labels are a subset
        # in a different discovery order, and must re-code cleanly
        only_b = mixed_dataset.select_groups(["B", "A"]).restrict(
            np.asarray(mixed_dataset.select_groups(["B", "A"]).group_codes)
            == 0
        )
        b_csv = tmp_path / "b.csv"
        write_csv(only_b, b_csv)
        labels_before = ChunkedDataset(store).group_labels
        assert main(["dataset", "append", str(b_csv),
                     "--store", store]) == 0
        assert "appended" in capsys.readouterr().out
        reopened = ChunkedDataset(store)
        # appends re-code onto the store's existing label order
        assert reopened.group_labels == labels_before
        assert reopened.n_rows == 600 + only_b.n_rows

    def test_pack_requires_group(self, tmp_path, csv_path, capsys):
        assert main(["dataset", "pack", csv_path,
                     "--store", str(tmp_path / "s")]) == 2
        assert "--group is required" in capsys.readouterr().err

    def test_mine_csv_without_group_is_exit_2(self, csv_path, capsys):
        assert main(["mine", csv_path]) == 2
        assert "--group is required" in capsys.readouterr().err

    def test_mine_store_with_wrong_group_is_exit_2(self, tmp_path,
                                                   csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store])
        capsys.readouterr()
        assert main(["mine", store, "--group", "outcome"]) == 2
        assert "groups rows by" in capsys.readouterr().err

    def test_cache_size_flag_validation(self, csv_path, capsys):
        """``mine`` lost ``--backend`` and ``--cache-size``: each is a
        usage error (exit 2), never a traceback."""
        for flag, value in (("--backend", "bitmap"), ("--cache-size", "64")):
            with pytest.raises(SystemExit) as exc:
                main(["mine", csv_path, "--group", "group", flag, value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
            assert f"unrecognized arguments: {flag} {value}" in err
            assert "Traceback" not in err

    def test_cache_size_flag_accepted(self, tmp_path, csv_path, capsys):
        """``mine`` needs no ``--cache-size`` (or any other flag) to mine
        a packed store: it prints the patterns of the CSV it was packed
        from."""
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store, "--chunk-size", "150"])
        capsys.readouterr()
        argv = ["mine", "--depth", "1", "--all", "--json"]
        assert main([*argv, store]) == 0
        packed = json.loads(capsys.readouterr().out)
        assert packed
        assert main([*argv, csv_path, "--group", "group"]) == 0
        assert json.loads(capsys.readouterr().out) == packed

    def test_info_on_store_dir(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store])
        capsys.readouterr()
        assert main(["info", store]) == 0
        out = capsys.readouterr().out
        assert "600 rows" in out
        assert "x: continuous" in out

    def test_dataset_info_missing_store_is_exit_2(self, tmp_path, capsys):
        assert main(["dataset", "info", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
