"""Unit tests for the chunked on-disk columnar store and its lazy view.

Covers the satellite checklist explicitly: codec round-trips for
missing values, unicode and empty-string categories, single-row chunks;
digest stability (explicit little-endian dtypes make the manifest
digests a pure function of the values, asserted against hardcoded
hashes); plus append/atomicity semantics, the mmap read path, the lazy
view's equivalence to the dense dataset, corruption detection, and the
tiny-pickle contract parallel workers rely on.
"""

import json
import pickle
import shutil
import weakref

import numpy as np
import pytest

from repro import Attribute, Dataset, Schema
from repro.dataset.chunked import (
    DEFAULT_CHUNK_SIZE,
    ChunkedDataset,
    ChunkedDatasetError,
    ChunkedView,
    categorical_codec,
)
from repro.resilience.checkpoint import dataset_fingerprint


def _dense_equal(a: Dataset, b: Dataset) -> bool:
    if a.schema != b.schema or a.group_labels != b.group_labels:
        return False
    if not np.array_equal(
        np.asarray(a.group_codes), np.asarray(b.group_codes)
    ):
        return False
    return all(
        np.array_equal(
            a.column(name), b.column(name), equal_nan=True
        )
        for name in a.schema.names
    )


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


def test_categorical_codec_widths():
    assert categorical_codec(2) == "<u1"
    assert categorical_codec(256) == "<u1"
    assert categorical_codec(257) == "<u2"
    assert categorical_codec(65_536) == "<u2"
    assert categorical_codec(65_537) == "<u4"
    with pytest.raises(ChunkedDatasetError):
        categorical_codec(2**33)


def test_codecs_recorded_in_manifest(store_dir, mixed_dataset):
    ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=100)
    manifest = json.loads((store_dir / "manifest.json").read_text())
    assert manifest["codecs"]["x"] == "<f8"
    assert manifest["codecs"]["color"] == "<u1"
    assert manifest["codecs"]["__group__"] == "<u1"


def test_wide_cardinality_roundtrip(store_dir):
    # 300 categories forces the <u2 codec
    categories = [f"cat-{i}" for i in range(300)]
    schema = Schema.of([Attribute.categorical("c", categories)])
    codes = np.arange(300, dtype=np.int64) % 300
    data = Dataset(
        schema, {"c": codes}, np.zeros(300, dtype=np.int64), ["only"]
    )
    store = ChunkedDataset.pack(store_dir, data, chunk_size=7)
    assert json.loads((store_dir / "manifest.json").read_text())[
        "codecs"
    ]["c"] == "<u2"
    assert _dense_equal(store.to_dataset(), data)


# ---------------------------------------------------------------------------
# Round-trips (satellite: codec edge cases)
# ---------------------------------------------------------------------------


def test_roundtrip_missing_values(store_dir):
    schema = Schema.of(
        [Attribute.continuous("x"), Attribute.continuous("y")]
    )
    x = np.array([0.5, np.nan, 1.5, np.nan])
    y = np.array([np.nan, -1.0, np.inf, -np.inf])
    data = Dataset(
        schema, {"x": x, "y": y},
        np.array([0, 1, 0, 1]), ["a", "b"],
    )
    store = ChunkedDataset.pack(store_dir, data, chunk_size=3)
    back = store.to_dataset()
    assert _dense_equal(back, data)
    # NaN semantics survive: the view reports the same missing rows
    assert np.array_equal(store.view().missing_mask(), data.missing_mask())


def test_roundtrip_unicode_and_empty_categories(store_dir):
    categories = ["", "café", "日本語", "naïve ", "a\tb"]
    schema = Schema.of([Attribute.categorical("label", categories)])
    codes = np.array([0, 1, 2, 3, 4, 2, 0], dtype=np.int64)
    data = Dataset(
        schema,
        {"label": codes},
        np.array([0, 0, 0, 1, 1, 1, 1]),
        ["ok", "naïve-group"],
    )
    store = ChunkedDataset.pack(store_dir, data, chunk_size=2)
    reopened = ChunkedDataset(store.path)
    assert reopened.schema["label"].categories == tuple(categories)
    assert reopened.group_labels == ("ok", "naïve-group")
    assert _dense_equal(reopened.to_dataset(), data)


def test_roundtrip_single_row_chunks(store_dir, mixed_dataset):
    small = mixed_dataset.restrict(
        np.arange(mixed_dataset.n_rows) < 5
    )
    store = ChunkedDataset.pack(store_dir, small, chunk_size=1)
    assert store.n_chunks == 5
    assert all(meta.n_rows == 1 for meta in store.chunks)
    assert _dense_equal(store.to_dataset(), small)
    assert dataset_fingerprint(store.view()) == dataset_fingerprint(small)


def test_empty_append_is_a_noop(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    before = store.chunk_digests()
    empty = mixed_dataset.restrict(
        np.zeros(mixed_dataset.n_rows, dtype=bool)
    )
    assert store.append(empty) == []
    assert store.chunk_digests() == before


# ---------------------------------------------------------------------------
# Digest stability (satellite: explicit dtypes/endianness)
# ---------------------------------------------------------------------------


def _fixed_dataset() -> Dataset:
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("c", ["p", "q", "r"]),
        ]
    )
    return Dataset(
        schema,
        {
            "x": np.array([0.0, 0.25, -1.5, 3.75], dtype=np.float64),
            "c": np.array([0, 2, 1, 0], dtype=np.int64),
        },
        np.array([0, 1, 1, 0], dtype=np.int64),
        ["g0", "g1"],
    )


def test_digests_are_platform_stable(store_dir):
    """The per-column digests hash explicit little-endian encodings, so
    they are a pure function of the values — these exact hex strings
    must reproduce on any platform and any numpy version."""
    store = ChunkedDataset.pack(store_dir, _fixed_dataset())
    meta = store.chunks[0]
    assert meta.column_digests["x"] == (
        "7ff60b0e4792aa86f52de240be3e373263121440ceb923a3349578177ff2a756"
    )
    assert meta.column_digests["c"] == (
        "c7499a5aeb18064ca2e52b8c1b7d027ccd80d4f52256d2139d2d009afdc3d782"
    )
    assert meta.group_digest == (
        "d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c"
    )
    assert meta.digest == (
        "533d031b1f7c689b7370df9e88fda2cdf14a4aef9ac7cbf7d63e83993b2a88fa"
    )


def test_same_values_same_digests_regardless_of_chunking(
    store_dir, tmp_path, mixed_dataset
):
    """One chunk of the same rows always hashes identically, however
    the surrounding store was laid out."""
    a = ChunkedDataset.pack(store_dir, mixed_dataset)
    b = ChunkedDataset.pack(tmp_path / "other", mixed_dataset)
    assert a.chunk_digests() == b.chunk_digests()
    # ... and chunking differently changes the partition, not the data:
    c = ChunkedDataset.pack(tmp_path / "third", mixed_dataset,
                            chunk_size=100)
    assert _dense_equal(c.to_dataset(), a.to_dataset())
    assert c.chunk_digests() != a.chunk_digests()


def test_append_never_touches_existing_digests(store_dir, mixed_dataset):
    half = mixed_dataset.n_rows // 2
    first = mixed_dataset.restrict(np.arange(mixed_dataset.n_rows) < half)
    rest = mixed_dataset.restrict(np.arange(mixed_dataset.n_rows) >= half)
    store = ChunkedDataset.pack(store_dir, first, chunk_size=75)
    before = store.chunk_digests()
    new_ids = store.append(rest, chunk_size=75)
    assert len(new_ids) == len(store.chunks) - len(before)
    assert store.chunk_digests()[: len(before)] == before
    assert _dense_equal(store.to_dataset(), mixed_dataset)


# ---------------------------------------------------------------------------
# Store mechanics
# ---------------------------------------------------------------------------


def test_open_requires_manifest(tmp_path):
    with pytest.raises(ChunkedDatasetError, match="not a chunked dataset"):
        ChunkedDataset(tmp_path)


def test_create_refuses_existing_store(store_dir, mixed_dataset):
    ChunkedDataset.pack(store_dir, mixed_dataset)
    with pytest.raises(ChunkedDatasetError, match="already holds"):
        ChunkedDataset.create(
            store_dir, mixed_dataset.schema, mixed_dataset.group_labels
        )


def test_append_rejects_schema_mismatch(store_dir, mixed_dataset,
                                        categorical_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset)
    with pytest.raises(ChunkedDatasetError, match="schema"):
        store.append(categorical_dataset)


def test_append_rejects_group_mismatch(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset)
    relabeled = Dataset(
        mixed_dataset.schema,
        {n: mixed_dataset.column(n) for n in mixed_dataset.schema.names},
        np.asarray(mixed_dataset.group_codes),
        ["B", "A"],  # swapped
    )
    with pytest.raises(ChunkedDatasetError, match="group labels"):
        store.append(relabeled)


def test_verify_detects_corruption(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    store.verify()
    victim = store.path / "chunks" / "chunk-000001" / "x.bin"
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(ChunkedDatasetError, match="digest mismatch"):
        store.verify()


def test_truncated_chunk_file_fails_fast(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    victim = store.path / "chunks" / "chunk-000000" / "noise.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(ChunkedDatasetError, match="bytes"):
        store.chunk_dataset(0)


def test_chunk_file_damage_after_first_read_fails_cleanly(
    store_dir, mixed_dataset
):
    """Each file's size is checked once per store; a file truncated or
    removed after that check still fails as a ChunkedDatasetError that
    names it."""
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    view = store.view()
    first = np.concatenate(list(view.iter_chunk_columns("x")))
    assert np.array_equal(first, mixed_dataset.column("x"), equal_nan=True)
    victim = store.path / "chunks" / "chunk-000001" / "x.bin"
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(ChunkedDatasetError, match=r"x\.bin is \d+ bytes"):
        list(view.iter_chunk_columns("x"))
    victim.unlink()
    with pytest.raises(ChunkedDatasetError, match=r"missing .*x\.bin"):
        list(view.iter_chunk_columns("x"))
    with pytest.raises(ChunkedDatasetError, match=r"missing .*x\.bin"):
        store.chunk_dataset(1)


def test_reload_rechecks_a_rewritten_chunk(store_dir, mixed_dataset):
    """A size check belongs to one chunk id *and* digest: after the
    store is rewritten with new content under the same chunk ids, a
    file longer than the new manifest says is refused again."""
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    list(store.view().iter_chunk_columns("x"))
    shutil.rmtree(store_dir)
    ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=100)
    victim = store_dir / "chunks" / "chunk-000000" / "x.bin"
    victim.write_bytes(victim.read_bytes() + bytes(8))
    store.reload()
    with pytest.raises(ChunkedDatasetError, match=r"x\.bin is \d+ bytes"):
        list(store.view().iter_chunk_columns("x"))


def test_reload_sees_external_appends(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=300)
    other = ChunkedDataset(store_dir)
    store.append(mixed_dataset, chunk_size=300)
    assert other.n_rows == mixed_dataset.n_rows  # stale until reload
    other.reload()
    assert other.n_rows == 2 * mixed_dataset.n_rows


def test_iter_chunks_yields_plain_datasets(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=250)
    chunks = list(store.iter_chunks())
    assert [c.n_rows for c in chunks] == [m.n_rows for m in store.chunks]
    assert sum(c.n_rows for c in chunks) == mixed_dataset.n_rows
    merged = np.concatenate([c.column("x") for c in chunks])
    assert np.array_equal(merged, mixed_dataset.column("x"))
    # group sizes are additive across chunks
    sizes = np.sum([c.group_counts() for c in chunks], axis=0)
    assert tuple(int(s) for s in sizes) == mixed_dataset.group_sizes


def test_mmap_columns_are_lazy(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    chunk = store.chunk_dataset(0)
    # continuous columns stay memory-mapped (zero-copy reads): the
    # ultimate base buffer of the column view is the mmap itself
    base = chunk.column("x")
    while (
        isinstance(base, np.ndarray)
        and not isinstance(base, np.memmap)
        and base.base is not None
    ):
        base = base.base
    assert isinstance(base, np.memmap)


def test_default_chunk_size_pack(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset)
    assert store.n_chunks == 1
    assert DEFAULT_CHUNK_SIZE >= mixed_dataset.n_rows


# ---------------------------------------------------------------------------
# The lazy view
# ---------------------------------------------------------------------------


def test_view_matches_dense_dataset(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=128)
    view = store.view()
    assert view.n_rows == mixed_dataset.n_rows
    assert view.group_sizes == mixed_dataset.group_sizes
    for name in mixed_dataset.schema.names:
        assert np.array_equal(view.column(name),
                              mixed_dataset.column(name))
    assert dataset_fingerprint(view) == dataset_fingerprint(mixed_dataset)


def test_view_column_lru_is_bounded(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=128)
    view = store.view(max_resident_columns=2)
    view.column("x")
    view.column("noise")
    view.column("color")
    assert view.resident_columns() == ("noise", "color")
    view.column("noise")  # refresh recency
    view.column("x")
    assert view.resident_columns() == ("noise", "x")


def test_view_column_evicts_before_gathering(
    store_dir, mixed_dataset, monkeypatch
):
    """With ``max_resident_columns=2``, a miss evicts before it gathers,
    so no more than two gathered columns are ever alive, and a name
    outside the schema leaves the cache as it was."""
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=128)
    view = store.view(max_resident_columns=2)
    gathered: list[weakref.ref] = []
    alive_at_gather: list[int] = []
    real = ChunkedView.iter_chunk_columns

    def fill(self, name):
        alive_at_gather.append(sum(ref() is not None for ref in gathered))
        return real(self, name)

    monkeypatch.setattr(ChunkedView, "iter_chunk_columns", fill)
    for name in ("x", "noise", "color", "x", "noise", "color"):
        # column() returns a read-only view; its base is the cached
        # column, and no other reference to it is kept here.
        gathered.append(weakref.ref(view.column(name).base))
    assert alive_at_gather == [0, 1, 1, 1, 1, 1]
    assert view.resident_columns() == ("noise", "color")
    with pytest.raises(KeyError):
        view.column("nope")
    assert view.resident_columns() == ("noise", "color")


def test_view_restrict_and_select_groups_materialise(store_dir,
                                                     mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=128)
    view = store.view()
    mask = np.asarray(view.group_codes) == 0
    assert _dense_equal(view.restrict(mask), mixed_dataset.restrict(mask))
    assert _dense_equal(
        view.select_groups(["B"]), mixed_dataset.select_groups(["B"])
    )


def test_view_project_stays_lazy(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=128)
    projected = store.view().project(["x", "color"])
    assert isinstance(projected, ChunkedView)
    assert projected.schema.names == ("x", "color")
    assert np.array_equal(projected.column("x"), mixed_dataset.column("x"))
    with pytest.raises(KeyError):
        projected.column("noise")


def test_view_pins_chunk_snapshot_across_appends(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    view = store.view()
    store.append(mixed_dataset, chunk_size=200)
    # the in-flight view still sees exactly its original rows
    assert view.n_rows == mixed_dataset.n_rows
    assert np.array_equal(view.column("x"), mixed_dataset.column("x"))
    # a fresh view sees everything
    assert store.view().n_rows == 2 * mixed_dataset.n_rows


def test_view_pickle_is_tiny_and_reopens(store_dir, mixed_dataset):
    """Parallel workers must receive (path, chunk ids), never arrays."""
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=64)
    view = store.view()
    blob = pickle.dumps(view)
    assert len(blob) < 2_000
    reopened = pickle.loads(blob)
    assert isinstance(reopened, ChunkedView)
    assert reopened.chunk_ids == view.chunk_ids
    assert dataset_fingerprint(reopened) == dataset_fingerprint(
        mixed_dataset
    )


def test_view_of_vanished_chunks_fails_loudly(store_dir, mixed_dataset):
    store = ChunkedDataset.pack(store_dir, mixed_dataset, chunk_size=200)
    with pytest.raises(ChunkedDatasetError, match="no longer holds"):
        ChunkedView(store, chunk_ids=("chunk-999999",))


def test_cache_chunks_validation(store_dir, mixed_dataset):
    ChunkedDataset.pack(store_dir, mixed_dataset)
    with pytest.raises(ChunkedDatasetError, match="cache_chunks"):
        ChunkedDataset(store_dir, cache_chunks=0)
    with pytest.raises(ChunkedDatasetError, match="chunk_size"):
        ChunkedDataset(store_dir).append(mixed_dataset, chunk_size=0)
