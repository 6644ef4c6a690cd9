"""Counting tests against the reference expression.

One counter, :class:`CountingBackend`, serves every data layout: it reads
a dataset only through its chunk protocol, and an in-memory dataset is
the one-chunk case.  Every primitive must give, for each itemset and on
each layout, exactly ``dataset.group_counts(itemset.cover(dataset))`` —
the contingency row of Eq. 1 counted from a dense boolean mask — and a
packed cover must count exactly as its dense mask does.  Whole mines with
covers counted on packed words (``bitmap``, the shipped path) and as
dense masks (``mask``, the ``count_covers`` fixture) must agree on every
dataset shape the miner supports, including missing values.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.counting
from repro import (
    Attribute,
    CategoricalItem,
    ChunkedDataset,
    ContrastSetMiner,
    Dataset,
    Interval,
    Itemset,
    MinerConfig,
    NumericItem,
    Schema,
)
from repro.core.cover import Cover
from repro.core.instrumentation import MiningStats
from repro.counting import BackendCounters, CountingBackend
from repro.dataset.synthetic import (
    simulated_dataset_1,
    simulated_dataset_2,
    simulated_dataset_3,
    simulated_dataset_4,
)
from repro.dataset.table import DatasetError
from repro.dataset.uci import adult


def _mine_both(count_covers, dataset, config=None, **mine_kwargs):
    """Mine with covers counted as dense masks and on packed words,
    returning the two MiningResults in that order."""
    config = config or MinerConfig(max_tree_depth=2, k=50)
    packed = ContrastSetMiner(config).mine(dataset, **mine_kwargs)
    count_covers("mask")
    dense = ContrastSetMiner(config).mine(dataset, **mine_kwargs)
    return dense, packed


def _fingerprint(result):
    return [(p.itemset, p.counts) for p in result.patterns]


def _view(path, dataset, n_chunks):
    """``dataset`` as a view of ``n_chunks`` chunks of near-equal size."""
    store = ChunkedDataset.create(
        path / f"{n_chunks}-chunks", dataset.schema, dataset.group_labels
    )
    for rows in np.array_split(np.arange(dataset.n_rows), n_chunks):
        keep = np.zeros(dataset.n_rows, dtype=bool)
        keep[rows] = True
        store.append(dataset.restrict(keep))
    view = store.view()
    assert view.n_chunks == n_chunks
    return view


class TestRegistry:
    def test_available_backends(self):
        """One counter ships.  The four names the benchmark tracer wraps
        alias it, and none is exported."""
        from repro.counting.base import CountingBackendBase
        from repro.counting.bitmap import BitmapBackend
        from repro.counting.chunked import ChunkedBackend
        from repro.counting.mask import MaskBackend

        aliases = {CountingBackendBase, MaskBackend, BitmapBackend,
                   ChunkedBackend}
        assert aliases == {CountingBackend}
        assert repro.counting.__all__ == ["BackendCounters", "CountingBackend"]

    def test_make_backend(self, mixed_dataset, tmp_path):
        """Both layouts answer the chunk protocol: an in-memory dataset
        is its own one chunk, a view's chunks concatenate to the rows."""
        assert mixed_dataset.chunk_sizes == (mixed_dataset.n_rows,)
        assert mixed_dataset.chunk(0) is mixed_dataset
        with pytest.raises(IndexError):
            mixed_dataset.chunk(1)
        view = _view(tmp_path, mixed_dataset, 3)
        assert view.chunk_sizes == (200, 200, 200)
        for i, offset in enumerate((0, 200, 400)):
            rows = slice(offset, offset + 200)
            np.testing.assert_array_equal(
                view.chunk(i).column("x"), mixed_dataset.column("x")[rows]
            )
            np.testing.assert_array_equal(
                view.chunk_group_codes(i), mixed_dataset.group_codes[rows]
            )
        for dataset in (mixed_dataset, view):
            backend = CountingBackend(dataset)
            assert backend.chunk_sizes == dataset.chunk_sizes

    def test_backends_satisfy_protocol(self, mixed_dataset, tmp_path):
        """On a view the counter reads group codes straight from each
        chunk's group file, at the stored width: counting never gathers
        the view's ``int64`` group column."""
        view = _view(tmp_path, mixed_dataset, 3)
        backend = CountingBackend(view)
        backend.cover_group_counts(backend.full_cover())
        backend.group_counts_batch(
            [Itemset([CategoricalItem("color", "red")])]
        )
        assert view.chunk_group_codes(0).dtype == np.uint8
        assert view._resident_codes is None

    def test_config_validates_backend(self):
        """The dataset's layout needs no knob in the config."""
        with pytest.raises(TypeError, match="counting_backend"):
            MinerConfig(counting_backend="mask")


class TestBackendUnits:
    """Every counting primitive, in memory and on 1- and 3-chunk views,
    against the reference expression."""

    @pytest.fixture
    def backends(self, mixed_dataset, tmp_path):
        return [
            CountingBackend(mixed_dataset),
            CountingBackend(_view(tmp_path, mixed_dataset, 1)),
            CountingBackend(_view(tmp_path, mixed_dataset, 3)),
        ]

    @staticmethod
    def _check(backends, dataset, itemsets):
        for backend in backends:
            batch = backend.group_counts_batch(itemsets)
            for i, itemset in enumerate(itemsets):
                expected = dataset.group_counts(itemset.cover(dataset))
                np.testing.assert_array_equal(batch[i], expected)
                cover = backend.cover_of(itemset)
                assert cover.chunk_sizes == backend.chunk_sizes
                np.testing.assert_array_equal(
                    cover.to_dense(), itemset.cover(dataset)
                )
                np.testing.assert_array_equal(
                    backend.cover_group_counts(cover), expected
                )

    def test_empty_itemset_counts_everything(self, backends, mixed_dataset):
        self._check(backends, mixed_dataset, [Itemset()])
        for backend in backends:
            assert tuple(
                backend.cover_group_counts(backend.full_cover())
            ) == mixed_dataset.group_sizes

    def test_empty_layouts_count_zero_per_group(self, mixed_dataset, tmp_path):
        """A 0-row dataset and the view of an empty store (no chunks at
        all) count one 0 per group, for the full cover and for every
        itemset, as the reference expression does."""
        empty = mixed_dataset.restrict(np.zeros(mixed_dataset.n_rows, bool))
        view = ChunkedDataset.create(
            tmp_path / "empty", mixed_dataset.schema,
            mixed_dataset.group_labels,
        ).view()
        assert view.chunk_sizes == ()
        itemsets = [
            Itemset(),
            Itemset([CategoricalItem("color", "red")]),
            Itemset([NumericItem("x", Interval(0.0, 0.5, True, True))]),
        ]
        zeros = np.zeros(mixed_dataset.n_groups, dtype=np.int64)
        for dataset in (empty, view):
            backend = CountingBackend(dataset)
            np.testing.assert_array_equal(
                backend.cover_group_counts(backend.full_cover()), zeros
            )
            np.testing.assert_array_equal(
                backend.group_counts_batch(itemsets),
                np.zeros((len(itemsets), mixed_dataset.n_groups)),
            )
            for itemset in itemsets:
                np.testing.assert_array_equal(
                    backend.cover_group_counts(backend.cover_of(itemset)),
                    dataset.group_counts(itemset.cover(dataset)),
                )

    def test_categorical_itemset_parity(self, backends, mixed_dataset):
        itemsets = [
            Itemset([CategoricalItem("color", value)])
            for value in ("red", "green", "blue")
        ]
        self._check(backends, mixed_dataset, itemsets)

    def test_mixed_itemset_parity(self, backends, mixed_dataset):
        numeric = NumericItem("x", Interval(0.0, 0.5, True, True))
        itemsets = [
            Itemset([numeric]),
            Itemset([CategoricalItem("color", "red"), numeric]),
        ]
        self._check(backends, mixed_dataset, itemsets)

    def test_mask_group_counts_parity(self, backends, mixed_dataset, rng):
        mask = rng.random(mixed_dataset.n_rows) < 0.3
        for backend in backends:
            np.testing.assert_array_equal(
                backend.cover_group_counts(
                    Cover.from_dense(mask, backend.chunk_sizes)
                ),
                mixed_dataset.group_counts(mask),
            )

    def test_bitmap_rejects_non_boolean_mask(self, backends, mixed_dataset):
        """A packed cover is built from a boolean mask only, and must
        share the backend's chunk layout."""
        n = mixed_dataset.n_rows
        with pytest.raises(ValueError, match="boolean"):
            Cover.from_dense(np.ones(n, dtype=np.int64))
        for backend, foreign in zip(backends, [(n // 2, n - n // 2),
                                               (n // 2, n - n // 2),
                                               (n,)]):
            with pytest.raises(DatasetError, match="chunk-aligned"):
                backend.cover_group_counts(Cover.full(foreign))


class TestCounters:
    def test_count_calls_recorded(self, categorical_dataset):
        backend = CountingBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        backend.group_counts_batch([itemset])
        backend.cover_group_counts(backend.cover_of(itemset))
        assert backend.counters().count_calls == 2

    def test_publish_is_delta_based(self, categorical_dataset):
        """Publishing twice must not double-count the first batch."""
        backend = CountingBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        stats = MiningStats()
        backend.group_counts_batch([itemset])
        backend.publish(stats)
        assert stats.count_calls == 1
        backend.group_counts_batch([itemset])
        backend.publish(stats)
        assert stats.count_calls == 2
        assert stats.batch_calls == 2

    def test_counters_arithmetic(self):
        a = BackendCounters(10, 4, 6, 1)
        b = BackendCounters(3, 1, 2, 1)
        assert (a - b) == BackendCounters(7, 3, 4, 0)
        assert (a + b) == BackendCounters(13, 5, 8, 2)


def _stack_dataset(n=200, seed=0, n_groups=2):
    rng = np.random.default_rng(seed)
    schema = Schema.of(
        [
            Attribute.categorical("a", ["x", "y", "z"]),
            Attribute.categorical("b", ["p", "q"]),
            Attribute.continuous("noise"),
        ]
    )
    return Dataset(
        schema,
        {
            "a": rng.integers(0, 3, n),
            "b": rng.integers(0, 2, n),
            "noise": rng.uniform(0, 1, n),
        },
        rng.integers(0, n_groups, n),
        [f"G{g}" for g in range(n_groups)],
    )


class TestGroupStacks:
    """Covers count on packed words against one ``(n_groups, n_words)``
    stack of packed group-membership bits per chunk, built once from the
    group codes."""

    def test_counts_match_mask_path(self, tmp_path):
        ds = _stack_dataset()
        for dataset in (ds, _view(tmp_path, ds, 3)):
            backend = CountingBackend(dataset)
            for a_val in ("x", "y", "z"):
                for b_val in ("p", "q"):
                    itemset = Itemset(
                        [
                            CategoricalItem("a", a_val),
                            CategoricalItem("b", b_val),
                        ]
                    )
                    mask = itemset.cover(ds)
                    cover = backend.cover_of(itemset)
                    assert cover.count() == int(mask.sum())
                    np.testing.assert_array_equal(
                        backend.cover_group_counts(cover),
                        ds.group_counts(mask),
                    )

    def test_empty_itemset_counts_everything(self):
        ds = _stack_dataset()
        backend = CountingBackend(ds)
        for cover in (backend.full_cover(), backend.cover_of(Itemset())):
            assert tuple(backend.cover_group_counts(cover)) == ds.group_sizes

    def test_memory_is_bounded(self, tmp_path):
        # one bit per row per group: 2 groups x 125 bytes, in one chunk
        # or in three
        ds = _stack_dataset(n=1000)
        for dataset, chunks in ((ds, 1), (_view(tmp_path, ds, 3), 3)):
            backend = CountingBackend(dataset)
            backend.cover_group_counts(backend.full_cover())
            assert len(backend._group_stacks) == chunks
            assert sum(
                stack.nbytes for stack in backend._group_stacks
            ) <= 2 * (125 + chunks)

    def test_odd_row_counts(self):
        # row counts not divisible by 8 exercise packbits padding
        for n in (1, 7, 9, 63, 65):
            ds = _stack_dataset(n=n, seed=n)
            backend = CountingBackend(ds)
            itemset = Itemset([CategoricalItem("a", "x")])
            np.testing.assert_array_equal(
                backend.cover_group_counts(backend.cover_of(itemset)),
                ds.group_counts(itemset.cover(ds)),
            )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 1000),
    n_groups=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    skip_group=st.booleans(),
    chunked=st.booleans(),
)
def test_bitmap_counts_always_match(
    n, seed, n_groups, density, skip_group, chunked
):
    """Property: a packed cover counts as its dense mask does — on row
    counts that leave pad bits, empty and full covers, and a group with
    no covered rows, in memory and on a view of three chunks (one row
    each, and fewer, below three rows)."""
    ds = _stack_dataset(n=n, seed=seed, n_groups=n_groups)
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < density
    if skip_group:
        mask &= np.asarray(ds.group_codes) != 0
    with tempfile.TemporaryDirectory() as tmp:
        dataset = _view(Path(tmp), ds, min(3, n)) if chunked else ds
        cover = Cover.from_dense(mask, dataset.chunk_sizes)
        np.testing.assert_array_equal(
            CountingBackend(dataset).cover_group_counts(cover),
            ds.group_counts(cover.to_dense()),
        )


@pytest.mark.parametrize(
    "factory",
    [
        simulated_dataset_1,
        simulated_dataset_2,
        simulated_dataset_3,
        simulated_dataset_4,
    ],
)
def test_end_to_end_parity_simulated(count_covers, factory):
    dataset = factory(n=800)
    mask_res, bitmap_res = _mine_both(count_covers, dataset)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)
    assert mask_res.interests == bitmap_res.interests


def test_end_to_end_parity_adult_sample(count_covers):
    dataset = adult(scale=0.05)
    mask_res, bitmap_res = _mine_both(
        count_covers, dataset, MinerConfig(max_tree_depth=2, k=100)
    )
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)


def test_end_to_end_parity_categorical_only_adult(tmp_path):
    """Categorical-only mines count no covers; here the layouts differ
    instead (one contingency table per attribute set in memory, summed
    over three chunks on a view), and must agree."""
    dataset = adult(scale=0.05)
    categorical = [
        n for n in dataset.schema.names
        if dataset.attribute(n).is_categorical
    ]
    miner = ContrastSetMiner(MinerConfig(max_tree_depth=3, k=100))
    in_memory = miner.mine(dataset, attributes=categorical)
    chunked = miner.mine(_view(tmp_path, dataset, 3), attributes=categorical)
    assert _fingerprint(in_memory) == _fingerprint(chunked)
    assert in_memory.stats.count_calls == chunked.stats.count_calls


def test_end_to_end_parity_with_missing_values(count_covers, rng):
    """NaN continuous cells cover no interval on either path."""
    n = 500
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    x[rng.random(n) < 0.15] = np.nan
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    dataset = Dataset(
        schema, {"x": x, "color": color}, group, ["A", "B"]
    )
    assert dataset.has_missing
    mask_res, bitmap_res = _mine_both(count_covers, dataset)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)
    assert mask_res.patterns  # the planted contrast must survive


def test_parity_survives_group_selection(count_covers):
    dataset = adult(scale=0.05)
    labels = dataset.group_labels[:2]
    mask_res, bitmap_res = _mine_both(count_covers, dataset, groups=labels)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)


def test_count_call_totals_agree(count_covers, mixed_dataset):
    """Both paths answer the identical sequence of count queries."""
    mask_res, bitmap_res = _mine_both(count_covers, mixed_dataset)
    assert mask_res.stats.count_calls == bitmap_res.stats.count_calls
    assert mask_res.stats.sdad_calls > 0
