"""Counting tests against the reference expression.

There is one counter per data layout: :class:`MaskBackend` for an
in-memory dataset and :class:`ChunkedBackend` for a chunked view.  Every
primitive of both must give, for each itemset, exactly
``dataset.group_counts(itemset.cover(dataset))`` — the contingency row of
Eq. 1 counted from a dense boolean mask — and a packed cover must count
exactly as its dense mask does.  Whole mines with covers counted on packed
words (``bitmap``, the shipped path) and as dense masks (``mask``, the
``count_covers`` fixture) must agree on every dataset shape the miner
supports, including missing values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

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
from repro.counting import (
    BackendCounters,
    CountingBackend,
    MaskBackend,
    backend_for,
)
from repro.counting import chunked as chunked_counting
from repro.counting.chunked import ChunkedBackend
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


def _view(tmp_path, dataset, n_chunks):
    store = ChunkedDataset.pack(
        tmp_path / f"{n_chunks}-chunks",
        dataset,
        chunk_size=math.ceil(dataset.n_rows / n_chunks),
    )
    view = store.view()
    assert view.n_chunks == n_chunks
    return view


class TestRegistry:
    def test_available_backends(self):
        """Two counters ship; ``repro.counting.bitmap`` only aliases the
        mask backend for the benchmark tracer and is not exported."""
        from repro.counting.bitmap import BitmapBackend

        assert (MaskBackend.name, ChunkedBackend.name) == ("mask", "chunked")
        assert BitmapBackend is MaskBackend
        assert "BitmapBackend" not in repro.counting.__all__

    def test_make_backend(self, mixed_dataset, tmp_path):
        assert type(backend_for(mixed_dataset)) is MaskBackend
        view = _view(tmp_path, mixed_dataset, 3)
        assert type(backend_for(view)) is ChunkedBackend
        with pytest.raises(TypeError, match="ChunkedBackend"):
            MaskBackend(view)

    def test_backends_satisfy_protocol(self, mixed_dataset, tmp_path):
        view = _view(tmp_path, mixed_dataset, 3)
        for backend in (MaskBackend(mixed_dataset), ChunkedBackend(view)):
            assert isinstance(backend, CountingBackend)

    def test_config_validates_backend(self):
        """The dataset picks the counter; the config has no knob for it."""
        with pytest.raises(TypeError, match="counting_backend"):
            MinerConfig(counting_backend="mask")


class TestBackendUnits:
    """Every counting primitive of :class:`MaskBackend`, and of
    :class:`ChunkedBackend` on 1- and 3-chunk views, against the
    reference expression."""

    @pytest.fixture
    def backends(self, mixed_dataset, tmp_path):
        return [
            MaskBackend(mixed_dataset),
            ChunkedBackend(_view(tmp_path, mixed_dataset, 1)),
            ChunkedBackend(_view(tmp_path, mixed_dataset, 3)),
        ]

    @staticmethod
    def _check(backends, dataset, itemsets):
        for backend in backends:
            batch = backend.group_counts_batch(itemsets)
            for i, itemset in enumerate(itemsets):
                expected = dataset.group_counts(itemset.cover(dataset))
                np.testing.assert_array_equal(
                    backend.group_counts(itemset), expected
                )
                np.testing.assert_array_equal(batch[i], expected)
                np.testing.assert_array_equal(
                    backend.cover(itemset), itemset.cover(dataset)
                )
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
        backend = MaskBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        backend.group_counts(itemset)
        backend.cover_group_counts(backend.cover_of(itemset))
        assert backend.counters().count_calls == 2

    def test_publish_is_delta_based(self, categorical_dataset):
        """Publishing twice must not double-count the first batch."""
        backend = MaskBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        stats = MiningStats()
        backend.group_counts(itemset)
        backend.publish(stats)
        assert stats.count_calls == 1
        backend.group_counts(itemset)
        backend.publish(stats)
        assert stats.count_calls == 2
        assert stats.counting_backend == "mask"

    def test_counters_arithmetic(self):
        a = BackendCounters(10, 4, 6)
        b = BackendCounters(3, 1, 2)
        assert (a - b) == BackendCounters(7, 3, 4)
        assert (a + b) == BackendCounters(13, 5, 8)


class TestLRUCache:
    def test_tiny_cache_evicts_but_stays_correct(
        self, tmp_path, monkeypatch, categorical_dataset
    ):
        """The chunked counts LRU holds ``DEFAULT_COUNTS_CACHE`` entries;
        a one-entry cache evicts on every miss and still counts exactly."""
        monkeypatch.setattr(chunked_counting, "DEFAULT_COUNTS_CACHE", 1)
        small = ChunkedBackend(_view(tmp_path, categorical_dataset, 3))
        itemsets = [
            Itemset(
                [
                    CategoricalItem("tool", tool),
                    CategoricalItem("shift", shift),
                ]
            )
            for tool in ("T1", "T2", "T3")
            for shift in ("day", "night")
        ]
        for itemset in itemsets * 2:
            np.testing.assert_array_equal(
                small.group_counts(itemset),
                categorical_dataset.group_counts(
                    itemset.cover(categorical_dataset)
                ),
            )
        info = small.cache_info()
        assert info["entries"] == info["capacity"] == 1
        assert small.cache_hits == 0


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
    """Categorical-only mines count no covers; here the two counters
    differ instead (contingency tables in memory, per-chunk counts
    through the LRU on a view), and must agree."""
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
    assert chunked.stats.counting_backend == "chunked"


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
    """Both paths answer the identical sequence of count queries, and
    the mine reports the backend's own name."""
    mask_res, bitmap_res = _mine_both(count_covers, mixed_dataset)
    assert mask_res.stats.count_calls == bitmap_res.stats.count_calls
    assert mask_res.stats.sdad_calls > 0
    assert mask_res.stats.counting_backend == "mask"
    assert bitmap_res.stats.counting_backend == "mask"
