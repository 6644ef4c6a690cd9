"""Parity and behaviour tests for the pluggable counting backends.

The bitmap backend must be byte-identical to the mask backend: same
pattern sets, same contingency counts, same interest values — on every
dataset shape the miner supports, including missing values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Attribute,
    CategoricalItem,
    ContrastSetMiner,
    Dataset,
    Interval,
    Itemset,
    MinerConfig,
    NumericItem,
    Schema,
)
from repro.counting import (
    BackendCounters,
    BitmapBackend,
    CountingBackend,
    MaskBackend,
    available_backends,
    make_backend,
)
from repro.core.instrumentation import MiningStats
from repro.dataset.synthetic import (
    simulated_dataset_1,
    simulated_dataset_2,
    simulated_dataset_3,
    simulated_dataset_4,
)
from repro.dataset.table import DatasetError
from repro.dataset.uci import adult


def _mine_both(dataset, config=None, **mine_kwargs):
    """Mine with both backends, returning the two MiningResults."""
    config = config or MinerConfig(max_tree_depth=2, k=50)
    results = {}
    for name in ("mask", "bitmap"):
        cfg = config.with_(counting_backend=name)
        results[name] = ContrastSetMiner(cfg).mine(dataset, **mine_kwargs)
    return results["mask"], results["bitmap"]


def _fingerprint(result):
    return [(p.itemset, p.counts) for p in result.patterns]


class TestRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {"mask", "bitmap"}

    def test_make_backend(self, mixed_dataset):
        assert isinstance(make_backend("mask", mixed_dataset), MaskBackend)
        assert isinstance(
            make_backend("bitmap", mixed_dataset), BitmapBackend
        )

    def test_backends_satisfy_protocol(self, mixed_dataset):
        for name in available_backends():
            assert isinstance(
                make_backend(name, mixed_dataset), CountingBackend
            )

    def test_unknown_backend_rejected(self, mixed_dataset):
        with pytest.raises(ValueError, match="unknown counting backend"):
            make_backend("roaring", mixed_dataset)

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="counting_backend"):
            MinerConfig(counting_backend="roaring")


class TestBackendUnits:
    """Direct unit parity of the two backends' counting primitives."""

    @pytest.fixture
    def backends(self, mixed_dataset):
        return MaskBackend(mixed_dataset), BitmapBackend(mixed_dataset)

    def test_empty_itemset_counts_everything(self, backends):
        mask_be, bitmap_be = backends
        empty = Itemset()
        expected = mask_be.dataset.group_sizes
        assert tuple(mask_be.group_counts(empty)) == expected
        assert tuple(bitmap_be.group_counts(empty)) == expected

    def test_categorical_itemset_parity(self, backends):
        mask_be, bitmap_be = backends
        for value in ("red", "green", "blue"):
            itemset = Itemset([CategoricalItem("color", value)])
            np.testing.assert_array_equal(
                mask_be.group_counts(itemset),
                bitmap_be.group_counts(itemset),
            )
            np.testing.assert_array_equal(
                mask_be.cover(itemset), bitmap_be.cover(itemset)
            )

    def test_mixed_itemset_parity(self, backends):
        mask_be, bitmap_be = backends
        itemset = Itemset(
            [
                CategoricalItem("color", "red"),
                NumericItem("x", Interval(0.0, 0.5, True, True)),
            ]
        )
        np.testing.assert_array_equal(
            mask_be.group_counts(itemset), bitmap_be.group_counts(itemset)
        )
        np.testing.assert_array_equal(
            mask_be.cover(itemset), bitmap_be.cover(itemset)
        )

    def test_mask_group_counts_parity(self, backends, rng):
        mask_be, bitmap_be = backends
        mask = rng.random(mask_be.dataset.n_rows) < 0.3
        np.testing.assert_array_equal(
            mask_be.mask_group_counts(mask),
            bitmap_be.mask_group_counts(mask),
        )

    def test_bitmap_rejects_non_boolean_mask(self, backends):
        _, bitmap_be = backends
        with pytest.raises(DatasetError, match="boolean"):
            bitmap_be.mask_group_counts(
                np.ones(bitmap_be.dataset.n_rows, dtype=np.int64)
            )


def test_bitmap_batch_stacks_one_slab_at_a_time(monkeypatch):
    """A batch spanning several slabs, with numeric itemsets taking the
    fallback path between them, counts every row exactly and never
    stacks more than one slab of packed rows."""
    from repro.counting import bitmap as bitmap_module

    dataset = adult(scale=0.05)
    backend = BitmapBackend(dataset)
    n_words = (dataset.n_rows + 7) // 8
    slab = 3
    monkeypatch.setattr(
        bitmap_module,
        "_BATCH_SLAB_BYTES",
        slab * dataset.n_groups * n_words,
    )
    stacked: list[int] = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def stack(self, arrays, *args, **kwargs):
            stacked.append(len(arrays))
            return np.stack(arrays, *args, **kwargs)

    monkeypatch.setattr(bitmap_module, "np", RecordingNumpy())
    sex, race = dataset.attribute("sex"), dataset.attribute("race")
    age = NumericItem("age", Interval(30.0, 50.0, True, False))
    itemsets = [Itemset()]
    for s in sex.categories:
        itemsets.append(Itemset([CategoricalItem("sex", s)]))
        for r in race.categories:
            pair = Itemset(
                [CategoricalItem("sex", s), CategoricalItem("race", r)]
            )
            itemsets += [pair, pair.with_item(age)]
    n_categorical = sum(
        all(isinstance(item, CategoricalItem) for item in itemset)
        for itemset in itemsets
    )
    assert n_categorical > 2 * slab

    batch = backend.group_counts_batch(itemsets)
    assert backend.batch_fallbacks == len(itemsets) - n_categorical
    assert max(stacked) <= slab
    assert sum(stacked) == n_categorical
    for i, itemset in enumerate(itemsets):
        np.testing.assert_array_equal(
            batch[i], backend.group_counts(itemset)
        )


class TestCounters:
    def test_count_calls_recorded(self, categorical_dataset):
        backend = BitmapBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        backend.group_counts(itemset)
        backend.group_counts(itemset)
        assert backend.counters().count_calls == 2

    def test_publish_is_delta_based(self, categorical_dataset):
        """Publishing twice must not double-count the first batch."""
        backend = BitmapBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        stats = MiningStats()
        backend.group_counts(itemset)
        backend.publish(stats)
        assert stats.count_calls == 1
        backend.group_counts(itemset)
        backend.publish(stats)
        assert stats.count_calls == 2
        assert stats.counting_backend == "bitmap"

    def test_counters_arithmetic(self):
        a = BackendCounters(10, 4, 6)
        b = BackendCounters(3, 1, 2)
        assert (a - b) == BackendCounters(7, 3, 4)
        assert (a + b) == BackendCounters(13, 5, 8)


class TestLRUCache:
    def test_cache_hits_on_shared_prefix(self, categorical_dataset):
        backend = BitmapBackend(categorical_dataset)
        base = Itemset(
            [
                CategoricalItem("tool", "T1"),
                CategoricalItem("shift", "day"),
            ]
        )
        backend.group_counts(base)
        assert backend.counters().cache_misses == 1
        backend.group_counts(base)
        assert backend.counters().cache_hits == 1

    def test_tiny_cache_evicts_but_stays_correct(self, categorical_dataset):
        small = BitmapBackend(categorical_dataset, cache_size=1)
        reference = MaskBackend(categorical_dataset)
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
                reference.group_counts(itemset),
            )
        assert small.cache_info()["entries"] <= 1


@pytest.mark.parametrize(
    "factory",
    [
        simulated_dataset_1,
        simulated_dataset_2,
        simulated_dataset_3,
        simulated_dataset_4,
    ],
)
def test_end_to_end_parity_simulated(factory):
    dataset = factory(n=800)
    mask_res, bitmap_res = _mine_both(dataset)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)
    assert mask_res.interests == bitmap_res.interests


def test_end_to_end_parity_adult_sample():
    dataset = adult(scale=0.05)
    mask_res, bitmap_res = _mine_both(
        dataset, MinerConfig(max_tree_depth=2, k=100)
    )
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)


def test_end_to_end_parity_categorical_only_adult():
    dataset = adult(scale=0.05)
    categorical = [
        n for n in dataset.schema.names
        if dataset.attribute(n).is_categorical
    ]
    mask_res, bitmap_res = _mine_both(
        dataset,
        MinerConfig(max_tree_depth=3, k=100),
        attributes=categorical,
    )
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)
    # depth 3 over shared depth-2 prefixes must exercise the LRU cache
    assert bitmap_res.stats.cache_hits > 0


def test_end_to_end_parity_with_missing_values(rng):
    """NaN continuous cells cover no interval on either backend."""
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
    mask_res, bitmap_res = _mine_both(dataset)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)
    assert mask_res.patterns  # the planted contrast must survive


def test_parity_survives_group_selection():
    dataset = adult(scale=0.05)
    labels = dataset.group_labels[:2]
    mask_res, bitmap_res = _mine_both(dataset, groups=labels)
    assert _fingerprint(mask_res) == _fingerprint(bitmap_res)


def test_count_call_totals_agree(categorical_dataset):
    """Both backends answer the identical sequence of count queries."""
    mask_res, bitmap_res = _mine_both(categorical_dataset)
    assert mask_res.stats.count_calls == bitmap_res.stats.count_calls
    assert mask_res.stats.counting_backend == "mask"
    assert bitmap_res.stats.counting_backend == "bitmap"
