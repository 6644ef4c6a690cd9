"""Ablation: bitmap-index counting vs boolean-mask counting.

Related work [29] (SciCSM) argues bitmap indices speed up contrast-set
counting.  This bench quantifies the trade-off on our substrate: per-
itemset group counting via packed bitmaps vs the boolean-mask path, over
the categorical attributes of the manufacturing dataset.
"""

from __future__ import annotations

import time

import pytest

from repro.core.items import CategoricalItem, Itemset
from repro.dataset.bitmap import BitmapIndex
from repro.dataset.manufacturing import manufacturing


@pytest.fixture(scope="module")
def workload():
    dataset = manufacturing(n_population=4000, n_failed=600)
    attributes = dataset.schema.categorical_names[:20]
    index = BitmapIndex(dataset, attributes)
    itemsets = []
    for i, a in enumerate(attributes):
        for b in attributes[i + 1:][:3]:
            attr_a = dataset.attribute(a)
            attr_b = dataset.attribute(b)
            itemsets.append(
                Itemset(
                    [
                        CategoricalItem(a, attr_a.categories[0]),
                        CategoricalItem(b, attr_b.categories[0]),
                    ]
                )
            )
    return dataset, index, itemsets


def _mask_counts(dataset, itemsets):
    return [
        dataset.group_counts(itemset.cover(dataset))
        for itemset in itemsets
    ]


def _bitmap_counts(index, itemsets):
    return [index.group_counts(itemset) for itemset in itemsets]


def test_bitmap_counting_correct_and_timed(benchmark, workload, report):
    dataset, index, itemsets = workload

    bitmap_results = benchmark.pedantic(
        lambda: _bitmap_counts(index, itemsets), rounds=3, iterations=1
    )

    start = time.perf_counter()
    mask_results = _mask_counts(dataset, itemsets)
    mask_time = time.perf_counter() - start
    start = time.perf_counter()
    _bitmap_counts(index, itemsets)
    bitmap_time = time.perf_counter() - start

    for bitmap_row, mask_row in zip(bitmap_results, mask_results):
        assert list(bitmap_row) == list(mask_row)

    raw_bytes = sum(
        dataset.column(a).nbytes
        for a in dataset.schema.categorical_names[:20]
    )
    report(
        "ablation_bitmap",
        "Bitmap vs mask counting "
        f"({len(itemsets)} itemsets, {dataset.n_rows} rows):\n"
        f"  mask path:   {mask_time * 1e3:8.1f} ms\n"
        f"  bitmap path: {bitmap_time * 1e3:8.1f} ms\n"
        f"  index size:  {index.memory_bytes()} bytes vs "
        f"{raw_bytes} bytes of raw code columns",
    )

    # the index must be far smaller than the raw columns (bit vs int64)
    assert index.memory_bytes() < raw_bytes


def test_end_to_end_backend_speedup(benchmark, report):
    """Whole-miner ablation: MinerConfig(counting_backend=...) on Adult.

    Mines the categorical attributes of the Adult stand-in with the mask
    and bitmap backends and checks both give identical patterns.  The
    speed ratio is reported without a gate: the mask backend counts each
    categorical combination from one contingency table (DESIGN.md §12),
    which closes most of the gap to the bitmap's packed popcounts and
    LRU context cache by design.
    """
    from repro.core.config import MinerConfig
    from repro.core.miner import ContrastSetMiner
    from repro.dataset.uci import adult

    dataset = adult(scale=5.0)
    categorical = [
        n for n in dataset.schema.names
        if dataset.attribute(n).is_categorical
    ]

    def run(backend):
        config = MinerConfig(max_tree_depth=3, counting_backend=backend)
        return ContrastSetMiner(config).mine(
            dataset, attributes=categorical
        )

    benchmark.pedantic(lambda: run("bitmap"), rounds=3, iterations=1)

    def timed(backend):
        start = time.perf_counter()
        result = run(backend)
        return time.perf_counter() - start, result

    mask_time, mask_result = timed("mask")
    bitmap_time, bitmap_result = timed("bitmap")
    assert [(p.itemset, p.counts) for p in mask_result.patterns] == [
        (p.itemset, p.counts) for p in bitmap_result.patterns
    ]
    stats = bitmap_result.stats
    report(
        "ablation_bitmap_end_to_end",
        "End-to-end mining, Adult categorical attributes "
        f"({dataset.n_rows} rows, depth 3):\n"
        f"  mask backend:   {mask_time * 1e3:8.1f} ms\n"
        f"  bitmap backend: {bitmap_time * 1e3:8.1f} ms "
        f"({mask_time / bitmap_time:.2f}x)\n"
        f"  bitmap counters: {stats.count_calls} count calls, "
        f"cache {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"(hit rate {stats.cache_hit_rate:.0%})",
    )
