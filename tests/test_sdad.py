"""Tests for repro.core.sdad (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import MinerConfig
from repro.core.items import CategoricalItem, Interval, Itemset, NumericItem
from repro.core.instrumentation import MiningStats
from repro.core.sdad import sdad_cs
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset


def _one_attr_dataset(rng, n=800, boundary=0.5):
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0,
        rng.uniform(0, boundary, n),
        rng.uniform(boundary, 1.0, n),
    )
    schema = Schema.of([Attribute.continuous("x")])
    return Dataset(schema, {"x": x}, group, ["A", "B"])


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSingleAttribute:
    def test_finds_planted_boundary(self, rng):
        ds = _one_attr_dataset(rng)
        result = sdad_cs(ds, Itemset(), ["x"])
        assert result.patterns
        # the split should land near the planted boundary 0.5
        boundaries = []
        for pattern in result.patterns:
            item = pattern.itemset.item_for("x")
            boundaries.extend([item.interval.lo, item.interval.hi])
        assert any(abs(b - 0.5) < 0.08 for b in boundaries)

    def test_patterns_are_contrasts(self, rng):
        ds = _one_attr_dataset(rng)
        config = MinerConfig()
        result = sdad_cs(ds, Itemset(), ["x"], config)
        for pattern in result.patterns:
            assert pattern.support_difference > config.delta
            # alpha is Bonferroni-adjusted, so just check rough
            # significance
            assert pattern.chi_square.p_value < config.alpha

    def test_no_contrast_in_noise(self, rng):
        n = 600
        group = rng.integers(0, 2, n)
        x = rng.uniform(0, 1, n)  # independent of group
        schema = Schema.of([Attribute.continuous("x")])
        ds = Dataset(schema, {"x": x}, group, ["A", "B"])
        result = sdad_cs(ds, Itemset(), ["x"])
        assert result.patterns == []

    def test_pure_regions_reported(self, rng):
        ds = _one_attr_dataset(rng)
        result = sdad_cs(ds, Itemset(), ["x"])
        assert result.pure_itemsets  # the two sides are pure

    def test_constant_attribute_yields_nothing(self, rng):
        n = 100
        schema = Schema.of([Attribute.continuous("x")])
        ds = Dataset(
            schema,
            {"x": np.ones(n)},
            rng.integers(0, 2, n),
            ["A", "B"],
        )
        assert sdad_cs(ds, Itemset(), ["x"]).patterns == []

    def test_empty_context_cover(self, rng):
        ds = _one_attr_dataset(rng)
        # a categorical context that covers nothing
        schema = Schema.of(
            [
                Attribute.continuous("x"),
                Attribute.categorical("c", ["only", "never"]),
            ]
        )
        ds2 = Dataset(
            schema,
            {
                "x": ds.column("x"),
                "c": np.zeros(ds.n_rows, dtype=np.int64),
            },
            ds.group_codes.copy(),
            ["A", "B"],
        )
        context = Itemset([CategoricalItem("c", "never")])
        assert sdad_cs(ds2, context, ["x"]).patterns == []


class TestValidation:
    def test_needs_continuous(self, rng):
        ds = _one_attr_dataset(rng)
        with pytest.raises(ValueError):
            sdad_cs(ds, Itemset(), [])

    def test_rejects_categorical_attribute(self, rng):
        schema = Schema.of([Attribute.categorical("c", ["a", "b"])])
        ds = Dataset(
            schema,
            {"c": rng.integers(0, 2, 50)},
            rng.integers(0, 2, 50),
            ["A", "B"],
        )
        with pytest.raises(ValueError, match="not continuous"):
            sdad_cs(ds, Itemset(), ["c"])


class TestRecursionAndMerge:
    def test_merge_recovers_wide_region(self, rng):
        """A group confined to [0.25, 0.75] forces splits at 0.5 then the
        two inner halves must merge back into one region."""
        n = 2000
        group = (rng.uniform(0, 1, n) < 0.3).astype(int)
        x = np.where(
            group == 1,
            rng.uniform(0.25, 0.75, n),
            rng.uniform(0, 1.0, n),
        )
        schema = Schema.of([Attribute.continuous("x")])
        ds = Dataset(schema, {"x": x}, group, ["A", "B"])
        result = sdad_cs(ds, Itemset(), ["x"])
        assert result.patterns
        widths = []
        for pattern in result.patterns:
            item = pattern.itemset.item_for("x")
            if item is not None:
                widths.append(item.interval.hi - item.interval.lo)
        # at least one region should approximate the planted 0.5-wide band
        assert any(0.3 < w < 0.7 for w in widths)

    def test_merge_disabled_keeps_fine_partitions(self, rng):
        ds = _one_attr_dataset(rng, n=1500)
        merged = sdad_cs(ds, Itemset(), ["x"], MinerConfig(merge=True))
        unmerged = sdad_cs(ds, Itemset(), ["x"], MinerConfig(merge=False))
        assert len(unmerged.patterns) >= len(merged.patterns)

    def test_full_range_items_stripped(self, rng):
        """An attribute whose interval merges back to the full range must
        not appear in the reported itemsets."""
        n = 1200
        group = rng.integers(0, 2, n)
        x = np.where(
            group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1, n)
        )
        noise = rng.uniform(0, 1, n)
        schema = Schema.of(
            [Attribute.continuous("x"), Attribute.continuous("noise")]
        )
        ds = Dataset(
            schema, {"x": x, "noise": noise}, group, ["A", "B"]
        )
        result = sdad_cs(ds, Itemset(), ["x", "noise"])
        for pattern in result.patterns:
            item = pattern.itemset.item_for("noise")
            if item is not None:
                full = Interval(
                    float(noise.min()), float(noise.max()), True, True
                )
                assert item.interval != full

    def test_multivariate_xor_found_jointly_not_marginally(self, rng):
        """XOR-style data: no univariate contrast, clear joint contrast."""
        n = 2000
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        group = ((a < 0.5) ^ (b < 0.5)).astype(int)
        schema = Schema.of(
            [Attribute.continuous("a"), Attribute.continuous("b")]
        )
        ds = Dataset(schema, {"a": a, "b": b}, group, ["G0", "G1"])
        marginal_a = sdad_cs(ds, Itemset(), ["a"])
        marginal_b = sdad_cs(ds, Itemset(), ["b"])
        joint = sdad_cs(ds, Itemset(), ["a", "b"])
        assert marginal_a.patterns == []
        assert marginal_b.patterns == []
        assert len(joint.patterns) >= 2
        for pattern in joint.patterns:
            assert pattern.purity_ratio > 0.8


class TestCategoricalContext:
    def test_context_changes_bins(self, rng):
        """Adaptive binning: the boundary for x inside context c=1 differs
        from the global boundary (local multivariate interaction)."""
        n = 3000
        c = rng.integers(0, 2, n)
        group = rng.integers(0, 2, n)
        # inside c=0 the boundary is 0.3; inside c=1 it is 0.7
        boundary = np.where(c == 0, 0.3, 0.7)
        u = rng.uniform(0, 1, n)
        x = np.where(group == 0, u * boundary, boundary + u * (1 - boundary))
        schema = Schema.of(
            [
                Attribute.continuous("x"),
                Attribute.categorical("c", ["zero", "one"]),
            ]
        )
        ds = Dataset(schema, {"x": x, "c": c}, group, ["A", "B"])

        ctx0 = Itemset([CategoricalItem("c", "zero")])
        ctx1 = Itemset([CategoricalItem("c", "one")])
        res0 = sdad_cs(ds, ctx0, ["x"])
        res1 = sdad_cs(ds, ctx1, ["x"])

        def boundaries(result):
            out = []
            for p in result.patterns:
                item = p.itemset.item_for("x")
                out.extend([item.interval.lo, item.interval.hi])
            return out

        assert any(abs(b - 0.3) < 0.08 for b in boundaries(res0))
        assert any(abs(b - 0.7) < 0.08 for b in boundaries(res1))

    def test_context_items_present_in_patterns(self, rng):
        ds = _one_attr_dataset(rng)
        schema = Schema.of(
            [
                Attribute.continuous("x"),
                Attribute.categorical("c", ["u", "v"]),
            ]
        )
        ds2 = Dataset(
            schema,
            {
                "x": ds.column("x"),
                "c": rng.integers(0, 2, ds.n_rows),
            },
            ds.group_codes.copy(),
            ["A", "B"],
        )
        context = Itemset([CategoricalItem("c", "u")])
        result = sdad_cs(ds2, context, ["x"])
        for pattern in result.patterns:
            assert pattern.itemset.item_for("c") == CategoricalItem("c", "u")


class TestInstrumentation:
    def test_stats_count_partitions(self, rng):
        ds = _one_attr_dataset(rng)
        stats = MiningStats()
        sdad_cs(ds, Itemset(), ["x"], stats=stats)
        assert stats.partitions_evaluated > 0
        assert stats.sdad_calls == 1

    def test_no_pruning_evaluates_more(self, rng):
        ds = _one_attr_dataset(rng, n=1500)
        pruned_stats = MiningStats()
        np_stats = MiningStats()
        config = MinerConfig()
        sdad_cs(ds, Itemset(), ["x"], config, stats=pruned_stats)
        sdad_cs(
            ds, Itemset(), ["x"], config.no_pruning(), stats=np_stats
        )
        assert (
            np_stats.partitions_evaluated
            >= pruned_stats.partitions_evaluated
        )


class TestKnownPure:
    def test_known_pure_region_prunes_boxes(self, rng):
        ds = _one_attr_dataset(rng)
        # first run discovers the pure sides
        first = sdad_cs(ds, Itemset(), ["x"])
        assert first.pure_itemsets
        schema = Schema.of(
            [Attribute.continuous("x"), Attribute.continuous("z")]
        )
        ds2 = Dataset(
            schema,
            {
                "x": ds.column("x"),
                "z": rng.uniform(0, 1, ds.n_rows),
            },
            ds.group_codes.copy(),
            ["A", "B"],
        )
        with_pure = MiningStats()
        without_pure = MiningStats()
        sdad_cs(
            ds2,
            Itemset(),
            ["x", "z"],
            stats=with_pure,
            known_pure=first.pure_itemsets,
        )
        sdad_cs(ds2, Itemset(), ["x", "z"], stats=without_pure)
        assert (
            with_pure.partitions_evaluated
            <= without_pure.partitions_evaluated
        )


class TestSiblingSweep:
    """A frame's siblings are split attribute by attribute, so a chunked
    view gathers each split attribute once per sweep, and each sibling's
    row offsets serve all of its attributes."""

    @staticmethod
    def _run(view):
        from repro.core.pipeline import PruningPipeline
        from repro.core.sdad import _SDADRun
        from repro.core.stats import AlphaLadder

        config = MinerConfig()
        return _SDADRun(
            view,
            Itemset(),
            ("a", "b", "c"),
            config,
            config.delta,
            AlphaLadder(config.alpha),
            PruningPipeline(config),
        )

    def test_sweep_gathers_each_attribute_once(
        self, rng, tmp_path, monkeypatch
    ):
        from repro.core.partition import (
            find_combinations,
            full_space,
            partition_median,
        )
        from repro.dataset.chunked import ChunkedDataset, ChunkedView

        n = 600
        names = ("a", "b", "c")
        schema = Schema.of([Attribute.continuous(name) for name in names])
        dense = Dataset(
            schema,
            {name: rng.uniform(0, 1, n) for name in names},
            rng.integers(0, 2, n),
            ["A", "B"],
        )
        store = ChunkedDataset.pack(tmp_path / "s", dense, chunk_size=200)
        first = self._run(store.view())
        root = full_space(
            first.dataset, names, first.backend.full_cover(), first.backend
        )
        siblings = first._split_spaces([root])[0][:3]
        assert all(space.total_count for space in siblings)

        # Every column() miss fills from iter_chunk_columns, and below
        # the gather budget nothing else calls it.
        gathered: list[str] = []
        real = ChunkedView.iter_chunk_columns

        def gather(self, name):
            gathered.append(name)
            return real(self, name)

        monkeypatch.setattr(ChunkedView, "iter_chunk_columns", gather)
        swept = self._run(store.view())._split_spaces(siblings)
        assert gathered == ["a", "b", "c"]
        gathered.clear()
        one_by_one = self._run(store.view())
        per_space = [one_by_one._split_spaces([s])[0] for s in siblings]
        assert gathered == ["a", "b", "c"] * 3

        # Children from one partition_median call per (space,
        # attribute), each gathering at offsets of its own.
        alone = self._run(store.view())
        per_split = []
        for space in siblings:
            found = {}
            for name in names:
                halves = partition_median(alone.dataset, space, name)
                if halves is not None:
                    found[name] = halves
            per_split.append(
                find_combinations(space, found, alone.backend)
            )

        assert [len(children) for children in swept] == [8, 8, 8]
        for expected in (per_space, per_split):
            for got, reference_children in zip(swept, expected):
                assert len(got) == len(reference_children)
                for child, reference in zip(got, reference_children):
                    assert child.intervals == reference.intervals
                    assert (
                        child.cover.n_chunks
                        == reference.cover.n_chunks
                        == 3
                    )
                    for i in range(3):
                        assert (
                            child.cover.segment(i).tobytes()
                            == reference.cover.segment(i).tobytes()
                        )
                    assert np.array_equal(child.counts, reference.counts)


class TestRootSplitMemo:
    """A search's SDAD-CS runs share one evaluator, which holds each
    root's split points, so each (context, attribute) is split once."""

    @staticmethod
    def _dataset(rng):
        n = 900
        group = rng.integers(0, 2, n)
        shape = np.where(
            group == 1,
            rng.choice(3, n, p=[0.6, 0.3, 0.1]),
            rng.choice(3, n, p=[0.2, 0.3, 0.5]),
        )
        schema = Schema.of(
            [Attribute.continuous(name) for name in ("a", "b", "c")]
            + [Attribute.categorical("shape", ["round", "flat", "long"])]
        )
        columns = {
            "a": rng.uniform(0, 1, n) + 0.4 * group,
            "b": rng.normal(0, 1, n) - 0.3 * group,
            "c": rng.uniform(0, 1, n),
            "shape": shape,
        }
        return Dataset(schema, columns, group, ["A", "B"])

    @staticmethod
    def _outcome(result):
        from dataclasses import asdict

        from repro.core.serialize import patterns_to_dicts

        counters = asdict(result.stats)
        del counters["elapsed_seconds"], counters["prune_rule_seconds"]
        return patterns_to_dicts(result.patterns), counters

    def test_each_context_and_attribute_is_split_once(
        self, rng, monkeypatch
    ):
        from collections import Counter
        from types import SimpleNamespace

        from repro.core import partition, sdad, search
        from repro.core.miner import ContrastSetMiner

        ds = self._dataset(rng)
        config = MinerConfig(max_tree_depth=3)
        requested: Counter = Counter()
        computed: Counter = Counter()
        state = SimpleNamespace(context=None, root=None, key=None)

        real_run = sdad._SDADRun.run
        real_full_space = sdad.full_space
        real_split = sdad.partition_median
        real_point = partition._dense_split_point

        def run(self):
            state.context = self.categorical
            return real_run(self)

        def full_space(*args, **kwargs):
            state.root = real_full_space(*args, **kwargs)
            return state.root

        def split(dataset, space, attribute, *args, **kwargs):
            if space is state.root:
                state.key = (state.context, attribute)
                requested[state.key] += 1
            try:
                return real_split(dataset, space, attribute, *args, **kwargs)
            finally:
                state.key = None

        def point(values, statistic):
            if state.key is not None:
                computed[state.key] += 1
            return real_point(values, statistic)

        monkeypatch.setattr(sdad._SDADRun, "run", run)
        monkeypatch.setattr(sdad, "full_space", full_space)
        monkeypatch.setattr(sdad, "partition_median", split)
        monkeypatch.setattr(partition, "_dense_split_point", point)
        shared = ContrastSetMiner(config).mine(ds)

        assert computed == Counter(dict.fromkeys(requested, 1))
        contexts = {context for context, _ in requested}
        assert len(contexts) > 1
        assert sum(requested.values()) > len(requested)

        # The same search with a fresh evaluator, so a fresh memo, per
        # run recomputes every request and finds the same outcome.
        real_sdad_cs = search.sdad_cs

        def fresh_evaluator(*args, evaluator=None, **kwargs):
            return real_sdad_cs(*args, **kwargs)

        monkeypatch.setattr(search, "sdad_cs", fresh_evaluator)
        requested.clear()
        computed.clear()
        fresh = ContrastSetMiner(config).mine(ds)
        assert computed == requested
        assert self._outcome(fresh) == self._outcome(shared)
        assert shared.patterns
