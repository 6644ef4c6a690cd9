"""Tests for the shared pruning pipeline (EvaluationContext + PruneRule +
PruningPipeline), the one candidate lifecycle every miner routes through."""

import numpy as np
import pytest

from repro import Attribute, Dataset, MinerConfig, Schema
from repro.core.batch import BatchEvaluator
from repro.core.contrast import ContrastPattern
from repro.core.instrumentation import MiningStats
from repro.core.items import CategoricalItem, Itemset
from repro.core.pipeline import (
    EvaluationBatch,
    EvaluationContext,
    OptimisticChiSquareRule,
    PruningPipeline,
    default_rules,
    format_prune_report,
)
from repro.core.pruning import PruneReason, PruneTable
from repro.counting import MaskBackend


def make_pattern(counts, group_sizes=(100, 100), attrs=("a",)):
    itemset = Itemset([CategoricalItem(a, "x") for a in attrs])
    return ContrastPattern(
        itemset=itemset,
        counts=tuple(counts),
        group_sizes=tuple(group_sizes),
        group_labels=tuple(f"g{i}" for i in range(len(group_sizes))),
        level=len(attrs),
    )


def make_ctx(pattern=None, config=None, alpha=0.05, **kwargs):
    config = config or MinerConfig()
    itemset = kwargs.pop(
        "itemset", pattern.itemset if pattern is not None else Itemset()
    )
    return EvaluationContext(
        key=itemset,
        config=config,
        alpha=alpha,
        itemset=itemset,
        pattern=pattern,
        **kwargs,
    )


class TestDefaultRules:
    def test_canonical_order_cheap_rules_first(self):
        names = [rule.name for rule in default_rules()]
        assert names == [
            "empty",
            "pure_space",
            "min_deviation",
            "expected_count",
            "optimistic",
            "redundant",
        ]

    def test_config_flags_toggle_rules(self):
        """SDAD-CS NP maps to rule toggles: no_pruning() drops the
        optimistic, redundancy, and pure-space rules from the chain."""
        full = PruningPipeline(MinerConfig())
        np_mode = PruningPipeline(MinerConfig().no_pruning())
        assert [r.name for r in full.rules] == [
            "empty",
            "pure_space",
            "min_deviation",
            "expected_count",
            "optimistic",
            "redundant",
        ]
        assert [r.name for r in np_mode.rules] == [
            "empty",
            "min_deviation",
            "expected_count",
        ]

    def test_single_flag_toggle(self):
        pipeline = PruningPipeline(
            MinerConfig(prune_min_deviation=False)
        )
        assert "min_deviation" not in [r.name for r in pipeline.rules]


class TestEvaluate:
    def test_prune_records_reason_table_and_stats(self):
        pipeline = PruningPipeline(MinerConfig(delta=0.1))
        pattern = make_pattern((1, 1))  # supports 0.01 -> min deviation
        decision = pipeline.evaluate(make_ctx(pattern))
        assert decision.pruned
        assert decision.reason is PruneReason.MIN_DEVIATION
        assert (
            pipeline.prune_table.reason_for(pattern.itemset)
            is PruneReason.MIN_DEVIATION
        )
        assert pipeline.stats.spaces_pruned == 1
        assert pipeline.rule_stats["min_deviation"].hits == 1
        # rules after the hit never ran
        assert pipeline.rule_stats["expected_count"].checks == 0

    def test_empty_rule_fires_first(self):
        pipeline = PruningPipeline(MinerConfig())
        decision = pipeline.evaluate(make_ctx(make_pattern((0, 0))))
        assert decision.reason is PruneReason.EMPTY

    def test_survivor_keeps(self):
        pipeline = PruningPipeline(MinerConfig(delta=0.1))
        pattern = make_pattern((90, 10))
        decision = pipeline.evaluate(make_ctx(pattern))
        assert not decision.pruned
        assert len(pipeline.prune_table) == 0
        checks = {
            name: record.checks
            for name, record in pipeline.rule_stats.items()
        }
        assert checks["empty"] == 1
        assert checks["redundant"] == 1

    def test_redundancy_against_subset(self):
        pipeline = PruningPipeline(MinerConfig())
        pattern = make_pattern((90, 10), attrs=("a", "b"))
        subset = make_pattern((90, 10), attrs=("a",))
        ctx = make_ctx(pattern, subset_patterns=(subset,))
        decision = pipeline.evaluate(ctx)
        assert decision.reason is PruneReason.REDUNDANT

    def test_pure_space_rule_uses_known_pure(self):
        """The pattern-free pass cuts a candidate inside a known pure
        region, and runs no rule that needs counts."""
        pipeline = PruningPipeline(MinerConfig())
        pure = Itemset([CategoricalItem("a", "x")])
        candidate = Itemset(
            [CategoricalItem("a", "x"), CategoricalItem("b", "y")]
        )
        batch = EvaluationBatch(
            keys=[candidate],
            config=pipeline.config,
            alpha=0.05,
            known_pure=(pure,),
            context_factory=lambda i: make_ctx(
                make_pattern((90, 10)),
                itemset=candidate,
                known_pure=(pure,),
            ),
        )
        keep = pipeline.evaluate_batch(batch, pattern_free_only=True)
        assert not keep[0]
        assert (
            pipeline.prune_table.reason_for(candidate)
            is PruneReason.PURE_SPACE
        )
        assert pipeline.rule_stats["pure_space"].checks == 1
        assert pipeline.rule_stats["empty"].checks == 0

    def test_optimistic_skipped_for_space_phase(self):
        """Numeric spaces are gated by Eq. 6-11 in SDAD-CS, not by the
        categorical chi-square bound."""
        pipeline = PruningPipeline(MinerConfig())
        pattern = make_pattern((30, 30))  # bound 35.3 < critical(1e-12)
        itemset_ctx = make_ctx(pattern, alpha=1e-12)
        assert (
            pipeline.evaluate(itemset_ctx).reason
            is PruneReason.OPTIMISTIC_ESTIMATE
        )
        space_ctx = make_ctx(pattern, alpha=1e-12, phase="space")
        assert pipeline.evaluate(space_ctx).reason is None

    def test_seen_counts_table_hit(self):
        pipeline = PruningPipeline(MinerConfig())
        key = Itemset([CategoricalItem("a", "x")])
        assert not pipeline.seen(key)
        pipeline.prune_table.add(key, PruneReason.EMPTY)
        assert pipeline.seen(key)
        assert pipeline.stats.spaces_pruned == 1


class TestLaziness:
    def test_pattern_factory_not_called_unless_needed(self):
        calls = []

        def factory():
            calls.append(1)
            return make_pattern((1, 1))

        pipeline = PruningPipeline(MinerConfig())
        ctx = EvaluationContext(
            key="k",
            config=MinerConfig(),
            alpha=0.05,
            phase="space",
            counts=(1, 1),
            group_sizes=(100, 100),
            total_count=2,
            itemset_factory=lambda: Itemset(),
            pattern_factory=factory,
            subset_patterns=(),
        )
        decision = pipeline.evaluate(ctx)
        # pruned by min deviation on raw counts: the pattern (and its
        # itemset stripping) was never materialised
        assert decision.reason is PruneReason.MIN_DEVIATION
        assert calls == []

    def test_pattern_factory_called_once(self):
        calls = []
        pattern = make_pattern((90, 10))

        def factory():
            calls.append(1)
            return pattern

        ctx = EvaluationContext(
            key="k",
            config=MinerConfig(),
            alpha=0.05,
            pattern_factory=factory,
        )
        assert ctx.pattern is pattern
        assert ctx.pattern is pattern
        assert calls == [1]


class TestPublish:
    def test_publish_folds_rule_stats_and_reasons(self):
        pipeline = PruningPipeline(MinerConfig())
        pipeline.evaluate(make_ctx(make_pattern((1, 1))))
        stats = pipeline.stats
        pipeline.publish()
        assert stats.prune_rule_hits["min_deviation"] == 1
        assert stats.prune_reasons == {"MIN_DEVIATION": 1}
        assert stats.prune_table_checks == 0

    def test_publish_is_delta_based(self):
        """A second publish adds nothing; work between publishes adds
        only the delta (the parallel workers' per-task semantics)."""
        pipeline = PruningPipeline(MinerConfig())
        pipeline.evaluate(make_ctx(make_pattern((1, 1), attrs=("a",))))
        first = MiningStats()
        pipeline.publish(first)
        again = MiningStats()
        pipeline.publish(again)
        assert again.prune_rule_hits.get("min_deviation", 0) == 0
        assert again.prune_reasons == {}
        pipeline.evaluate(make_ctx(make_pattern((1, 1), attrs=("b",))))
        second = MiningStats()
        pipeline.publish(second)
        assert second.prune_rule_hits["min_deviation"] == 1
        assert second.prune_reasons == {"MIN_DEVIATION": 1}

    def test_check_gate_counts_without_recording(self):
        pipeline = PruningPipeline(MinerConfig())
        gate = OptimisticChiSquareRule()
        ctx = make_ctx(make_pattern((6, 6)), alpha=1e-12)
        assert pipeline.check_gate(gate, ctx)
        assert len(pipeline.prune_table) == 0
        assert pipeline.stats.spaces_pruned == 0
        assert pipeline.rule_stats["optimistic(gate)"].hits == 1


class TestPruneTableMerge:
    def test_merge_from_unions_and_sums(self):
        a, b = PruneTable(), PruneTable()
        a.add("x", PruneReason.EMPTY)
        a.contains("x")
        b.add("y", PruneReason.REDUNDANT)
        b.contains("z")
        a.merge_from(b)
        assert len(a) == 2
        assert a.reason_for("y") is PruneReason.REDUNDANT
        assert a.checks == 2
        assert a.hits == 1


class TestProcessCategoricalCandidate:
    """The categorical candidate lifecycle of
    :meth:`BatchEvaluator.process_categorical_combo`: lookup-table probe,
    pure-space cut before counting, support counting, then the rule
    chain on the counted candidates."""

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(7)
        n = 400
        group = rng.integers(0, 2, n)
        # value "u" tracks group 0, "v" tracks group 1
        c = np.where(
            rng.uniform(size=n) < 0.9, group, 1 - group
        )
        d = rng.integers(0, 2, n)
        schema = Schema.of(
            [
                Attribute.categorical("c", ["u", "v"]),
                Attribute.categorical("d", ["p", "q"]),
            ]
        )
        return Dataset(
            schema, {"c": c, "d": d}, group, ["g0", "g1"]
        )

    @staticmethod
    def run_combo(dataset, pipeline, candidates, level, known_pure=()):
        """Outcomes plus the (partitions_evaluated, count_calls) deltas
        of one combination."""
        backend = MaskBackend(dataset)
        evaluator = BatchEvaluator(dataset, pipeline, backend)
        before = (pipeline.stats.partitions_evaluated, backend.count_calls)
        outcomes = evaluator.process_categorical_combo(
            candidates,
            alpha=0.05,
            level=level,
            subset_patterns={},
            known_pure=known_pure,
        )
        after = (pipeline.stats.partitions_evaluated, backend.count_calls)
        return outcomes, (after[0] - before[0], after[1] - before[1])

    def test_survivor_outcome(self, dataset):
        pipeline = PruningPipeline(MinerConfig())
        itemset = Itemset([CategoricalItem("c", "u")])
        outcomes, deltas = self.run_combo(dataset, pipeline, [itemset], 1)
        assert [outcome.itemset for outcome in outcomes] == [itemset]
        assert outcomes[0].is_contrast
        assert outcomes[0].pattern.total_count > 0
        assert deltas == (1, 1)

    def test_table_hit_skips_evaluation(self, dataset):
        pipeline = PruningPipeline(MinerConfig())
        itemset = Itemset([CategoricalItem("c", "u")])
        pipeline.prune_table.add(itemset, PruneReason.REDUNDANT)
        outcomes, deltas = self.run_combo(dataset, pipeline, [itemset], 1)
        assert outcomes == []
        # skipped before counting: no partition, no counting call
        assert deltas == (0, 0)
        assert pipeline.stats.spaces_pruned == 1
        assert all(
            record.checks == 0 for record in pipeline.rule_stats.values()
        )

    def test_pure_precheck_skips_counting(self, dataset):
        pipeline = PruningPipeline(MinerConfig())
        candidate = Itemset(
            [CategoricalItem("c", "u"), CategoricalItem("d", "p")]
        )
        pure = Itemset([CategoricalItem("c", "u")])
        outcomes, deltas = self.run_combo(
            dataset, pipeline, [candidate], 2, known_pure=(pure,)
        )
        assert outcomes == []
        # pruned before counting: no partition was evaluated
        assert deltas == (0, 0)
        assert (
            pipeline.prune_table.reason_for(candidate)
            is PruneReason.PURE_SPACE
        )

    def test_only_pattern_free_survivors_are_counted(self, dataset):
        pipeline = PruningPipeline(MinerConfig())
        inside = Itemset(
            [CategoricalItem("c", "u"), CategoricalItem("d", "p")]
        )
        outside = Itemset(
            [CategoricalItem("c", "v"), CategoricalItem("d", "p")]
        )
        pure = Itemset([CategoricalItem("c", "u")])
        _, deltas = self.run_combo(
            dataset, pipeline, [inside, outside], 2, known_pure=(pure,)
        )
        assert deltas == (1, 1)
        assert pipeline.rule_stats["pure_space"].checks == 2
        assert pipeline.rule_stats["empty"].checks == 1


class TestReport:
    def test_format_prune_report_lists_rules(self):
        pipeline = PruningPipeline(MinerConfig())
        pipeline.evaluate(make_ctx(make_pattern((1, 1))))
        pipeline.publish()
        report = format_prune_report(pipeline.stats)
        assert "min_deviation" in report
        assert "lookup table" in report
        assert "total pruned: 1" in report

    def test_summary_exposes_rule_counts(self):
        from repro import ContrastSetMiner
        from repro.dataset.synthetic import simulated_dataset_1

        result = ContrastSetMiner(
            MinerConfig(max_tree_depth=2)
        ).mine(simulated_dataset_1())
        summary = result.summary()
        assert summary.prune_rule_checks
        assert sum(summary.prune_rule_hits.values()) <= sum(
            summary.prune_rule_checks.values()
        )
        assert result.explain_prunes().startswith("Pruning pipeline")
