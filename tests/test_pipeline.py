"""Tests for the shared pruning pipeline (EvaluationBatch + PruneRule +
PruningPipeline), the one candidate lifecycle every miner routes through."""

import numpy as np
import pytest

from repro import Attribute, Dataset, MinerConfig, Schema
from repro.core.batch import BatchEvaluator
from repro.core.contrast import ContrastPattern
from repro.core.instrumentation import MiningStats
from repro.core.items import CategoricalItem, Itemset
from repro.core.pipeline import (
    PHASE_SPACE,
    EvaluationBatch,
    OptimisticChiSquareRule,
    PruneRule,
    PruningPipeline,
    chi2_critical,
    default_rules,
    format_prune_report,
)
from repro.core.pruning import PruneReason, PruneTable
from repro.core.sdad import sdad_cs
from repro.counting import CountingBackend


def make_pattern(counts, group_sizes=(100, 100), attrs=("a",)):
    itemset = Itemset([CategoricalItem(a, "x") for a in attrs])
    return ContrastPattern(
        itemset=itemset,
        counts=tuple(counts),
        group_sizes=tuple(group_sizes),
        group_labels=tuple(f"g{i}" for i in range(len(group_sizes))),
        level=len(attrs),
    )


def make_batch(*patterns, config=None, alpha=0.05, keys=None, **kwargs):
    """One batch over ``patterns``, keyed by their itemsets unless
    ``keys`` are given."""
    return EvaluationBatch(
        keys=keys if keys is not None else [p.itemset for p in patterns],
        config=config or MinerConfig(),
        alpha=alpha,
        counts=[p.counts for p in patterns],
        group_sizes=patterns[0].group_sizes,
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


def test_chi2_critical_is_scipy_isf_bit_for_bit():
    """The optimistic gate's threshold comes from ``scipy.special.chdtri``
    so that the miner never loads ``scipy.stats``; it must stay the exact
    double ``scipy.stats.chi2.isf`` gives, from the loosest alpha a level
    can have down to the Bonferroni ladder's deepest, for every degree of
    freedom up to 16 groups."""
    from scipy import stats as scipy_stats

    alphas = np.concatenate([
        np.logspace(-300, np.log10(0.5), 400),
        [0.5, 0.05, 0.025, 0.0125, 0.01, 1e-3, 0.05 / 2**5 / 1_000],
    ])
    chi2_critical.cache_clear()
    for dof in range(1, 16):
        for alpha in alphas.tolist():
            assert chi2_critical(alpha, dof) == float(
                scipy_stats.chi2.isf(alpha, dof)
            ), (alpha, dof)


class TestEvaluate:
    def test_prune_records_reason_table_and_stats(self):
        pipeline = PruningPipeline(MinerConfig(delta=0.1))
        pattern = make_pattern((1, 1))  # supports 0.01 -> min deviation
        keep = pipeline.evaluate_batch(make_batch(pattern))
        assert keep.tolist() == [False]
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
        pattern = make_pattern((0, 0))
        pipeline.evaluate_batch(make_batch(pattern))
        assert (
            pipeline.prune_table.reason_for(pattern.itemset)
            is PruneReason.EMPTY
        )

    def test_survivor_keeps(self):
        pipeline = PruningPipeline(MinerConfig(delta=0.1))
        keep = pipeline.evaluate_batch(make_batch(make_pattern((90, 10))))
        assert keep.tolist() == [True]
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
        pipeline.evaluate_batch(
            make_batch(pattern, subset_patterns={subset.itemset: subset})
        )
        assert (
            pipeline.prune_table.reason_for(pattern.itemset)
            is PruneReason.REDUNDANT
        )

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
        assert not pipeline.evaluate_batch(
            make_batch(pattern, alpha=1e-12)
        )[0]
        assert (
            pipeline.prune_table.reason_for(pattern.itemset)
            is PruneReason.OPTIMISTIC_ESTIMATE
        )
        space = make_batch(
            pattern, alpha=1e-12, keys=["space"], phase=PHASE_SPACE
        )
        assert pipeline.evaluate_batch(space)[0]
        assert pipeline.rule_stats["optimistic"].checks == 1

    def test_seen_counts_table_hit(self):
        pipeline = PruningPipeline(MinerConfig())
        key = Itemset([CategoricalItem("a", "x")])
        assert not pipeline.seen(key)
        pipeline.prune_table.add(key, PruneReason.EMPTY)
        assert pipeline.seen(key)
        assert pipeline.stats.spaces_pruned == 1


class TestLaziness:
    """A space-phase batch builds a frame's parent pattern only when the
    redundancy rule reaches one of that frame's rows, and then once."""

    @staticmethod
    def frames_batch(counts, frames):
        """A space batch over ``counts`` rows whose frames are
        ``(rows, parent factory)`` pairs."""
        return make_batch(
            *(make_pattern(row) for row in counts),
            keys=[("space", i) for i in range(len(counts))],
            phase=PHASE_SPACE,
            shared_subset_groups=frames,
        )

    def test_pattern_factory_not_called_unless_needed(self):
        calls = []

        def parent():
            calls.append(1)
            return make_pattern((90, 10))

        pipeline = PruningPipeline(MinerConfig())
        batch = self.frames_batch(
            [(1, 1), (2, 1)], [(np.arange(2), parent)]
        )
        keep = pipeline.evaluate_batch(batch)
        # both rows fell to min deviation on raw counts: the parent
        # pattern was never materialised
        assert keep.tolist() == [False, False]
        assert pipeline.rule_stats["redundant"].checks == 0
        assert calls == []

    def test_pattern_factory_called_once(self):
        calls = {"dead": 0, "alive": 0}

        def parent(frame):
            def build():
                calls[frame] += 1
                return make_pattern((50, 50))

            return build

        pipeline = PruningPipeline(MinerConfig())
        batch = self.frames_batch(
            [(1, 1), (90, 10), (80, 5)],
            [
                (np.array([0]), parent("dead")),
                (np.array([1, 2]), parent("alive")),
            ],
        )
        pipeline.evaluate_batch(batch)
        assert pipeline.rule_stats["redundant"].checks == 2
        assert calls == {"dead": 0, "alive": 1}


class TestPublish:
    def test_publish_folds_rule_stats_and_reasons(self):
        pipeline = PruningPipeline(MinerConfig())
        pipeline.evaluate_batch(make_batch(make_pattern((1, 1))))
        stats = pipeline.stats
        pipeline.publish()
        assert stats.prune_rule_hits["min_deviation"] == 1
        assert stats.prune_reasons == {"MIN_DEVIATION": 1}
        assert stats.prune_table_checks == 0

    def test_publish_is_delta_based(self):
        """A second publish adds nothing; work between publishes adds
        only the delta (the parallel workers' per-task semantics)."""
        pipeline = PruningPipeline(MinerConfig())
        pipeline.evaluate_batch(
            make_batch(make_pattern((1, 1), attrs=("a",)))
        )
        first = MiningStats()
        pipeline.publish(first)
        again = MiningStats()
        pipeline.publish(again)
        assert again.prune_rule_hits.get("min_deviation", 0) == 0
        assert again.prune_reasons == {}
        pipeline.evaluate_batch(
            make_batch(make_pattern((1, 1), attrs=("b",)))
        )
        second = MiningStats()
        pipeline.publish(second)
        assert second.prune_rule_hits["min_deviation"] == 1
        assert second.prune_reasons == {"MIN_DEVIATION": 1}

    def test_gate_batch_counts_without_recording(self):
        pipeline = PruningPipeline(MinerConfig())
        gate = OptimisticChiSquareRule()
        batch = make_batch(
            make_pattern((6, 6)), make_pattern((60, 5)), alpha=1e-12
        )
        # no candidate reached the gate: no record at all
        assert pipeline.gate_batch(gate, batch, np.arange(0)).size == 0
        assert "optimistic(gate)" not in pipeline.rule_stats
        hits = pipeline.gate_batch(gate, batch, np.arange(2))
        assert hits.tolist() == [True, False]
        assert len(pipeline.prune_table) == 0
        assert pipeline.stats.spaces_pruned == 0
        record = pipeline.rule_stats["optimistic(gate)"]
        assert (record.checks, record.hits) == (2, 1)


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
        backend = CountingBackend(dataset)
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
        pipeline.evaluate_batch(make_batch(make_pattern((1, 1))))
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


class SmallSpaceRule(PruneRule):
    """A third-party rule written against the batch protocol alone: cut
    every candidate covering fewer than ``MIN_ROWS`` rows."""

    MIN_ROWS = 150
    name = "small_space"
    reason = PruneReason.EXPECTED_COUNT

    def check_batch(self, batch, idx):
        return batch.totals[idx] < self.MIN_ROWS


class TestRuleProtocol:
    def test_batch_only_rule_runs_inside_sdad(self, mixed_dataset):
        config = MinerConfig()
        pipeline = PruningPipeline(config, rules=(SmallSpaceRule(),))
        result = sdad_cs(
            mixed_dataset, Itemset(), ["x"], config, pipeline=pipeline
        )
        record = pipeline.rule_stats["small_space"]
        assert record.hits > 0
        assert record.checks > record.hits
        assert pipeline.prune_table.reason_counts() == {
            PruneReason.EXPECTED_COUNT: record.hits
        }
        pipeline.publish()
        assert pipeline.stats.prune_rule_hits == {"small_space": record.hits}
        assert pipeline.stats.prune_reasons == {
            "EXPECTED_COUNT": record.hits
        }
        assert result.patterns
        assert all(
            p.total_count >= SmallSpaceRule.MIN_ROWS for p in result.patterns
        )

    def test_rule_without_check_batch_raises(self):
        class Bare(PruneRule):
            name = "bare"

        pipeline = PruningPipeline(MinerConfig(), rules=(Bare(),))
        with pytest.raises(NotImplementedError, match="Bare"):
            pipeline.evaluate_batch(make_batch(make_pattern((90, 10))))
