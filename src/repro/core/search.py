"""Search over attribute combinations (paper Section 4.1, Figure 1).

The miner explores itemsets level-wise: level ``l`` considers combinations
of ``l`` attributes.  Purely categorical combinations are handled with
STUCCO-style candidate generation; as soon as a combination contains a
continuous attribute, SDAD-CS is invoked to discretize adaptively within
the categorical context.

Level-wise (breadth-first by level, with candidates generated by extending
the previous level's *viable* itemsets) maximises pruning, as the paper
argues: an itemset is only generated if every categorical sub-itemset
survived, minimum-deviation viability is anti-monotone, and pure itemsets
(PR = 1) are never extended.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..dataset.table import Dataset
from . import measures
from .batch import BatchEvaluator
from .config import MinerConfig
from .contrast import ContrastPattern
from .items import CategoricalItem, Itemset
from .pipeline import PruningPipeline
from .sdad import sdad_cs
from .stats import AlphaLadder
from .topk import TopKList

__all__ = ["SearchEngine", "attribute_combinations"]


def attribute_combinations(
    attributes: Sequence[str], max_size: int
) -> Iterable[tuple[str, ...]]:
    """Attribute subsets in the search order of Figure 1.

    Combinations are produced level by level; within a level, in the
    lexicographic order induced by the attribute sequence — the systematic
    enumeration of Webb & Zhang's k-optimal search, which visits each
    combination exactly once and lets sub-combination results prune
    super-combinations.
    """
    for size in range(1, min(max_size, len(attributes)) + 1):
        yield from itertools.combinations(attributes, size)


@dataclass
class _CategoricalLevel:
    """Viable categorical itemsets per attribute combination at one level."""

    viable: dict[tuple[str, ...], list[Itemset]] = field(default_factory=dict)
    patterns: dict[Itemset, ContrastPattern] = field(default_factory=dict)


class SearchEngine:
    """Drives the full mixed-data search and maintains the top-k list."""

    def __init__(
        self,
        dataset: Dataset,
        config: MinerConfig | None = None,
        attributes: Sequence[str] | None = None,
        backend=None,
    ) -> None:
        self.dataset = dataset
        self.config = config or MinerConfig()
        names = (
            tuple(attributes)
            if attributes is not None
            else dataset.schema.names
        )
        for name in names:
            dataset.attribute(name)  # validate
        self.attributes = names
        if backend is None:
            # imported lazily to avoid a module cycle with repro.counting
            from ..counting import CountingBackend

            backend = CountingBackend(dataset)
        self.backend = backend
        # The pipeline owns the run's prune table and stats; the aliases
        # below are the stable public attributes tests and callers use.
        self.pipeline = PruningPipeline(self.config)
        self.stats = self.pipeline.stats
        self.prune_table = self.pipeline.prune_table
        self.ladder = AlphaLadder(self.config.alpha)
        self.topk = TopKList(self.config.k, self.config.delta)
        self.measure = measures.get(self.config.interest_measure)
        self.pure_itemsets: list[Itemset] = []
        self._cat_levels: dict[int, _CategoricalLevel] = {}
        # The vectorized level-batch driver (DESIGN.md §12).  One
        # evaluator serves both the categorical batches and every SDAD-CS
        # run, so its dataset-level caches span the whole search.
        self._batch = BatchEvaluator(
            dataset,
            self.pipeline,
            self.backend,
            self.config.interest_measure,
        )

    # ------------------------------------------------------------------

    def run(self) -> TopKList:
        """Execute the level-wise search and return the top-k list."""
        max_depth = min(self.config.max_tree_depth, len(self.attributes))
        for level in range(1, max_depth + 1):
            self._run_level(level)
        self.backend.publish(self.stats)
        self.pipeline.publish(self.stats)
        return self.topk

    def _run_level(self, level: int) -> None:
        combos = list(itertools.combinations(self.attributes, level))
        alpha = self._alpha(level, max(1, len(combos)))
        self._cat_levels[level] = _CategoricalLevel()
        run: list[tuple[str, ...]] = []
        for combo in combos:
            categorical = tuple(
                a for a in combo if self.dataset.attribute(a).is_categorical
            )
            continuous = tuple(
                a for a in combo if self.dataset.attribute(a).is_continuous
            )
            self.stats.nodes_expanded += 1
            if continuous:
                # SDAD-CS reads the pure registry and the top-k threshold,
                # so the pending run is applied before it starts.
                self._run_categorical_combos(run, alpha, level)
                run = []
                self._run_mixed_combo(categorical, continuous, alpha)
            else:
                run.append(combo)
        self._run_categorical_combos(run, alpha, level)

    def _alpha(self, level: int, n_candidates: int) -> float:
        if not self.config.use_bonferroni:
            return self.config.alpha
        return self.ladder.alpha_for_level(level, n_candidates)

    # ------------------------------------------------------------------
    # Purely categorical combinations (STUCCO-style)
    # ------------------------------------------------------------------

    def _run_categorical_combos(
        self, combos: list[tuple[str, ...]], alpha: float, level: int
    ) -> None:
        """Judge a run of consecutive categorical-only combinations.

        All of the run's candidates go through one batch, in combination
        order.  No candidate's verdict depends on another's (DESIGN.md
        §12): candidates come from the previous level only, their keys
        differ across combinations, and a level-``l`` pure itemset
        cannot prune a level-``l`` candidate.  The outcomes are then
        applied one combination at a time, in the original order.
        """
        if not combos:
            return
        candidates = [
            itemset
            for combo in combos
            for itemset in self._categorical_candidates(combo, level)
        ]
        self.stats.candidates_generated += len(candidates)
        level_state = self._cat_levels[level]
        previous = self._cat_levels.get(level - 1)
        subset_patterns = previous.patterns if previous is not None else {}
        outcomes = self._batch.process_categorical_combo(
            candidates,
            alpha=alpha,
            level=level,
            subset_patterns=subset_patterns,
            known_pure=self.pure_itemsets,
        )
        # Outcomes come in candidate order, i.e. combination by
        # combination; itemsets list their attributes sorted.
        viable: dict[tuple[str, ...], list[Itemset]] = {c: [] for c in combos}
        combo_of = {tuple(sorted(combo)): combo for combo in combos}
        for outcome in outcomes:
            viable[combo_of[outcome.itemset.attributes]].append(
                outcome.itemset
            )
            level_state.patterns[outcome.itemset] = outcome.pattern
            if outcome.is_pure:
                self.pure_itemsets.append(outcome.itemset)
            if outcome.is_contrast:
                self.topk.add(outcome.pattern, self.measure(outcome.pattern))
        level_state.viable.update(viable)

    def _categorical_candidates(
        self, combo: tuple[str, ...], level: int
    ) -> list[Itemset]:
        """Candidates for a categorical combination.

        Level 1: one itemset per attribute value.  Deeper levels: extend
        each viable itemset of the prefix combination with every value of
        the final attribute (the classic candidate-generation step); a
        combination whose prefix produced no viable itemsets yields none.
        """
        if level == 1:
            attr = self.dataset.attribute(combo[0])
            return [
                Itemset([CategoricalItem(combo[0], value)])
                for value in attr.categories
            ]
        prefix, last = combo[:-1], combo[-1]
        previous = self._cat_levels.get(level - 1)
        if previous is None or prefix not in previous.viable:
            return []
        attr = self.dataset.attribute(last)
        return [
            base.with_item(CategoricalItem(last, value))
            for base in previous.viable[prefix]
            for value in attr.categories
        ]

    # ------------------------------------------------------------------
    # Combinations with continuous attributes (SDAD-CS)
    # ------------------------------------------------------------------

    def _run_mixed_combo(
        self,
        categorical: tuple[str, ...],
        continuous: tuple[str, ...],
        alpha: float,
    ) -> None:
        contexts: list[Itemset]
        if categorical:
            level_state = self._cat_levels.get(len(categorical))
            if level_state is None or categorical not in level_state.viable:
                # The categorical sub-combination was never viable.
                contexts = []
            else:
                contexts = [
                    c
                    for c in level_state.viable[categorical]
                    if not self._extends_pure_context(c)
                ]
        else:
            contexts = [Itemset()]

        for context in contexts:
            result = sdad_cs(
                self.dataset,
                context,
                continuous,
                self.config,
                min_interest=self.topk.threshold,
                alpha_ladder=self.ladder,
                pipeline=self.pipeline,
                base_level=len(context),
                known_pure=self.pure_itemsets,
                backend=self.backend,
                evaluator=self._batch,
            )
            self.pure_itemsets.extend(result.pure_itemsets)
            for pattern in result.patterns:
                self.topk.add(pattern, self.measure(pattern))

    def _extends_pure_context(self, context: Itemset) -> bool:
        """A categorical context inside a pure region cannot yield anything
        but redundant specialisations of the pure contrast."""
        if not self.config.prune_pure_space:
            return False
        return any(
            pure.region_subsumes(context) for pure in self.pure_itemsets
        )
