"""STUCCO — Searching and Testing for Understandable Consistent COntrasts
(Bay & Pazzani, 2001).

The canonical categorical contrast-set miner and the engine the paper runs
on top of each global discretizer (MVD / Fayyad / equi-depth bins become
categorical attributes first).  Breadth-first candidate generation with:

* minimum deviation size pruning (no group support above ``delta``),
* expected cell count >= 5 pruning,
* chi-square upper-bound pruning (a node none of whose specialisations can
  reach significance is cut), and
* the Bonferroni alpha ladder across levels.

Output: all large-and-significant contrast sets, optionally truncated to
the top-k by support difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.config import MinerConfig
from ..core.contrast import ContrastPattern
from ..core.instrumentation import MiningStats, Stopwatch
from ..core.items import CategoricalItem, Itemset
from ..core.pipeline import (
    EvaluationBatch,
    OptimisticChiSquareRule,
    PruningPipeline,
)
from ..core.stats import AlphaLadder
from ..counting import CountingBackend
from ..dataset.table import Dataset

__all__ = ["StuccoConfig", "StuccoResult", "stucco"]

# STUCCO uses the chi-square upper bound as an *expansion gate*, not a
# prune: a failing node is still reported if it is itself a contrast,
# only its specialisations are cut.
_EXPANSION_GATE = OptimisticChiSquareRule()


@dataclass(frozen=True)
class StuccoConfig:
    """STUCCO parameters (defaults follow the paper's setup)."""

    delta: float = 0.1
    alpha: float = 0.05
    max_depth: int = 5
    k: int | None = 100
    min_expected_count: float = 5.0
    use_bonferroni: bool = True


@dataclass
class StuccoResult:
    patterns: list[ContrastPattern]
    stats: MiningStats

    def top(self, n: int | None = None) -> list[ContrastPattern]:
        return self.patterns if n is None else self.patterns[:n]


def stucco(
    dataset: Dataset,
    config: StuccoConfig | None = None,
    attributes: Sequence[str] | None = None,
) -> StuccoResult:
    """Mine categorical contrast sets.

    Continuous attributes are rejected — discretize first (see
    :mod:`repro.baselines.discretizers`).
    """
    config = config or StuccoConfig()
    names = (
        tuple(attributes)
        if attributes is not None
        else dataset.schema.categorical_names
    )
    for name in names:
        if not dataset.attribute(name).is_categorical:
            raise ValueError(
                f"STUCCO handles categorical attributes only; {name!r} is "
                "continuous (discretize it first)"
            )

    stats = MiningStats()
    ladder = AlphaLadder(config.alpha)
    found: list[ContrastPattern] = []
    # STUCCO runs the shared pipeline restricted to its two prune rules
    # (minimum deviation + expected count); the chi-square bound acts as
    # an expansion gate below, and the redundancy/pure-space rules are
    # SDAD-CS additions STUCCO predates.
    pipeline = PruningPipeline(
        MinerConfig(
            delta=config.delta,
            alpha=config.alpha,
            k=config.k if config.k is not None else 100,
            max_tree_depth=config.max_depth,
            min_expected_count=config.min_expected_count,
            use_bonferroni=config.use_bonferroni,
            prune_optimistic=False,
            prune_redundant=False,
            prune_pure_space=False,
        ),
        stats=stats,
    )
    backend = CountingBackend(dataset)
    sizes = dataset.group_sizes
    labels = dataset.group_labels

    with Stopwatch(stats):
        # level 1 candidates: every attribute value
        frontier: list[Itemset] = [
            Itemset([CategoricalItem(name, value)])
            for name in names
            for value in dataset.attribute(name).categories
        ]
        level = 1
        while frontier and level <= config.max_depth:
            alpha = (
                ladder.alpha_for_level(level, max(1, len(frontier)))
                if config.use_bonferroni
                else config.alpha
            )
            # The whole level is one batch: one counting sweep, one pass
            # down the rule chain, one gate call over the kept nodes.
            stats.partitions_evaluated += len(frontier)
            counts = backend.group_counts_batch(frontier)
            batch = EvaluationBatch(
                keys=frontier,
                config=pipeline.config,
                alpha=alpha,
                counts=counts,
                group_sizes=sizes,
            )
            kept = np.flatnonzero(pipeline.evaluate_batch(batch))
            for i in kept:
                pattern = ContrastPattern(
                    itemset=frontier[i],
                    counts=tuple(int(c) for c in counts[i]),
                    group_sizes=sizes,
                    group_labels=labels,
                    level=level,
                )
                if pattern.is_contrast(config.delta, alpha):
                    found.append(pattern)
            # expand only if some specialisation could be significant
            gated = pipeline.gate_batch(_EXPANSION_GATE, batch, kept)
            stats.spaces_pruned += int(gated.sum())
            survivors = [frontier[i] for i in kept[~gated]]
            frontier = _next_level(survivors, dataset, names)
            stats.candidates_generated += len(frontier)
            level += 1
        pipeline.publish()

    found.sort(key=lambda p: -p.support_difference)
    if config.k is not None:
        found = found[: config.k]
    return StuccoResult(found, stats)


def _next_level(
    survivors: Sequence[Itemset],
    dataset: Dataset,
    names: Sequence[str],
) -> list[Itemset]:
    """Extend surviving itemsets with values of later attributes.

    Attributes are ordered; an itemset is only extended with attributes
    after its last one, so every candidate is generated exactly once
    (the systematic enumeration of Figure 1).
    """
    order = {name: i for i, name in enumerate(names)}
    out: list[Itemset] = []
    for itemset in survivors:
        last = max(order[a] for a in itemset.attributes)
        for name in names[last + 1:]:
            for value in dataset.attribute(name).categories:
                out.append(itemset.with_item(CategoricalItem(name, value)))
    return out
