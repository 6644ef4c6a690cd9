"""Pipeline dispatch overhead vs the hand-inlined rule sequence.

ISSUE 3 replaced the inlined prune-rule sequences (search engine,
SDAD-CS, parallel workers, STUCCO) with one ``PruningPipeline``.  The
pipeline adds per-candidate machinery — an ``EvaluationContext``, rule
dispatch, hit counters, ``perf_counter`` timing — that the old code did
not pay.  This bench bounds that cost: the added per-candidate overhead,
scaled by the number of candidates a real depth-3 Adult run evaluates,
must stay under 5% of that run's end-to-end wall time.

The two micro loops are timed in ``PAIRS`` back-to-back pairs, which
side goes first alternating from pair to pair, and the per-candidate
overhead is the median of the per-pair differences: a drift of machine
speed moves both sides of a pair alike instead of landing on one side
of the subtraction.
"""

from __future__ import annotations

import statistics
import time

from repro.core.config import MinerConfig
from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Itemset
from repro.core.miner import ContrastSetMiner
from repro.core.optimistic import chi_square_estimate
from repro.core.pipeline import (
    EvaluationContext,
    PruningPipeline,
    chi2_critical,
)
from repro.core.pruning import (
    expected_count_prunes,
    minimum_deviation_prunes,
    redundant_against_subset,
)
from repro.dataset.uci import adult

MICRO_ROUNDS = 2000
PAIRS = 7


def _make_pattern(counts, attrs):
    itemset = Itemset([CategoricalItem(a, "x") for a in attrs])
    return ContrastPattern(
        itemset=itemset,
        counts=tuple(counts),
        group_sizes=(1000, 1000),
        group_labels=("g0", "g1"),
        level=len(attrs),
    )


def _workload():
    """Representative candidates: survivors run every rule; the pruned
    ones exit at different depths, like a real level's mix."""
    survivor = _make_pattern((700, 80), ("a", "b"))
    subset = _make_pattern((720, 150), ("a",))
    return [
        (survivor, (subset,)),          # survives all six rules
        (_make_pattern((40, 45), ("c", "d")), ()),   # min deviation
        (_make_pattern((9, 3), ("e", "f")), ()),     # expected count
        (_make_pattern((700, 90), ("a", "g")),
         (_make_pattern((710, 95), ("a",)),)),       # redundant
    ]


def _time_pipeline(workload, config) -> float:
    pipeline = PruningPipeline(config)
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for pattern, subsets in workload:
            ctx = EvaluationContext(
                key=pattern.itemset,
                config=config,
                alpha=config.alpha,
                level=pattern.level,
                itemset=pattern.itemset,
                pattern=pattern,
                subset_patterns=subsets,
            )
            pipeline.evaluate(ctx)
    return time.perf_counter() - start


def _time_inlined(workload, config) -> float:
    """The PR-2-style sequence: same rule maths, no pipeline machinery."""
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for pattern, subsets in workload:
            counts = pattern.counts
            sizes = pattern.group_sizes
            if not any(counts):
                continue
            if minimum_deviation_prunes(counts, sizes, config.delta):
                continue
            if expected_count_prunes(
                counts, sizes, config.min_expected_count
            ):
                continue
            critical = chi2_critical(config.alpha, len(counts) - 1)
            if chi_square_estimate(counts, sizes) < critical:
                continue
            if any(
                redundant_against_subset(pattern, s, config.alpha)
                for s in subsets
            ):
                continue
    return time.perf_counter() - start


def test_pipeline_overhead_under_five_percent(report):
    config = MinerConfig(max_tree_depth=3)
    workload = _workload()

    # warm caches (chi2_critical lru, numpy) before timing either path
    _time_pipeline(workload, config)
    _time_inlined(workload, config)

    pairs = []
    for k in range(PAIRS):
        if k % 2:
            inlined = _time_inlined(workload, config)
            pairs.append((_time_pipeline(workload, config), inlined))
        else:
            pipeline = _time_pipeline(workload, config)
            pairs.append((pipeline, _time_inlined(workload, config)))
    pipeline_s = statistics.median(p for p, _ in pairs)
    inlined_s = statistics.median(i for _, i in pairs)
    n_micro = MICRO_ROUNDS * len(workload)
    per_candidate = (
        max(0.0, statistics.median(p - i for p, i in pairs)) / n_micro
    )

    # end-to-end depth-3 Adult run: how many candidates actually flow
    # through the pipeline, and how long does the whole mine take?
    dataset = adult(scale=0.5)
    start = time.perf_counter()
    result = ContrastSetMiner(config).mine(dataset)
    end_to_end_s = time.perf_counter() - start
    stats = result.stats
    n_candidates = (
        stats.prune_rule_checks.get("empty", 0) + stats.prune_table_checks
    )

    overhead_s = per_candidate * n_candidates
    fraction = overhead_s / end_to_end_s
    report(
        "pipeline_overhead",
        f"Pipeline dispatch overhead (Adult scale=0.5, depth 3):\n"
        f"  micro: {n_micro} candidates, median of {PAIRS} "
        f"alternating pairs  "
        f"pipeline {pipeline_s * 1e3:7.1f} ms  "
        f"inlined {inlined_s * 1e3:7.1f} ms  "
        f"-> {per_candidate * 1e6:.2f} us/candidate\n"
        f"  end-to-end: {end_to_end_s * 1e3:7.1f} ms, "
        f"{n_candidates} pipeline evaluations\n"
        f"  projected overhead: {overhead_s * 1e3:.1f} ms "
        f"({fraction:.2%} of end-to-end)",
    )

    assert result.patterns  # the run did real work
    assert fraction < 0.05, (
        f"pipeline overhead {fraction:.2%} exceeds the 5% budget"
    )
