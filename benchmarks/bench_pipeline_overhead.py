"""Pipeline dispatch overhead vs the same batch kernels called directly.

Every miner judges its candidates through ``PruningPipeline.
evaluate_batch``: one call per SDAD-CS sibling frame and two per run
of consecutive categorical attribute combinations (the pattern-free
rules before counting, the rest after).  Around the rule kernels, each
call pays for an ``EvaluationBatch``, the rule plan, per-rule hit
counters, ``perf_counter`` timing and the prune-table bookkeeping.
This bench bounds that cost: the added per-call overhead, scaled by the
number of ``evaluate_batch`` calls a real depth-3 Adult run makes, must
stay under 5% of that run's end-to-end wall time.

Both micro loops judge the same batches — sibling frames of the SDAD-CS
space phase, and a run of categorical candidates' pre-counting and
counted passes, built as ``BatchEvaluator.process_categorical_combo``
builds them, with the previous level's pattern map — and run the same
kernels on the same surviving rows in the same rule order, the
redundancy test included; only the pipeline machinery differs.  They are timed
in ``PAIRS`` back-to-back pairs, which side goes first alternating from
pair to pair, and the per-call overhead is the median of the per-pair
differences: a drift of machine speed moves both sides of a pair alike
instead of landing on one side of the subtraction.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.config import MinerConfig
from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Itemset
from repro.core.miner import ContrastSetMiner
from repro.core.optimistic import chi_square_estimate_batch
from repro.core.pipeline import (
    PHASE_ITEMSET,
    PHASE_SPACE,
    EvaluationBatch,
    PruningPipeline,
    chi2_critical,
)
from repro.core.pruning import redundant_against_subset_batch
from repro.dataset.uci import adult

MICRO_ROUNDS = 2000
PAIRS = 7
SIZES = (1000, 1000)


def _make_pattern(counts, attrs):
    itemset = Itemset([CategoricalItem(a, "x") for a in attrs])
    return ContrastPattern(
        itemset=itemset,
        counts=tuple(counts),
        group_sizes=SIZES,
        group_labels=("g0", "g1"),
        level=len(attrs),
    )


def _case(phase, rows, subset, mode="all"):
    """One ``evaluate_batch`` call: candidate patterns (keys and counts),
    the subset they are compared against, and which rules run.  An
    itemset candidate ``{<phase><i>, z}`` finds the subset under its
    leave-one-out subset ``{z}`` in the pattern map; ``{<phase><i>}`` is
    missing from it."""
    patterns = [
        _make_pattern(counts, (f"{phase}{i}", "z"))
        for i, counts in enumerate(rows)
    ]
    return {
        "phase": phase,
        "keys": [p.itemset for p in patterns],
        "counts": np.asarray(rows, dtype=np.int64),
        "subset": subset,
        "subset_patterns": {Itemset([CategoricalItem("z", "x")]): subset},
        "mode": mode,
    }


def _workload():
    """A mine's mix of calls: mostly SDAD-CS frames of 2-4 children
    whose rows leave the chain at different rules, plus one categorical
    run's two passes."""
    parent = _make_pattern((720, 150), ("a",))
    frames = [
        _case(PHASE_SPACE, [(700, 80), (20, 70), (0, 0), (9, 3)], parent),
        _case(PHASE_SPACE, [(360, 40), (360, 110)], parent),
        _case(PHASE_SPACE, [(40, 45), (300, 20), (700, 90), (5, 2)],
              parent),
        _case(PHASE_SPACE, [(650, 60), (70, 90), (600, 95)], parent),
    ]
    candidates = [(700, 80), (40, 45), (9, 3), (700, 90), (500, 60),
                  (30, 200)]
    return frames + [
        _case(PHASE_ITEMSET, candidates, parent, mode="pattern_free"),
        _case(PHASE_ITEMSET, candidates, parent, mode="counted"),
    ]


def _batch(case, config) -> EvaluationBatch:
    if case["phase"] == PHASE_SPACE:
        subset = case["subset"]
        return EvaluationBatch(
            keys=case["keys"],
            config=config,
            alpha=config.alpha,
            phase=PHASE_SPACE,
            counts=case["counts"],
            group_sizes=SIZES,
            shared_subset_groups=[
                (np.arange(len(case["keys"])), lambda: subset)
            ],
        )
    return EvaluationBatch(
        keys=case["keys"],
        config=config,
        alpha=config.alpha,
        counts=None if case["mode"] == "pattern_free" else case["counts"],
        group_sizes=SIZES,
        subset_patterns=case["subset_patterns"],
    )


def _time_pipeline(workload, config) -> float:
    pipeline = PruningPipeline(config)
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for case in workload:
            pipeline.evaluate_batch(
                _batch(case, config),
                pattern_free_only=case["mode"] == "pattern_free",
                skip_pattern_free=case["mode"] == "counted",
            )
    return time.perf_counter() - start


def _inlined(case, config) -> np.ndarray:
    """The rule kernels of one call in chain order, no pipeline: empty,
    minimum deviation, expected count, optimistic (itemsets only), and
    redundancy.  The pure-space rule has no known pure regions here, so
    it cannot fire and the pattern-free pass judges nothing."""
    counts = case["counts"]
    keep = np.ones(len(counts), dtype=bool)
    if case["mode"] == "pattern_free":
        return keep
    sizes = np.asarray(SIZES, dtype=np.float64)
    totals = counts.sum(axis=1)
    alive = np.flatnonzero(totals != 0)
    supports = np.divide(
        counts.astype(np.float64), sizes[None, :],
        out=np.zeros(counts.shape), where=(sizes > 0)[None, :],
    )
    alive = alive[~np.all(supports[alive] <= config.delta, axis=1)]
    total = float(sizes.sum())
    r0 = totals[alive].astype(np.float64)
    bound = np.minimum(r0, total - r0) * float(sizes.min()) / total
    alive = alive[~(bound < config.min_expected_count)]
    if case["phase"] == PHASE_ITEMSET:
        critical = chi2_critical(config.alpha, len(SIZES) - 1)
        bounds = chi_square_estimate_batch(counts[alive], SIZES)
        alive = alive[~(bounds < critical)]
        # the leave-one-out lookups of the rule, then one kernel call
        # over the (candidate, subset) pairs found
        subsets = case["subset_patterns"]
        pos, found = [], []
        for j, i in enumerate(alive):
            itemset = case["keys"][i]
            for attribute in itemset.attributes:
                hit = subsets.get(itemset.without_attribute(attribute))
                if hit is not None:
                    pos.append(j)
                    found.append(hit)
        pos = np.asarray(pos, dtype=np.intp)
        redundant = np.zeros(len(alive), dtype=bool)
        if len(pos):
            hits = redundant_against_subset_batch(
                supports[alive[pos]],
                np.asarray([s.supports for s in found]),
                np.asarray([s.group_sizes for s in found]),
                config.alpha,
            )
            redundant[pos[hits]] = True
    else:
        subset = case["subset"]
        redundant = redundant_against_subset_batch(
            supports[alive], subset.supports, subset.group_sizes,
            config.alpha,
        )
    keep[:] = False
    keep[alive[~redundant]] = True
    return keep


def _time_inlined(workload, config) -> float:
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for case in workload:
            _inlined(case, config)
    return time.perf_counter() - start


def _mine_counting_calls(dataset, config):
    """Mine once while counting ``evaluate_batch`` calls and the
    candidates they judged."""
    original = PruningPipeline.evaluate_batch
    tally = {"calls": 0, "candidates": 0}

    def counted(self, batch, **kwargs):
        tally["calls"] += 1
        tally["candidates"] += batch.size
        return original(self, batch, **kwargs)

    PruningPipeline.evaluate_batch = counted
    try:
        ContrastSetMiner(config).mine(dataset)
    finally:
        PruningPipeline.evaluate_batch = original
    return tally["calls"], tally["candidates"]


def test_pipeline_overhead_under_five_percent(report):
    config = MinerConfig(max_tree_depth=3)
    workload = _workload()

    # both sides judge every batch alike
    pipeline = PruningPipeline(config)
    for case in workload:
        kept = pipeline.evaluate_batch(
            _batch(case, config),
            pattern_free_only=case["mode"] == "pattern_free",
            skip_pattern_free=case["mode"] == "counted",
        )
        assert list(kept) == list(_inlined(case, config))

    # warm caches (chi2_critical lru, numpy) before timing either path
    _time_pipeline(workload, config)
    _time_inlined(workload, config)

    pairs = []
    for k in range(PAIRS):
        if k % 2:
            inlined = _time_inlined(workload, config)
            pairs.append((_time_pipeline(workload, config), inlined))
        else:
            piped = _time_pipeline(workload, config)
            pairs.append((piped, _time_inlined(workload, config)))
    pipeline_s = statistics.median(p for p, _ in pairs)
    inlined_s = statistics.median(i for _, i in pairs)
    n_micro = MICRO_ROUNDS * len(workload)
    per_call = (
        max(0.0, statistics.median(p - i for p, i in pairs)) / n_micro
    )

    # end-to-end depth-3 Adult run: how many evaluate_batch calls does
    # it make, and how long does the whole mine take (timed unwrapped)?
    dataset = adult(scale=0.5)
    n_calls, n_candidates = _mine_counting_calls(dataset, config)
    start = time.perf_counter()
    result = ContrastSetMiner(config).mine(dataset)
    end_to_end_s = time.perf_counter() - start

    overhead_s = per_call * n_calls
    fraction = overhead_s / end_to_end_s
    report(
        "pipeline_overhead",
        f"Pipeline dispatch overhead (Adult scale=0.5, depth 3):\n"
        f"  micro: {n_micro} evaluate_batch calls, median of {PAIRS} "
        f"alternating pairs  "
        f"pipeline {pipeline_s * 1e3:7.1f} ms  "
        f"inlined {inlined_s * 1e3:7.1f} ms  "
        f"-> {per_call * 1e6:.2f} us/call\n"
        f"  end-to-end: {end_to_end_s * 1e3:7.1f} ms, "
        f"{n_calls} evaluate_batch calls over {n_candidates} candidates\n"
        f"  projected overhead: {overhead_s * 1e3:.1f} ms "
        f"({fraction:.2%} of end-to-end)",
    )

    assert result.patterns  # the run did real work
    assert fraction < 0.05, (
        f"pipeline overhead {fraction:.2%} exceeds the 5% budget"
    )
