"""Level-parallel mining (paper Section 6, scaling discussion).

The paper's strategy for data that exceeds one machine: *"find contrast
patterns at each level of the tree in parallel and then use those results
to prune the next level of the tree"*.  Each attribute combination at a
level is an independent task, so a level is a simple parallel map; between
levels the workers' results are folded into the shared top-k list, the
viable-itemset index, and the pure-itemset set, restoring the cross-subtree
pruning for the next level.

Workers run the exact same candidate lifecycle as the serial engine — the
shared :class:`~repro.core.pipeline.PruningPipeline` — with the level's
Bonferroni alpha and a snapshot of the driver's :class:`AlphaLadder`
shipped in each task (ladder registration is value-deterministic given the
driver's prior levels, so worker-local copies reproduce the serial alphas
exactly).  Each worker task returns its own :class:`MiningStats` and
:class:`PruneTable`; the driver merges them, so a parallel run reports the
same per-rule prune accounting as the serial run, not just the same
patterns.

Two per-level snapshots are intentionally frozen for the duration of a
level (the paper notes the same trade-off): the live top-k threshold and
the pure-itemset registry, which the serial engine updates mid-level.
Cross-task effects within one level are not replayed, so a run whose top-k
list saturates mid-level can evaluate slightly more partitions than the
serial one.

This module implements the strategy with ``multiprocessing`` on one
machine — the paper's cluster stands in for our process pool (DESIGN.md
substitution #4).  The public entry point is
:meth:`repro.ContrastSetMiner.mine` with ``n_jobs > 1``.  Workers count
supports through the configured :mod:`counting backend <repro.counting>` —
each worker builds its backend once in the pool initializer, so the bitmap
backend's packed index and context cache persist across the tasks a worker
processes.

Task dispatch is fault-tolerant (DESIGN.md section 9): every task travels
through :class:`~repro.resilience.executor.ResilientExecutor`, which
classifies worker crashes, hangs, raised exceptions, and corrupt results,
retries with exponential backoff under ``config.resilience``, rebuilds a
broken pool, and finally re-executes an exhausted task serially in the
driver so a run always completes.  At every level boundary the driver can
persist the full between-levels state (``checkpoint_dir=``) and later
continue from it (``resume_from=``) with bit-identical patterns and prune
accounting.  A deterministic :class:`~repro.resilience.inject.FaultPlan`
makes each of those failure paths drivable from tests.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core import measures
from ..core.batch import BatchEvaluator
from ..core.config import MinerConfig
from ..core.contrast import ContrastPattern
from ..core.instrumentation import MiningStats, Stopwatch
from ..core.items import CategoricalItem, Itemset
from ..core.pipeline import PruningPipeline
from ..core.pruning import PruneTable
from ..core.sdad import sdad_cs
from ..core.stats import AlphaLadder
from ..core.topk import TopKList
from ..counting import CountingBackend, backend_from_config
from ..dataset.table import Dataset
from ..resilience.checkpoint import (
    MiningCheckpoint,
    save_checkpoint,
)
from ..resilience.executor import ResilientExecutor, TaskEnvelope
from ..resilience.inject import CORRUPT_SENTINEL, FaultPlan, apply_fault

__all__ = ["mine_level_tasks", "parallel_search"]

# Worker-global state: sent once per worker via the initializer instead of
# pickling the dataset (and rebuilding the counting backend) in every task.
_WORKER_DATASET: Dataset | None = None
_WORKER_CONFIG: MinerConfig | None = None
_WORKER_BACKEND: CountingBackend | None = None
_WORKER_FAULT_PLAN: FaultPlan | None = None


def _init_worker(
    dataset: Dataset,
    config: MinerConfig,
    fault_plan: FaultPlan | None = None,
) -> None:
    global _WORKER_DATASET, _WORKER_CONFIG, _WORKER_BACKEND
    global _WORKER_FAULT_PLAN
    # A ChunkedView arrives as a tiny (path, chunk ids) pickle and
    # re-opens the store here — workers share chunk bytes through the
    # page cache instead of receiving the table itself.
    _WORKER_DATASET = dataset
    _WORKER_CONFIG = config
    _WORKER_BACKEND = backend_from_config(config, dataset)
    _WORKER_FAULT_PLAN = fault_plan


@dataclass
class _LevelTask:
    """One attribute combination to mine at the current level."""

    categorical: tuple[str, ...]
    continuous: tuple[str, ...]
    contexts: tuple[Itemset, ...]  # viable categorical contexts
    min_interest: float
    known_pure: tuple[Itemset, ...]
    alpha: float = 0.05
    """The level's Bonferroni-adjusted alpha (driver-computed, so every
    task at a level tests at exactly the serial engine's alpha)."""
    alpha_ladder: AlphaLadder | None = None
    """Snapshot of the driver's ladder; SDAD-CS registers its deeper split
    levels on the (pickled) copy, reproducing the serial values."""
    subset_patterns: dict[Itemset, ContrastPattern] = field(
        default_factory=dict
    )
    """Previous-level patterns for the immediate sub-itemsets of this
    task's candidates (the redundancy rule's lookups, pre-filtered by the
    driver so only the relevant slice is pickled)."""


@dataclass
class _TaskOutcome:
    patterns: list[ContrastPattern] = field(default_factory=list)
    pure_itemsets: list[Itemset] = field(default_factory=list)
    viable_contexts: list[Itemset] = field(default_factory=list)
    viable_patterns: list[ContrastPattern] = field(default_factory=list)
    """Patterns of the viable itemsets, in ``viable_contexts`` order; the
    driver indexes them for the next level's redundancy lookups."""
    stats: MiningStats = field(default_factory=MiningStats)
    prune_table: PruneTable = field(default_factory=PruneTable)


def _execute_task(
    task: _LevelTask,
    dataset: Dataset,
    config: MinerConfig,
    backend: CountingBackend,
) -> _TaskOutcome:
    """Mine one attribute combination (worker body and serial fallback).

    Candidates flow through the same :class:`PruningPipeline` lifecycle as
    the serial engine; the pipeline's stats and prune table travel back in
    the outcome for the driver to merge.  Each call uses a fresh pipeline
    and stats object, so a retried task reports exactly the counters a
    first-attempt execution would.
    """
    outcome = _TaskOutcome()
    stats = MiningStats()
    pipeline = PruningPipeline(config, stats=stats)
    known_pure = list(task.known_pure)

    if task.continuous:
        for context in task.contexts:
            result = sdad_cs(
                dataset,
                context,
                task.continuous,
                config,
                min_interest=task.min_interest,
                alpha_ladder=task.alpha_ladder,
                base_level=len(context),
                known_pure=known_pure,
                backend=backend,
                pipeline=pipeline,
            )
            outcome.patterns.extend(result.patterns)
            outcome.pure_itemsets.extend(result.pure_itemsets)
            # Later contexts of the same task see pures found by earlier
            # ones, mirroring the serial engine's in-level accumulation.
            known_pure.extend(result.pure_itemsets)
    else:
        # Categorical-only combination: evaluate value extensions of the
        # viable contexts over the final attribute.
        level = len(task.categorical)
        last = task.categorical[-1]
        attr = dataset.attribute(last)
        candidates = [
            context.with_item(CategoricalItem(last, value))
            for context in task.contexts
            for value in attr.categories
        ]
        stats.candidates_generated += len(candidates)
        # One batch per task, and a task is one attribute combination,
        # where the serial engine batches a whole run of combinations.
        # Every counter is a sum over candidates, so the merged totals
        # still equal the serial ones (DESIGN.md §12).
        evaluator = BatchEvaluator(dataset, pipeline, backend)
        results = evaluator.process_categorical_combo(
            candidates,
            alpha=task.alpha,
            level=level,
            subset_patterns=task.subset_patterns,
            known_pure=known_pure,
            threshold=task.min_interest,
        )
        for result in results:
            outcome.viable_contexts.append(result.itemset)
            outcome.viable_patterns.append(result.pattern)
            if result.is_pure:
                known_pure.append(result.itemset)
                outcome.pure_itemsets.append(result.itemset)
            if result.is_contrast:
                outcome.patterns.append(result.pattern)

    # Workers are long-lived; both publishes use delta semantics, so the
    # outcome carries only the counters accrued by THIS task.
    backend.publish(stats)
    pipeline.publish(stats)
    outcome.stats = stats
    outcome.prune_table = pipeline.prune_table
    return outcome


def _run_task(envelope: TaskEnvelope) -> object:
    """Pool entry point: apply any injected fault, then run the task.

    The envelope carries the task's global sequence number and attempt
    count so the worker-side :class:`FaultPlan` can fire deterministically
    (and stop firing once its configured attempt budget is spent).  The
    serial fallback in the driver bypasses this wrapper entirely — faults
    only ever hit the parallel path.
    """
    dataset, config = _WORKER_DATASET, _WORKER_CONFIG
    backend = _WORKER_BACKEND
    assert dataset is not None and config is not None and backend is not None
    corrupt = False
    if _WORKER_FAULT_PLAN is not None:
        spec = _WORKER_FAULT_PLAN.spec_for(envelope.seq, envelope.attempt)
        if spec is not None:
            corrupt = apply_fault(spec, envelope.seq, envelope.attempt)
    outcome = _execute_task(envelope.payload, dataset, config, backend)
    if corrupt:
        return CORRUPT_SENTINEL
    return outcome


class _SerialFallback:
    """Parent-process task runner used once parallel retries are spent.

    Builds its counting backend lazily (most runs never fall back) and
    keeps it across tasks, mirroring a worker's long-lived backend; the
    per-task pipeline/stats stay fresh so the outcome's counters are
    identical to a worker execution of the same task.
    """

    def __init__(self, dataset: Dataset, config: MinerConfig) -> None:
        self._dataset = dataset
        self._config = config
        self._backend: CountingBackend | None = None

    def __call__(self, task: _LevelTask) -> _TaskOutcome:
        if self._backend is None:
            self._backend = backend_from_config(self._config, self._dataset)
        return _execute_task(task, self._dataset, self._config, self._backend)


def _relevant_subsets(
    contexts: Sequence[Itemset],
    last: str,
    categories: Sequence[str],
    previous_patterns: Mapping[Itemset, ContrastPattern],
) -> dict[Itemset, ContrastPattern]:
    """The previous-level patterns a task's redundancy checks can reach.

    A candidate ``context + {last=value}`` probes its immediate
    sub-itemsets: the context itself, and (for each context attribute
    ``a``) ``context - a + {last=value}``.  Shipping just this slice keeps
    task pickles small while giving the worker the exact lookups the
    serial engine performs.
    """
    if not previous_patterns:
        return {}
    relevant: dict[Itemset, ContrastPattern] = {}
    for context in contexts:
        pattern = previous_patterns.get(context)
        if pattern is not None:
            relevant[context] = pattern
        for attribute in context.attributes:
            base = context.without_attribute(attribute)
            for value in categories:
                key = base.with_item(CategoricalItem(last, value))
                pattern = previous_patterns.get(key)
                if pattern is not None:
                    relevant[key] = pattern
    return relevant


def mine_level_tasks(
    dataset: Dataset,
    level: int,
    viable_by_prefix: dict[tuple[str, ...], list[Itemset]],
    min_interest: float,
    known_pure: Sequence[Itemset],
    attributes: Sequence[str] | None = None,
    *,
    config: MinerConfig | None = None,
    alpha: float | None = None,
    alpha_ladder: AlphaLadder | None = None,
    subset_patterns: Mapping[Itemset, ContrastPattern] | None = None,
) -> list[_LevelTask]:
    """Build the independent tasks for one level of the search tree.

    ``attributes`` optionally restricts the searched attributes (defaults
    to the full schema), mirroring the serial engine.  ``alpha`` is the
    level's test threshold; when omitted it is derived from the ladder
    exactly as the serial engine does (``alpha / 2^level`` split over the
    level's combination count).  ``subset_patterns`` is the previous
    level's itemset→pattern index for the redundancy rule.
    """
    names = (
        tuple(attributes) if attributes is not None else dataset.schema.names
    )
    config = config or MinerConfig()
    combos = list(itertools.combinations(names, level))
    ladder = (
        alpha_ladder
        if alpha_ladder is not None
        else AlphaLadder(config.alpha)
    )
    if alpha is None:
        alpha = (
            ladder.alpha_for_level(level, max(1, len(combos)))
            if config.use_bonferroni
            else config.alpha
        )
    previous_patterns = subset_patterns or {}
    known_pure = tuple(known_pure)
    tasks: list[_LevelTask] = []
    for combo in combos:
        categorical = tuple(
            a for a in combo if dataset.attribute(a).is_categorical
        )
        continuous = tuple(
            a for a in combo if dataset.attribute(a).is_continuous
        )
        if continuous:
            if categorical:
                contexts = tuple(viable_by_prefix.get(categorical, ()))
                if config.prune_pure_space and known_pure:
                    # A context inside a pure region cannot yield anything
                    # but redundant specialisations (serial engine's
                    # pure-context filter).
                    contexts = tuple(
                        c
                        for c in contexts
                        if not any(
                            p.region_subsumes(c) for p in known_pure
                        )
                    )
                if not contexts:
                    continue
            else:
                contexts = (Itemset(),)
            tasks.append(
                _LevelTask(
                    categorical,
                    continuous,
                    contexts,
                    min_interest,
                    known_pure,
                    alpha,
                    ladder,
                )
            )
        else:
            prefix = categorical[:-1]
            contexts = (
                (Itemset(),)
                if not prefix
                else tuple(viable_by_prefix.get(prefix, ()))
            )
            if not contexts:
                continue
            last = categorical[-1]
            tasks.append(
                _LevelTask(
                    categorical,
                    (),
                    contexts,
                    min_interest,
                    known_pure,
                    alpha,
                    ladder,
                    _relevant_subsets(
                        contexts,
                        last,
                        dataset.attribute(last).categories,
                        previous_patterns,
                    ),
                )
            )
    return tasks


def parallel_search(
    dataset: Dataset,
    config: MinerConfig | None = None,
    attributes: Sequence[str] | None = None,
    n_workers: int | None = None,
    *,
    checkpoint_dir: "str | os.PathLike | None" = None,
    resume_from: MiningCheckpoint | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[TopKList, MiningStats, int]:
    """Level-parallel search over a fault-tolerant process pool.

    Within a level every attribute-combination task runs independently
    through the shared pruning pipeline; between levels the shared top-k
    threshold, the viable categorical itemsets (with their patterns, for
    the redundancy rule), and the pure-itemset list are refreshed from the
    gathered results — the scheme the paper sketches for cluster
    execution.

    Dispatch runs through :class:`ResilientExecutor` under
    ``config.resilience``: crashed, hung, or poisoned tasks are retried
    with backoff and ultimately re-executed serially in this process, so
    the search completes (with identical patterns — outcomes are merged
    in task order regardless of completion order) even under worker
    failures.  With ``checkpoint_dir`` the full between-levels state is
    persisted after every level; ``resume_from`` restores such a
    checkpoint and continues at the next level.  ``fault_plan`` is the
    deterministic test hook injecting worker faults
    (:mod:`repro.resilience.inject`).

    Returns the top-k list, the accumulated stats (counting-backend
    counters, per-rule prune checks/hits/times, prune-table reason counts
    merged from every worker, and the retry/timeout/crash/fallback
    counters), and the worker count actually used.  Callers normally
    reach this through ``ContrastSetMiner.mine(..., n_jobs=N)``.
    """
    config = config or MinerConfig()
    n_workers = n_workers or max(1, (os.cpu_count() or 2) - 1)
    if attributes is not None:
        for name in attributes:
            dataset.attribute(name)  # validate

    if resume_from is not None:
        attributes = resume_from.attributes
        stats = resume_from.stats
        prune_table = resume_from.prune_table
        ladder = resume_from.ladder
        topk = resume_from.topk
        viable_by_prefix = resume_from.viable_by_prefix
        previous_patterns = resume_from.previous_patterns
        known_pure = resume_from.known_pure
        start_level = resume_from.completed_level + 1
        stats.resumed_from_level = resume_from.completed_level
    else:
        stats = MiningStats()
        from ..dataset.chunked import ChunkedView

        stats.counting_backend = (
            f"chunked+{config.counting_backend}"
            if isinstance(dataset, ChunkedView)
            else config.counting_backend
        )
        prune_table = PruneTable()
        ladder = AlphaLadder(config.alpha)
        topk = TopKList(config.k, config.delta)
        viable_by_prefix = {}
        previous_patterns = {}
        known_pure = []
        start_level = 1
    measure = measures.get(config.interest_measure)
    names = (
        tuple(attributes) if attributes is not None else dataset.schema.names
    )
    max_depth = min(config.max_tree_depth, len(names))

    executor = ResilientExecutor(
        pool_factory=lambda: ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(dataset, config, fault_plan),
        ),
        worker_fn=_run_task,
        serial_fn=_SerialFallback(dataset, config),
        policy=config.resilience,
        stats=stats,
        validate=lambda result: isinstance(result, _TaskOutcome),
    )
    task_seq = 0
    with Stopwatch(stats):
        try:
            for level in range(start_level, max_depth + 1):
                tasks = mine_level_tasks(
                    dataset,
                    level,
                    viable_by_prefix,
                    topk.threshold,
                    known_pure,
                    attributes=attributes,
                    config=config,
                    alpha_ladder=ladder,
                    subset_patterns=previous_patterns,
                )
                if not tasks:
                    break
                stats.nodes_expanded += math.comb(len(names), level)
                outcomes = executor.run(tasks, seq_base=task_seq)
                task_seq += len(tasks)
                next_viable: dict[tuple[str, ...], list[Itemset]] = {}
                next_patterns: dict[Itemset, ContrastPattern] = {}
                # Merge in task order — completion order (retries, pool
                # rebuilds) must never influence top-k tie-breaking.
                for task, outcome in zip(tasks, outcomes):
                    if outcome is None:
                        continue  # permanently failed; recorded in stats
                    stats.merge_from(outcome.stats)
                    prune_table.merge_from(outcome.prune_table)
                    for pattern in outcome.patterns:
                        topk.add(pattern, measure(pattern))
                    known_pure.extend(outcome.pure_itemsets)
                    if not task.continuous:
                        next_viable.setdefault(
                            task.categorical, []
                        ).extend(outcome.viable_contexts)
                        for pattern in outcome.viable_patterns:
                            next_patterns[pattern.itemset] = pattern
                viable_by_prefix.update(next_viable)
                previous_patterns = next_patterns
                if checkpoint_dir is not None:
                    save_checkpoint(
                        checkpoint_dir,
                        MiningCheckpoint(
                            config=config,
                            dataset=dataset,
                            completed_level=level,
                            attributes=(
                                tuple(attributes)
                                if attributes is not None
                                else None
                            ),
                            topk=topk,
                            viable_by_prefix=viable_by_prefix,
                            previous_patterns=previous_patterns,
                            known_pure=known_pure,
                            ladder=ladder,
                            stats=stats,
                            prune_table=prune_table,
                        ),
                    )
                    stats.checkpoints_written += 1
        finally:
            executor.shutdown()
    stats.prune_table_checks = prune_table.checks
    stats.prune_table_hits = prune_table.hits
    return topk, stats, n_workers
