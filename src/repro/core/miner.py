"""High-level mining facade.

:class:`ContrastSetMiner` ties together the level-wise search, SDAD-CS, the
top-k list, and the meaningfulness post-filters; it is the single public
entry point a downstream user calls::

    miner = ContrastSetMiner(MinerConfig(interest_measure="surprising"))
    result = miner.mine(dataset, groups=("Doctorate", "Bachelors"))
    for pattern in result.meaningful():
        print(pattern.describe())

Pass ``n_jobs > 1`` to the same call to run the level-parallel scheduler
(paper Section 6) instead of the serial engine — the result type is the
same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotation-only imports (resume/fault-plan plumbing)
    import os

    from ..resilience.inject import FaultPlan
    from ..serve.store import PatternStore

from ..dataset.table import Dataset
from .config import MinerConfig
from .contrast import ContrastPattern
from .instrumentation import MiningStats, Stopwatch
from .items import Itemset
from .meaningful import MeaningfulnessReport, classify_patterns
from .search import SearchEngine

__all__ = ["ContrastSetMiner", "MiningResult", "MiningSummary"]


@dataclass(frozen=True)
class MiningSummary:
    """Compact, printable digest of a mining run."""

    n_patterns: int
    n_rows: int
    n_groups: int
    group_labels: tuple[str, ...]
    partitions_evaluated: int
    spaces_pruned: int
    elapsed_seconds: float
    count_calls: int
    n_workers: int
    prune_rule_checks: dict[str, int] = field(default_factory=dict)
    """Per pipeline rule: candidates examined (serial and parallel runs
    report identical values for the same dataset and config)."""
    prune_rule_hits: dict[str, int] = field(default_factory=dict)
    """Per pipeline rule: candidates pruned."""
    prune_reasons: dict[str, int] = field(default_factory=dict)
    """Unique pruned keys per :class:`PruneReason` name."""
    n_task_retries: int = 0
    """Parallel tasks re-dispatched after a failed attempt."""
    n_task_timeouts: int = 0
    """Task attempts abandoned for exceeding the per-task budget."""
    n_worker_crashes: int = 0
    """Pool-breaking worker crashes survived during the run."""
    n_serial_fallbacks: int = 0
    """Tasks re-executed serially in the driver after exhausting retries."""
    n_tasks_failed: int = 0
    """Tasks that failed permanently (even the serial fallback)."""
    n_checkpoints: int = 0
    """Level-boundary checkpoints written during the run."""
    resumed_from_level: int = 0
    """Deepest completed level restored from a checkpoint (0 = fresh)."""
    batch_calls: int = 0
    """Batched counting sweeps (``group_counts_batch`` invocations plus
    fused SDAD-CS child-space counts)."""
    batched_candidates: int = 0
    """Candidates whose supports were counted through a batched sweep
    (each also bumps ``count_calls``)."""
    batch_fallbacks: int = 0
    """Batched candidates counted one by one on their packed covers
    (itemsets with a numeric item, or over the table bound)."""


@dataclass
class MiningResult:
    """Everything a mining run produced."""

    patterns: list[ContrastPattern]
    interests: dict[Itemset, float]
    stats: MiningStats
    config: MinerConfig
    dataset: Dataset
    n_workers: int = 1
    run_id: str | None = None
    """Id the run was stored under when ``mine(..., store=)`` published
    it to a :class:`~repro.serve.PatternStore`; ``None`` otherwise."""

    def top(self, n: int | None = None) -> list[ContrastPattern]:
        """The best ``n`` patterns by the configured interest measure."""
        return self.patterns if n is None else self.patterns[:n]

    def interest_of(self, pattern: ContrastPattern) -> float:
        return self.interests[pattern.itemset]

    def summary(self) -> MiningSummary:
        """Stats and row counts of the run in one small dataclass."""
        return MiningSummary(
            n_patterns=len(self.patterns),
            n_rows=self.dataset.n_rows,
            n_groups=self.dataset.n_groups,
            group_labels=tuple(self.dataset.group_labels),
            partitions_evaluated=self.stats.partitions_evaluated,
            spaces_pruned=self.stats.spaces_pruned,
            elapsed_seconds=self.stats.elapsed_seconds,
            count_calls=self.stats.count_calls,
            n_workers=self.n_workers,
            prune_rule_checks=dict(self.stats.prune_rule_checks),
            prune_rule_hits=dict(self.stats.prune_rule_hits),
            prune_reasons=dict(self.stats.prune_reasons),
            n_task_retries=self.stats.tasks_retried,
            n_task_timeouts=self.stats.task_timeouts,
            n_worker_crashes=self.stats.worker_crashes,
            n_serial_fallbacks=self.stats.serial_fallbacks,
            n_tasks_failed=self.stats.tasks_failed,
            n_checkpoints=self.stats.checkpoints_written,
            resumed_from_level=self.stats.resumed_from_level,
            batch_calls=self.stats.batch_calls,
            batched_candidates=self.stats.batched_candidates,
            batch_fallbacks=self.stats.batch_fallbacks,
        )

    def explain_prunes(self) -> str:
        """Per-rule pruning report (the CLI's ``--explain-prunes``)."""
        from .pipeline import format_prune_report

        return format_prune_report(self.stats)

    def meaningfulness(
        self, alpha: float | None = None
    ) -> MeaningfulnessReport:
        """Classify the result patterns (redundant / unproductive / not
        independently productive)."""
        alpha = self.config.alpha if alpha is None else alpha
        return classify_patterns(self.patterns, self.dataset, alpha)

    def meaningful(
        self, alpha: float | None = None
    ) -> list[ContrastPattern]:
        """Only the meaningful patterns (paper's headline output)."""
        return self.meaningfulness(alpha).meaningful_patterns()

    def __len__(self) -> int:
        return len(self.patterns)


class ContrastSetMiner:
    """Contrast-set miner for mixed data (SDAD-CS + meaningful filters)."""

    def __init__(self, config: MinerConfig | None = None) -> None:
        self.config = config or MinerConfig()

    def mine(
        self,
        dataset: Dataset,
        groups: Sequence[str] | None = None,
        attributes: Sequence[str] | None = None,
        n_jobs: int = 1,
        *,
        checkpoint_dir: "str | os.PathLike | None" = None,
        fault_plan: "FaultPlan | None" = None,
        store: "PatternStore | None" = None,
        store_tags: Sequence[str] = (),
    ) -> MiningResult:
        """Mine contrast patterns between groups of a dataset.

        Parameters
        ----------
        dataset:
            The data.  If it has more than the groups of interest, pass
            ``groups`` to narrow it first.
        groups:
            Optional pair (or more) of group labels to contrast; defaults
            to all groups in the dataset.
        attributes:
            Optional subset of attributes to search over; defaults to all.
        n_jobs:
            Number of worker processes.  ``1`` (the default) runs the
            serial engine; ``> 1`` routes through the level-parallel
            scheduler of :mod:`repro.parallel`, which can evaluate
            slightly more partitions (some cross-subtree pruning is lost
            within a level) while producing the same contrasts.
        checkpoint_dir:
            Persist the full between-levels state here after every
            completed level, for :meth:`resume`.  Checkpointing runs
            through the level-wise scheduler, so passing this with
            ``n_jobs=1`` still uses a (one-worker) pool; the patterns are
            identical to the serial engine's either way.
        fault_plan:
            Deterministic fault-injection plan
            (:class:`repro.resilience.FaultPlan`) — a test hook that
            crashes, hangs, poisons, or corrupts chosen worker tasks to
            exercise the retry/fallback machinery.
        store:
            Optional :class:`~repro.serve.PatternStore`: publish the
            finished run durably before returning.  The assigned run id
            lands in ``MiningResult.run_id`` so a pipeline can hand it
            straight to a :class:`~repro.serve.PatternServer`.
        store_tags:
            Free-form tags recorded with the stored run (only meaningful
            together with ``store``).
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        from ..dataset.chunked import ChunkedDataset

        if isinstance(dataset, ChunkedDataset):
            # Mine an out-of-core store through its lazy Dataset facade:
            # same search, same statistics, chunk-aware counting.  The
            # view pins the store's current chunk list, so appends made
            # while this run is in flight do not shift its input.
            dataset = dataset.view()
        if groups is not None:
            dataset = dataset.select_groups(groups)
        if dataset.n_groups < 2:
            raise ValueError("contrast mining needs at least two groups")
        if n_jobs > 1 or checkpoint_dir is not None or fault_plan is not None:
            # imported lazily: repro.parallel pulls in multiprocessing
            # machinery serial users never need
            from ..parallel.scheduler import parallel_search

            topk, stats, n_workers = parallel_search(
                dataset,
                self.config,
                attributes,
                n_jobs,
                checkpoint_dir=checkpoint_dir,
                fault_plan=fault_plan,
            )
        else:
            engine = SearchEngine(dataset, self.config, attributes)
            with Stopwatch(engine.stats):
                topk = engine.run()
            stats, n_workers = engine.stats, 1
        result = MiningResult(
            patterns=topk.patterns(),
            interests=topk.interests(),
            stats=stats,
            config=self.config,
            dataset=dataset,
            n_workers=n_workers,
        )
        if store is not None:
            result.run_id = store.put(result, tags=store_tags)
        return result

    def resume(
        self,
        checkpoint: "str | os.PathLike",
        dataset: Dataset | None = None,
        n_jobs: int = 1,
        *,
        checkpoint_dir: "str | os.PathLike | None" = None,
    ) -> MiningResult:
        """Resume an interrupted run from a level-boundary checkpoint.

        ``checkpoint`` is a checkpoint file or a directory holding them
        (the deepest level wins).  The restored state — top-k list, alpha
        ladder, viable itemsets, pure registry, stats, prune table — is
        exactly what the interrupted run held between levels, so the
        completed result matches an uninterrupted run bit-for-bit
        (patterns *and* prune accounting).

        The checkpoint's own dataset snapshot is mined (it is part of the
        state); pass ``dataset`` to additionally assert the checkpoint
        belongs to the data you think it does.  A checkpoint written
        under a different :class:`MinerConfig` raises
        :class:`~repro.resilience.CheckpointError`.  Pass
        ``checkpoint_dir`` to keep writing new checkpoints while
        finishing the run.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        from ..parallel.scheduler import parallel_search
        from ..resilience.checkpoint import (
            ensure_compatible,
            load_checkpoint,
        )

        state = load_checkpoint(checkpoint)
        ensure_compatible(state, config=self.config, dataset=dataset)
        topk, stats, n_workers = parallel_search(
            state.dataset,
            self.config,
            state.attributes,
            n_jobs,
            checkpoint_dir=checkpoint_dir,
            resume_from=state,
        )
        return MiningResult(
            patterns=topk.patterns(),
            interests=topk.interests(),
            stats=stats,
            config=self.config,
            dataset=state.dataset,
            n_workers=n_workers,
        )
