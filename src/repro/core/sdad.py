"""SDAD-CS: Supervised Dynamic and Adaptive Discretization for Contrast
Sets (paper Algorithm 1).

Given a categorical context itemset ``c`` and one or more continuous
attributes ``ca``, SDAD-CS discovers contrast patterns whose items span all
of ``c``'s attributes plus every attribute in ``ca``:

1. *top-down* — split every continuous attribute at the median of the rows
   in the current region, form all ``2^|ca|`` combinations of the halves,
   evaluate each, and recurse into spaces whose optimistic estimate
   (Eq. 6-11) still beats the live top-k threshold;
2. *bottom-up* — merge contiguous spaces whose group distributions are not
   statistically different, smallest hyper-volume first, as long as the
   merged space remains a large and significant contrast.

The recursion adapts bin boundaries to the local region (and to the
categorical context), which is what lets it expose local multivariate
interactions that global discretizers miss (Sections 1 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..dataset.table import Dataset
from . import measures
from .batch import BatchEvaluator
from .config import MinerConfig
from .contrast import ContrastPattern
from .instrumentation import MiningStats
from .items import Itemset
from .optimistic import (
    support_difference_estimate,
    support_difference_estimate_batch,
)
from .partition import (
    Space,
    are_contiguous,
    find_combinations,
    full_space,
    merged_space,
    partition_median,
)
from .pipeline import PruningPipeline
from .pruning import PruneTable
from .stats import AlphaLadder, chi_square_independence

__all__ = ["SDADResult", "sdad_cs"]


@dataclass
class SDADResult:
    """Output of one SDAD-CS invocation."""

    patterns: list[ContrastPattern] = field(default_factory=list)
    pure_itemsets: list[Itemset] = field(default_factory=list)
    """Itemsets of spaces with PR = 1 — the outer search must not extend
    these with further attributes (pure-space pruning, Section 4.3)."""


class _SDADRun:
    """One top-level SDAD-CS call over a fixed attribute combination."""

    def __init__(
        self,
        dataset: Dataset,
        categorical: Itemset,
        continuous: Sequence[str],
        config: MinerConfig,
        min_interest: float,
        alpha_ladder: AlphaLadder,
        pipeline: PruningPipeline,
        base_level: int = 0,
        known_pure: Sequence[Itemset] = (),
        backend=None,
        evaluator: BatchEvaluator | None = None,
    ) -> None:
        self.dataset = dataset
        self.categorical = categorical
        self.continuous = tuple(continuous)
        self.config = config
        self.min_interest = min_interest
        self.ladder = alpha_ladder
        self.stats = pipeline.stats
        self.base_level = base_level
        self.known_pure = tuple(known_pure)
        if backend is None:
            # imported lazily to avoid a module cycle with repro.counting
            from ..counting import CountingBackend

            backend = CountingBackend(dataset)
        self.backend = backend
        self.measure = measures.get(config.interest_measure)
        # Vectorized per-frame driver (DESIGN.md §12).  The outer search
        # passes one long-lived evaluator so its dataset-level caches
        # (attribute ranges, root split points) span all runs.
        if evaluator is None:
            evaluator = BatchEvaluator(
                dataset, pipeline, self.backend, config.interest_measure
            )
        self.batch = evaluator
        self.result = SDADResult()
        self.pattern_level = base_level + len(self.continuous)
        self.root_intervals: dict[str, object] = {}
        self.all_contrasts: list[Space] = []
        self.root: Space | None = None

    # -- helpers ---------------------------------------------------------

    def _alpha(self, split_level: int) -> float:
        if not self.config.use_bonferroni:
            return self.config.alpha
        return self.ladder.alpha_for_level(self.base_level + split_level)

    def _pattern_of(self, space: Space) -> ContrastPattern:
        """Wrap a space as a pattern, dropping full-range numeric items.

        After merging, an attribute whose interval grew back to its entire
        observed range constrains nothing; keeping it would only create
        degenerate supersets of the same contrast (e.g. ``noise in
        [min, max] and x <= 5`` duplicating ``x <= 5``).  The SDAD-CS NP
        configuration keeps them: those degenerate variants are part of
        the redundant high-interest population the paper's no-pruning
        comparison deliberately retains.
        """
        itemset = self.categorical
        strip = not self.config.report_all_spaces
        for item in space.numeric_items():
            root = self.root_intervals.get(item.attribute)
            if strip and root is not None and item.interval == root:
                continue
            itemset = itemset.with_item(item)
        return ContrastPattern(
            itemset=itemset,
            counts=tuple(int(c) for c in space.counts),
            group_sizes=self.dataset.group_sizes,
            group_labels=self.dataset.group_labels,
            level=self.pattern_level,
            hypervolume=space.hypervolume,
        )

    def _split_spaces(self, spaces: Sequence[Space]) -> list[list[Space]]:
        """``partition`` + ``find_combs`` (Algorithm 1 lines 4-5) for each
        space, returning each space's children in ``spaces`` order.

        The splits sweep attribute by attribute over all the spaces, so
        a chunked view reads each attribute into its resident-column
        cache once per sweep, not once per space (DESIGN.md §13).  The
        order of the splits changes no child: ``find_combinations``
        orders the halves by ``space.attributes``, and it still runs
        once per space, in ``spaces`` order.  Each space's covered row
        offsets are computed by its first gather and serve its other
        attributes; the spaces are disjoint, so the sweep holds at most
        8 bytes of them per row, and drops them when it returns.  The
        root's split points come from the evaluator's memo, shared with
        every run over the same context (DESIGN.md §13).
        """
        splits: list[dict] = [{} for _ in spaces]
        offsets: list[list] = [[] for _ in spaces]
        for name in self.continuous:
            for space, found, rows in zip(spaces, splits, offsets):
                halves = partition_median(
                    self.dataset,
                    space,
                    name,
                    self.config.split_statistic,
                    offsets=rows,
                    split_points=(
                        self.batch.root_split_points(self.categorical)
                        if space is self.root
                        else None
                    ),
                )
                if halves is not None:
                    found[name] = halves
        return [
            find_combinations(space, found, self.backend)
            if found
            else []
            for space, found in zip(spaces, splits)
        ]

    # -- the recursion ----------------------------------------------------

    def run(self) -> SDADResult:
        self.stats.sdad_calls += 1
        # Packed per-chunk coverage of the categorical context; the
        # segments are lazy thunks, so chunks are only touched when the
        # recursion actually reads them.
        context_cover = (
            self.backend.cover_of(self.categorical)
            if len(self.categorical)
            else self.backend.full_cover()
        )
        root = full_space(
            self.dataset,
            self.continuous,
            context_cover,
            self.backend,
            ranges={
                name: self.batch.range_of(name) for name in self.continuous
            },
        )
        if root.total_count == 0:
            return self.result
        self.root = root
        self.root_intervals = dict(root.intervals)
        self.db_size = root.total_count
        found = self._explore(root, level=1, parent_measure=0.0)
        if self.config.merge and found:
            # Final cross-depth pass: spaces returned from different
            # recursion depths can still be contiguous along one axis
            # (Figure 2: the merged result spans splits of several depths).
            found = self._merge(found)
        patterns = [self._pattern_of(s) for s in found]
        if self.config.report_all_spaces:
            # SDAD-CS NP: additionally emit every contrast space seen
            # during the recursion (parents, Dtemp, unmerged children).
            seen = {p.itemset for p in patterns}
            for space in self.all_contrasts:
                pattern = self._pattern_of(space)
                if pattern.itemset not in seen:
                    seen.add(pattern.itemset)
                    patterns.append(pattern)
        self.result.patterns = patterns
        return self.result

    def _interest_of(self, space: Space) -> float:
        return self.measure(self._pattern_of(space))

    def _explore(
        self,
        region: Space,
        level: int,
        parent_measure: float,
        prefetched: tuple[list[Space], list] | None = None,
    ) -> list[Space]:
        """Recursive body of Algorithm 1.

        Returns contrast spaces found inside ``region``, already merged at
        this frame's granularity; empty when nothing inside beats
        ``parent_measure`` (the caller then considers ``region`` itself).

        The bottom-up merge (lines 26-29) runs in every frame over the
        frame's own contrast spaces before the parent-measure gate is
        applied: two pure sibling half-boxes may individually score below
        their parent yet merge into a region that clearly beats it (this
        is how the walkthrough of Figure 2 arrives at its final panel).

        ``prefetched`` carries this frame's child spaces and their
        verdicts when the parent frame already scored them as part of a
        sibling mega-batch (see below); every verdict is identical to
        what this frame would have computed itself.
        """
        if prefetched is not None:
            spaces, verdicts = prefetched
        else:
            spaces = self._split_spaces([region])[0]
            verdicts = None
        if not spaces:
            return []
        alpha = self._alpha(level)
        contrasts_here: list[Space] = []
        from_children: list[Space] = []

        # Whole-frame batch (Algorithm 1 line 7 for every sibling):
        # lookup table, rule chain, and verdicts in one array program.
        if verdicts is None:
            verdicts = self.batch.score_frames(
                [(spaces, region)],
                categorical=self.categorical,
                alpha=alpha,
                known_pure=self.known_pure,
                pattern_of=self._pattern_of,
            )[0]
        survivors = [
            (space, verdict)
            for space, verdict in zip(spaces, verdicts)
            if verdict is not None
        ]

        # First pass: verdict fields and the recursion decision per
        # surviving space.  Everything here is a pure function of the
        # space and run-frozen state, so hoisting it out of the recursion
        # loop changes no results.  Interests are memoized by object
        # identity — the Dtemp comparisons below would otherwise
        # re-derive them.
        interest_of: dict[int, float] = {}
        plans: list[tuple[Space, float, bool, bool, bool]] = []
        opt_ok = self._optimistic_allows_many(
            [space for space, _ in survivors], level
        )
        for k, (space, verdict) in enumerate(survivors):
            interest = (
                verdict.interest
                if verdict.interest is not None
                else self._interest_of(space)
            )
            interest_of[id(space)] = interest
            recurse = (
                level < self.config.max_split_depth
                and not (verdict.pure and self.config.prune_pure_space)
                and opt_ok[k]
            )
            plans.append(
                (space, interest, verdict.pure, verdict.is_contrast, recurse)
            )

        # Sibling prefetch: split every recursing sibling now and score
        # all their children as one mega-batch.  The child frames then
        # consume their precomputed verdicts in the exact DFS order
        # below — keys within a run are pairwise distinct and
        # known_pure/threshold are run-frozen, so every probe, rule
        # check, and stats increment lands exactly as the sequential
        # per-frame order would (sums and distinct-key table adds are
        # order-independent).
        prefetch: dict[int, tuple[list[Space], list]] = {}
        if level < self.config.max_split_depth:
            recursing = [plan[0] for plan in plans if plan[4]]
            if len(recursing) > 1:
                child_lists = self._split_spaces(recursing)
                frames = [
                    (children, space)
                    for space, children in zip(recursing, child_lists)
                    if children
                ]
                if frames:
                    frame_verdicts = self.batch.score_frames(
                        frames,
                        categorical=self.categorical,
                        alpha=self._alpha(level + 1),
                        known_pure=self.known_pure,
                        pattern_of=self._pattern_of,
                    )
                    for (children, space), verdict_list in zip(
                        frames, frame_verdicts
                    ):
                        prefetch[id(space)] = (children, verdict_list)
                for space, children in zip(recursing, child_lists):
                    if not children:
                        prefetch[id(space)] = ([], [])

        for space, interest, pure, is_contrast, recurse in plans:
            if is_contrast and self.config.report_all_spaces:
                # NP mode records every contrast space, including ones
                # later superseded by their children or left in Dtemp.
                self.all_contrasts.append(space)

            child_found: list[Space] = []
            if recurse:
                child_found = self._explore(
                    space,
                    level + 1,
                    parent_measure=interest,
                    prefetched=prefetch.get(id(space)),
                )
            if child_found:
                from_children.extend(child_found)
                continue

            if pure and is_contrast:
                self.result.pure_itemsets.append(
                    self._pattern_of(space).itemset
                )
            if is_contrast:
                contrasts_here.append(space)

        if self.config.merge and contrasts_here:
            contrasts_here = self._merge(contrasts_here)

        better: list[Space] = []
        deferred: list[Space] = []  # Dtemp
        for space in contrasts_here:
            interest = interest_of.get(id(space))
            if interest is None:  # merged spaces are new objects
                interest = self._interest_of(space)
            if interest > parent_measure:
                better.append(space)
            else:
                deferred.append(space)
        found = from_children + better
        if found:
            return found + deferred  # Algorithm 1 lines 22-23
        return []

    # Interest measures whose specialisations are bounded by the Eq. 6-11
    # support-difference estimate: the difference itself, and the
    # Surprising Measure (PR <= 1, so oe(PR x Diff) = oe(Diff), Sec. 4.2).
    _DIFF_BOUNDED_MEASURES = frozenset({"support_difference", "surprising"})

    def _optimistic_allows(self, space: Space, level: int) -> bool:
        """Gate one space on the Eq. 6-11 child-space estimate (lines
        12-13); the caller has checked that the gate applies."""
        estimate = support_difference_estimate(
            space.counts,
            self.dataset.group_sizes,
            self.db_size,
            level,
            len(self.continuous),
        )
        return estimate > self.min_interest

    def _optimistic_allows_many(
        self, spaces: list[Space], level: int
    ) -> list[bool]:
        """The Eq. 6-11 recursion gate per space, in one kernel call.

        Only applies to measures the estimate actually bounds; for purity
        ratio (which any space can drive to 1 in a small enough child) and
        other measures, no admissible interest-based bound exists and the
        recursion is gated by the other pruning rules alone.  The batch
        estimate is bit-identical per row to the scalar one, which a
        single space uses because it is cheaper there.
        """
        if not spaces:
            return []
        if (
            not self.config.prune_optimistic
            or self.config.interest_measure
            not in self._DIFF_BOUNDED_MEASURES
        ):
            return [True] * len(spaces)
        if len(spaces) == 1:
            return [self._optimistic_allows(spaces[0], level)]
        estimates = support_difference_estimate_batch(
            np.stack([space.counts for space in spaces]),
            self.dataset.group_sizes,
            self.db_size,
            level,
            len(self.continuous),
        )
        return [bool(e > self.min_interest) for e in estimates]

    # -- bottom-up merge ---------------------------------------------------

    def _merge(self, spaces: list[Space]) -> list[Space]:
        """Algorithm 1 lines 26-29: merge contiguous similar spaces,
        smallest first, while the result stays large and significant."""
        alpha = self._alpha(1)
        spaces = sorted(spaces, key=lambda s: s.hypervolume)
        merged_any = True
        while merged_any:
            merged_any = False
            for i in range(len(spaces)):
                for j in range(i + 1, len(spaces)):
                    combined = self._try_merge(spaces[i], spaces[j], alpha)
                    if combined is None:
                        continue
                    del spaces[j]
                    del spaces[i]
                    spaces.append(combined)
                    spaces.sort(key=lambda s: s.hypervolume)
                    self.stats.merges_performed += 1
                    merged_any = True
                    break
                if merged_any:
                    break
        return spaces

    def _try_merge(
        self, a: Space, b: Space, alpha: float
    ) -> Space | None:
        if not are_contiguous(a, b):
            return None
        # Similarity: are the two spaces' group distributions the same?
        table = np.vstack([a.counts, b.counts])
        similar = not chi_square_independence(table).significant_at(
            self.config.merge_alpha
        )
        if not similar:
            return None
        combined = merged_space(a, b)
        pattern = self._pattern_of(combined)
        if not pattern.is_contrast(self.config.delta, alpha):
            return None
        return combined


def sdad_cs(
    dataset: Dataset,
    categorical: Itemset,
    continuous: Sequence[str],
    config: MinerConfig | None = None,
    min_interest: float | None = None,
    alpha_ladder: AlphaLadder | None = None,
    stats: MiningStats | None = None,
    prune_table: PruneTable | None = None,
    base_level: int = 0,
    known_pure: Sequence[Itemset] = (),
    backend=None,
    pipeline: PruningPipeline | None = None,
    evaluator: BatchEvaluator | None = None,
) -> SDADResult:
    """Run SDAD-CS for one attribute combination.

    Parameters
    ----------
    dataset:
        The data restricted to the groups of interest.
    categorical:
        Fixed categorical context items (may be empty).
    continuous:
        Continuous attributes to discretize jointly (at least one).
    config:
        Miner configuration; defaults to the paper's setup.
    min_interest:
        Live top-k threshold (``min support`` in Algorithm 1); defaults to
        ``config.delta``.
    alpha_ladder / stats / prune_table / pipeline:
        Shared state when called from the outer search.  The search passes
        its :class:`PruningPipeline` (which owns stats and prune table);
        standalone callers may pass ``stats``/``prune_table`` and a fresh
        pipeline is built around them, publishing per-rule accounting into
        ``stats`` before returning.
    base_level:
        Search-tree level of the categorical context (for the Bonferroni
        ladder).
    known_pure:
        PR = 1 itemsets discovered earlier in the search; boxes inside
        those regions are pruned (pure-space pruning, Section 4.3).
    backend:
        Optional :class:`repro.counting.CountingBackend` that performs all
        support counting (context coverage and per-space group counts);
        defaults to a fresh one over ``dataset``.
    evaluator:
        Optional shared :class:`~repro.core.batch.BatchEvaluator` (built
        around the same pipeline and backend) so dataset-level caches
        survive across runs; a fresh one is built when omitted.

    Returns
    -------
    SDADResult
        Contrast patterns covering all requested attributes, plus the
        itemsets of pure (PR = 1) spaces for pure-space pruning upstream.
    """
    if not continuous:
        raise ValueError("sdad_cs needs at least one continuous attribute")
    for name in continuous:
        if not dataset.attribute(name).is_continuous:
            raise ValueError(f"attribute {name!r} is not continuous")
    config = config or MinerConfig()
    own_pipeline = pipeline is None
    if pipeline is None:
        pipeline = PruningPipeline(
            config,
            stats=stats if stats is not None else MiningStats(),
            prune_table=(
                prune_table if prune_table is not None else PruneTable()
            ),
        )
    run = _SDADRun(
        dataset,
        categorical,
        tuple(continuous),
        config,
        config.delta if min_interest is None else min_interest,
        alpha_ladder or AlphaLadder(config.alpha),
        pipeline,
        base_level=base_level,
        known_pure=known_pure,
        backend=backend,
        evaluator=evaluator,
    )
    result = run.run()
    if own_pipeline:
        pipeline.publish()
    return result
