"""The batch evaluation engine: whole candidate levels as array programs.

Evaluating one candidate at a time costs one backend counting call, one
pass down the rule chain, and one verdict — a handful of numpy calls on
tiny arrays, where the fixed per-call overhead dominates the arithmetic.

:class:`BatchEvaluator` is the miners' one path from candidate to
verdict, built around *batches*: all candidates of one run of
categorical attribute combinations at a level — or the child spaces of
one recursion level of an SDAD-CS run — become a single
``(N, n_groups)`` counts matrix that flows through

* :meth:`repro.counting.CountingBackend.group_counts_batch` (one stacked
  counting sweep instead of N calls),
* :meth:`repro.core.pipeline.PruningPipeline.evaluate_batch` (each rule
  judges the whole batch through its vectorized ``check_batch``), and
* vectorized verdict kernels (interest measure, purity, the
  large-and-significant contrast test).

Every kernel is bit-identical to its scalar counterpart applied row by
row (pinned by ``tests/test_batch_equivalence.py``), and the pipeline's
accounting is summed exactly as a per-candidate short-circuit order
would, so patterns and ``--explain-prunes`` output match the frozen
per-candidate reference in ``tests/data/golden_accounting.json``.

See DESIGN.md §12 for the protocol and fallback semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import measures
from .config import MinerConfig
from .contrast import ContrastPattern
from .items import Itemset
from .pipeline import (
    PHASE_SPACE,
    CandidateOutcome,
    EvaluationBatch,
    EvaluationContext,
    PruningPipeline,
)
from .pruning import is_pure_space, is_pure_space_batch
from .stats import (
    chi_square_counts_batch,
    contingency_from_counts,
    fisher_exact_2x2,
    min_expected_count_batch,
)

__all__ = ["BatchEvaluator", "SpaceVerdict"]


@dataclass(frozen=True)
class SpaceVerdict:
    """Vectorized per-space verdicts for one surviving SDAD-CS child.

    ``interest`` is ``None`` when the configured measure has no batch
    form (``wracc``/``leverage``/``lift``); the caller then evaluates the
    scalar measure on the materialised pattern.
    """

    interest: float | None
    pure: bool
    is_contrast: bool


class BatchEvaluator:
    """Drives candidate batches through counting, pruning, and verdicts.

    One evaluator is built per mining run (or per parallel worker task)
    around the run's shared :class:`PruningPipeline` and counting
    backend.  It never changes *what* is computed — only how many
    candidates each numpy call touches.
    """

    def __init__(
        self,
        dataset,
        pipeline: PruningPipeline,
        backend,
        measure: str | None = None,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.config: MinerConfig = pipeline.config
        self.backend = backend
        self.group_sizes: tuple[int, ...] = tuple(dataset.group_sizes)
        self.group_labels: tuple[str, ...] = tuple(dataset.group_labels)
        self._sizes_i = np.asarray(self.group_sizes, dtype=np.int64)
        self._sizes_f = np.asarray(self.group_sizes, dtype=np.float64)
        self.measure_name = measure
        self.measure_batch = (
            measures.get_batch(measure) if measure is not None else None
        )
        self._ranges: dict[str, object] = {}
        self._root_splits: dict[Itemset, dict[str, float | None]] = {}

    def range_of(self, attribute: str):
        """Cached :class:`~repro.core.partition.AttributeRange`.

        The observed [min, max] of a column is a whole-dataset property —
        independent of the categorical context — so one evaluator shared
        across SDAD-CS runs computes it once per attribute instead of
        once per run.
        """
        rng = self._ranges.get(attribute)
        if rng is None:
            from .partition import AttributeRange

            rng = AttributeRange.of(self.dataset, attribute)
            self._ranges[attribute] = rng
        return rng

    def root_split_points(self, context: Itemset) -> dict[str, float | None]:
        """Memo of the root split points of SDAD-CS runs over ``context``,
        by attribute (``None`` where the root cannot be split).

        A root is the context's cover over every attribute's full
        [min, max] (:meth:`range_of`), so its split of one attribute
        depends only on the context and the attribute, never on the
        run's other attributes.  Every run over ``context`` sharing this
        evaluator, and so its config's split statistic, reads and fills
        the same memo through
        :func:`~repro.core.partition.partition_median`.  It holds one
        float per (context, attribute) and no cover.
        """
        return self._root_splits.setdefault(context, {})

    # ------------------------------------------------------------------
    # Shared verdict kernel
    # ------------------------------------------------------------------

    def _is_contrast_rows(
        self, counts: np.ndarray, alpha: float
    ) -> np.ndarray:
        """``ContrastPattern.is_contrast(delta, alpha)`` per counts row.

        Mirrors the scalar short-circuit exactly: the largeness test
        (Eq. 2) runs first, and significance (Eq. 3) is only computed for
        large rows — chi-square for the batch, with the per-row Fisher
        exact fallback for two-group tables with an expected cell below
        5, precisely the scalar ``significance_p_value`` dispatch.
        """
        counts = np.asarray(counts, dtype=np.int64)
        n, g = counts.shape
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        sizes = self._sizes_f
        sup = np.divide(
            counts.astype(np.float64), sizes[None, :],
            out=np.zeros((n, g), dtype=np.float64),
            where=(sizes > 0)[None, :],
        )
        large = (sup.max(axis=1) - sup.min(axis=1)) > self.config.delta
        if not large.any():
            return out
        idx = np.flatnonzero(large)
        sub = counts[idx]
        _, p_values, _ = chi_square_counts_batch(sub, self._sizes_i)
        if g == 2:
            min_exp = min_expected_count_batch(sub, self._sizes_i)
            for j in np.flatnonzero(min_exp < 5.0):
                table = contingency_from_counts(
                    sub[j], self._sizes_i
                ).astype(int)
                p_values[j] = fisher_exact_2x2(table)
        out[idx] = p_values < alpha
        return out

    # ------------------------------------------------------------------
    # Categorical itemset batches (level-wise search / parallel workers)
    # ------------------------------------------------------------------

    def process_categorical_combo(
        self,
        candidates: Sequence[Itemset],
        *,
        alpha: float,
        level: int,
        subset_patterns: Mapping[Itemset, ContrastPattern],
        known_pure: Sequence[Itemset],
        threshold: float = 0.0,
    ) -> list[CandidateOutcome]:
        """Candidates of one or more categorical combinations, batched.

        Returns the surviving candidates' outcomes in candidate order.
        Each candidate is probed in the lookup table, then judged by the
        pattern-free rules (pure-space) before counting, and by the
        remaining rules after.  Candidate keys are distinct, within a
        combination and across combinations, so probing the lookup table
        for all of them up front sees the same table state a
        one-at-a-time order would.  ``subset_patterns`` is the previous
        level's pattern map, which the redundancy rule searches for each
        candidate's leave-one-out subsets.
        """
        pipeline = self.pipeline
        config = self.config
        fresh = [its for its in candidates if not pipeline.seen(its)]
        if not fresh:
            return []

        def precheck_context(i: int) -> EvaluationContext:
            return EvaluationContext(
                key=fresh[i],
                config=config,
                alpha=alpha,
                level=level,
                itemset=fresh[i],
                known_pure=known_pure,
                threshold=threshold,
            )

        precheck = EvaluationBatch(
            keys=fresh,
            config=config,
            alpha=alpha,
            level=level,
            threshold=threshold,
            known_pure=known_pure,
            context_factory=precheck_context,
        )
        keep = pipeline.evaluate_batch(precheck, pattern_free_only=True)
        survivors = [its for its, kept in zip(fresh, keep) if kept]
        if not survivors:
            return []
        pipeline.stats.partitions_evaluated += len(survivors)
        counts = self.backend.group_counts_batch(survivors)

        sizes = self.group_sizes
        labels = self.group_labels
        patterns: dict[int, ContrastPattern] = {}

        def pattern_at(i: int) -> ContrastPattern:
            pattern = patterns.get(i)
            if pattern is None:
                pattern = patterns[i] = ContrastPattern(
                    itemset=survivors[i],
                    counts=tuple(int(c) for c in counts[i]),
                    group_sizes=sizes,
                    group_labels=labels,
                    level=level,
                )
            return pattern

        def evaluate_context(i: int) -> EvaluationContext:
            itemset = survivors[i]

            def subsets() -> list[ContrastPattern]:
                found = []
                for attribute in itemset.attributes:
                    subset = subset_patterns.get(
                        itemset.without_attribute(attribute)
                    )
                    if subset is not None:
                        found.append(subset)
                return found

            return EvaluationContext(
                key=itemset,
                config=config,
                alpha=alpha,
                level=level,
                itemset=itemset,
                known_pure=known_pure,
                threshold=threshold,
                counts=tuple(int(c) for c in counts[i]),
                group_sizes=sizes,
                total_count=int(counts[i].sum()),
                pattern_factory=lambda: pattern_at(i),
                subsets_factory=subsets,
            )

        batch = EvaluationBatch(
            keys=survivors,
            config=config,
            alpha=alpha,
            level=level,
            threshold=threshold,
            known_pure=known_pure,
            counts=counts,
            group_sizes=sizes,
            subset_patterns=subset_patterns,
            context_factory=evaluate_context,
        )
        kept_mask = pipeline.evaluate_batch(batch, skip_pattern_free=True)
        kept_idx = np.flatnonzero(kept_mask)
        if kept_idx.size == 0:
            return []
        flags = self._is_contrast_rows(counts[kept_idx], alpha)
        outcomes: list[CandidateOutcome] = []
        for flag, i in zip(flags, kept_idx):
            i = int(i)
            pattern = pattern_at(i)
            is_contrast = bool(flag)
            is_pure = bool(
                config.prune_pure_space
                and is_contrast
                and is_pure_space(pattern.counts)
            )
            outcomes.append(
                CandidateOutcome(survivors[i], pattern, is_contrast, is_pure)
            )
        return outcomes

    # ------------------------------------------------------------------
    # SDAD-CS space batches (one recursion frame)
    # ------------------------------------------------------------------

    def score_spaces(
        self,
        spaces: Sequence,
        *,
        categorical: Itemset,
        alpha: float,
        level: int,
        threshold: float,
        known_pure: Sequence[Itemset],
        region,
        pattern_of: Callable[[object], ContrastPattern],
    ) -> list[SpaceVerdict | None]:
        """One SDAD-CS frame's child spaces, batched.

        Convenience wrapper over :meth:`score_frames` for a single
        (parent region, child spaces) frame.
        """
        return self.score_frames(
            [(spaces, region)],
            categorical=categorical,
            alpha=alpha,
            level=level,
            threshold=threshold,
            known_pure=known_pure,
            pattern_of=pattern_of,
        )[0]

    def score_frames(
        self,
        frames: Sequence[tuple[Sequence, object]],
        *,
        categorical: Itemset,
        alpha: float,
        level: int,
        threshold: float,
        known_pure: Sequence[Itemset],
        pattern_of: Callable[[object], ContrastPattern],
    ) -> list[list[SpaceVerdict | None]]:
        """Several SDAD-CS frames' child spaces as one batch.

        ``frames`` is a sequence of ``(child_spaces, parent_region)``
        pairs sharing one categorical context, split alpha, and frozen
        threshold/known-pure state — exactly the sibling frames of one
        recursion level of a run.  Returns one verdict list per frame,
        each aligned with its spaces: ``None`` where the space was pruned
        (lookup table or rule chain — already recorded), a
        :class:`SpaceVerdict` where it survived.

        Boxes within a run are pairwise distinct (median splits strictly
        shrink the split axis, and sibling subtrees occupy disjoint
        intervals of the axis their parents split), so the lookup-table
        probes see the same state a one-at-a-time order would; every
        space-phase rule reads only run-frozen state, and the redundancy
        rule receives each child's own parent via per-frame groups.
        ``pattern_of`` is the run's ``_pattern_of``, invoked lazily: once
        per parent whose direction the redundancy rule needs, and per
        space only when a scalar-fallback rule asks.
        """
        pipeline = self.pipeline
        config = self.config
        spaces_flat: list = []
        frame_of: list[int] = []
        for f, (spaces, _region) in enumerate(frames):
            spaces_flat.extend(spaces)
            frame_of.extend([f] * len(spaces))
        verdicts: list[SpaceVerdict | None] = [None] * len(spaces_flat)
        keys = [(categorical, space.key()) for space in spaces_flat]
        fresh_idx = [
            i for i, key in enumerate(keys) if not pipeline.seen(key)
        ]
        if fresh_idx:
            self._score_fresh(
                frames,
                spaces_flat,
                frame_of,
                keys,
                fresh_idx,
                verdicts,
                categorical=categorical,
                alpha=alpha,
                level=level,
                threshold=threshold,
                known_pure=known_pure,
                pattern_of=pattern_of,
            )
        out: list[list[SpaceVerdict | None]] = []
        start = 0
        for spaces, _region in frames:
            out.append(verdicts[start : start + len(spaces)])
            start += len(spaces)
        return out

    def _score_fresh(
        self,
        frames,
        spaces_flat,
        frame_of,
        keys,
        fresh_idx,
        verdicts,
        *,
        categorical,
        alpha,
        level,
        threshold,
        known_pure,
        pattern_of,
    ) -> None:
        pipeline = self.pipeline
        config = self.config
        counts = np.stack(
            [
                np.asarray(spaces_flat[i].counts, dtype=np.int64)
                for i in fresh_idx
            ]
        )
        sizes = self.group_sizes

        subset_cache: dict[int, ContrastPattern | None] = {}

        def subset_of(f: int) -> ContrastPattern | None:
            # A parent with no rows carries no usable direction, so no
            # subset is offered to the rule.
            if f not in subset_cache:
                region = frames[f][1]
                subset_cache[f] = (
                    pattern_of(region) if region.total_count > 0 else None
                )
            return subset_cache[f]

        batch_frame = np.asarray(
            [frame_of[i] for i in fresh_idx], dtype=np.int64
        )
        groups = []
        for f in range(len(frames)):
            rows = np.flatnonzero(batch_frame == f)
            if rows.size:
                groups.append((rows, lambda f=f: subset_of(f)))

        def space_context(j: int) -> EvaluationContext:
            i = fresh_idx[j]
            space = spaces_flat[i]
            f = frame_of[i]

            def subsets() -> tuple:
                subset = subset_of(f)
                return (subset,) if subset is not None else ()

            return EvaluationContext(
                key=keys[i],
                config=config,
                alpha=alpha,
                level=level,
                phase=PHASE_SPACE,
                threshold=threshold,
                known_pure=known_pure,
                counts=space.counts,
                group_sizes=sizes,
                total_count=space.total_count,
                itemset_factory=lambda: space.itemset_with(categorical),
                pattern_factory=lambda: pattern_of(space),
                subsets_factory=subsets,
            )

        batch = EvaluationBatch(
            keys=[keys[i] for i in fresh_idx],
            config=config,
            alpha=alpha,
            phase=PHASE_SPACE,
            level=level,
            threshold=threshold,
            known_pure=known_pure,
            counts=counts,
            group_sizes=sizes,
            spaces=[spaces_flat[i] for i in fresh_idx],
            categorical=categorical,
            context_factory=space_context,
            shared_subset_groups=groups,
        )
        kept_mask = pipeline.evaluate_batch(batch)
        kept = np.flatnonzero(kept_mask)
        pipeline.stats.partitions_evaluated += int(kept.size)
        if kept.size == 0:
            return
        sub = counts[kept]
        interests = (
            self.measure_batch(sub, sizes)
            if self.measure_batch is not None
            else None
        )
        pures = is_pure_space_batch(sub)
        flags = self._is_contrast_rows(sub, alpha)
        for j, k in enumerate(kept):
            verdicts[fresh_idx[int(k)]] = SpaceVerdict(
                float(interests[j]) if interests is not None else None,
                bool(pures[j]),
                bool(flags[j]),
            )
