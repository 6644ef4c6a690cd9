"""The shared candidate lifecycle: one pruning pipeline for every miner.

Historically each consumer of the paper's pruning strategies (the
level-wise :class:`~repro.core.search.SearchEngine`, the SDAD-CS
recursion, the parallel worker loop, and the STUCCO baseline) hand-copied
the same ordered rule sequence with its own ``PruneTable`` and
``MiningStats`` wiring.  That duplication made per-rule effectiveness
unmeasurable (the paper's Table 4-style ablation) and let the serial and
parallel paths drift apart — the parallel categorical branch was missing
the optimistic and redundancy rules entirely and used a looser alpha.

This module makes candidate evaluation first-class:

* :class:`EvaluationBatch` — everything a rule may need to judge N
  candidates at once: their keys, the stacked per-group counts, the
  alpha, subset patterns for the redundancy test, and the pure-region
  registry.
* :class:`PruneRule` — one pruning strategy as an object: a stable name,
  the :class:`PruneReason` it records, an enablement predicate over
  :class:`MinerConfig` (which is how the SDAD-CS NP ablation flags keep
  working), and the batch check itself.
* :class:`PruningPipeline` — the ordered, config-driven chain.  It owns
  the prune lookup table and the run's :class:`MiningStats`, counts
  per-rule checks/hits/wall-time, and records every decision, so serial,
  parallel, and out-of-core runs produce identical prune accounting.

The canonical rule order is the one the paper's cost argument implies:
cheap anti-monotone rules (empty, pure-space, minimum deviation,
expected count) run before the chi-square optimistic gate and the CLT
redundancy test, which both cost a statistics evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from scipy import stats as _scipy_stats

from .config import MinerConfig
from .contrast import ContrastPattern
from .instrumentation import MiningStats
from .items import CategoricalItem, Itemset, NumericItem
from .optimistic import chi_square_estimate_batch
from .pruning import PruneReason, PruneTable, redundant_against_subset_batch

__all__ = [
    "EvaluationBatch",
    "PruneRule",
    "EmptyRule",
    "PureSpaceRule",
    "MinimumDeviationRule",
    "ExpectedCountRule",
    "OptimisticChiSquareRule",
    "RedundancyRule",
    "PruningPipeline",
    "RuleStats",
    "CandidateOutcome",
    "default_rules",
    "format_prune_report",
]

#: Candidate phases.  ``itemset`` candidates are categorical itemsets from
#: the level-wise search (and STUCCO); ``space`` candidates are the numeric
#: boxes of the SDAD-CS recursion.  Some rules only apply to one phase —
#: the chi-square optimistic gate, for instance, bounds categorical
#: specialisations, while SDAD-CS recursion is gated by the Eq. 6-11
#: support-difference estimate instead.
PHASE_ITEMSET = "itemset"
PHASE_SPACE = "space"


@lru_cache(maxsize=4096)
def chi2_critical(alpha: float, dof: int) -> float:
    """Memoized chi-square critical value.

    The optimistic-estimate gate needs the same (alpha, dof) quantile for
    every candidate at a level; caching keeps the scipy call off the hot
    path without changing any result.
    """
    return float(_scipy_stats.chi2.isf(alpha, dof))


class EvaluationBatch:
    """Candidates sharing one alpha as a single array program.

    An itemset-phase batch holds a run of categorical combinations of one
    search level (or one STUCCO level); a space-phase batch holds the
    sibling frames of one recursion level of an SDAD-CS run.  It carries
    the stacked ``(N, n_groups)`` counts matrix, the shared alpha and
    config, and lazily-derived arrays (totals, supports) the rules share.

    ``counts`` may be ``None`` for the pre-counting batch (pattern-free
    rules only).  The redundancy rule's subsets come from
    ``subset_patterns`` in the itemset phase (the previous level's
    pattern map, searched for each candidate's leave-one-out subsets;
    the keys are then the candidate itemsets) and from
    ``shared_subset_groups`` in the space phase (each frame's rows and
    its lazy parent-region pattern).  ``spaces``/``categorical`` carry
    the SDAD-CS frame's boxes and shared categorical context so
    space-geometry rules (pure-space subsumption) can run without
    materialising per-candidate itemsets.
    """

    __slots__ = (
        "keys",
        "phase",
        "config",
        "alpha",
        "known_pure",
        "counts",
        "group_sizes",
        "spaces",
        "categorical",
        "subset_patterns",
        "shared_subset_groups",
        "_sizes_f",
        "_totals",
        "_supports",
    )

    def __init__(
        self,
        *,
        keys: Sequence[Hashable],
        config: MinerConfig,
        alpha: float,
        phase: str = PHASE_ITEMSET,
        known_pure: Sequence[Itemset] = (),
        counts: np.ndarray | None = None,
        group_sizes: Sequence[int] | None = None,
        spaces: Sequence | None = None,
        categorical: Itemset | None = None,
        subset_patterns: Mapping[Itemset, ContrastPattern] | None = None,
        shared_subset_groups: Sequence[
            tuple[np.ndarray, Callable[[], ContrastPattern | None]]
        ]
        | None = None,
    ) -> None:
        self.keys = list(keys)
        self.phase = phase
        self.config = config
        self.alpha = alpha
        self.known_pure = known_pure
        self.spaces = spaces
        self.categorical = categorical
        self.subset_patterns = subset_patterns
        # (row positions, lazy parent pattern) per SDAD-CS frame, so the
        # redundancy rule can compare each child against its own parent
        # region.
        self.shared_subset_groups = shared_subset_groups
        self.counts = (
            None if counts is None else np.asarray(counts, dtype=np.int64)
        )
        self.group_sizes = (
            tuple(group_sizes) if group_sizes is not None else None
        )
        self._sizes_f = None
        self._totals = None
        self._supports = None

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def sizes_f(self) -> np.ndarray:
        if self._sizes_f is None:
            self._sizes_f = np.asarray(self.group_sizes, dtype=np.float64)
        return self._sizes_f

    @property
    def totals(self) -> np.ndarray:
        """Per-candidate covered-row totals (int64)."""
        if self._totals is None:
            self._totals = self.counts.sum(axis=1)
        return self._totals

    @property
    def supports(self) -> np.ndarray:
        """Per-candidate support rows — exactly
        ``ContrastPattern.supports`` per element (Eq. 1)."""
        if self._supports is None:
            counts = self.counts.astype(np.float64)
            sizes = self.sizes_f
            self._supports = np.divide(
                counts, sizes[None, :], out=np.zeros_like(counts),
                where=(sizes > 0)[None, :],
            )
        return self._supports


class PruneRule:
    """One pruning strategy of Sections 3/4.3 as a pipeline stage.

    Subclasses define the stable ``name`` (the per-rule stats key), the
    :class:`PruneReason` recorded in the lookup table, whether the rule
    needs the candidate's evaluated pattern/counts (``needs_pattern`` —
    pattern-free rules can run before support counting), and optionally
    the candidate phases it applies to.

    :meth:`check_batch` is the whole protocol: a rule judges an
    :class:`EvaluationBatch` as one boolean mask, and every subclass,
    built-in or third-party, must override it.
    """

    name: str = "abstract"
    reason: PruneReason = PruneReason.EMPTY
    needs_pattern: bool = True
    phases: tuple[str, ...] | None = None  # None = every phase

    def enabled(self, config: MinerConfig) -> bool:
        return True

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        """Prune mask over ``batch`` candidates ``idx`` (True = prune)."""
        raise NotImplementedError(
            f"{type(self).__name__} must define check_batch"
        )


class EmptyRule(PruneRule):
    """No covered rows at all — nothing to test (always enabled)."""

    name = "empty"
    reason = PruneReason.EMPTY

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        return batch.totals[idx] == 0


class PureSpaceRule(PruneRule):
    """Candidate lies strictly inside a known PR = 1 region (rule 5).

    Extending a pure contrast can only restate it with extra, redundant
    items (the height/toddler example of Section 4.3), so any candidate
    whose region a shorter pure itemset subsumes is cut.  Needs only the
    itemset, so the search runs it before paying for support counting.
    """

    name = "pure_space"
    reason = PruneReason.PURE_SPACE
    needs_pattern = False

    def __init__(self) -> None:
        # One-slot memo for the space-phase decomposition: its inputs
        # (known_pure, categorical context, box axes) are frozen for a
        # whole SDAD-CS run, and runs are sequential.
        self._frame_key: tuple | None = None
        self._frame_numeric: list[list] | tuple | None = None

    def enabled(self, config: MinerConfig) -> bool:
        return config.prune_pure_space

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        if not batch.known_pure:
            # No registered pure regions: the rule can never fire.
            return np.zeros(len(idx), dtype=bool)
        if batch.phase == PHASE_SPACE:
            return self._check_spaces(batch, idx)
        return self._check_itemsets(batch, idx)

    @staticmethod
    def _check_itemsets(
        batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        """Subsumption of each candidate itemset (the batch keys) by a
        strictly shorter known pure itemset."""
        known = batch.known_pure
        keys = batch.keys
        out = np.zeros(len(idx), dtype=bool)
        for j, i in enumerate(idx.tolist()):
            candidate = keys[i]
            n = len(candidate)
            out[j] = any(
                n > len(pure) and pure.region_subsumes(candidate)
                for pure in known
            )
        return out

    def _check_spaces(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        """Frame-shared subsumption over an SDAD-CS space batch.

        A sibling's candidate itemset is the frame's categorical context
        plus one numeric item per box axis, so for each pure region the
        categorical-part match (and the ``n > len(pure)`` guard) is
        decided once per frame; only interval containment along the box
        axes varies per sibling.  Result per index is exactly what
        :meth:`_check_itemsets` returns on the materialised itemset
        (``space.itemset_with(categorical)``).
        """
        categorical = batch.categorical
        spaces = batch.spaces
        out = np.zeros(len(idx), dtype=bool)
        if not len(idx):
            return out
        axes = spaces[int(idx[0])].intervals
        known = batch.known_pure
        if not isinstance(known, tuple):
            known = tuple(known)
        # known_pure, the categorical context and the box axes are frozen
        # for a whole SDAD-CS run, so the pure-region decomposition below
        # is computed once per run and replayed for every sibling batch.
        key = (known, categorical, tuple(axes))
        if key == self._frame_key:
            cached = self._frame_numeric
            if cached is True:
                out[:] = True
                return out
            return self._apply_numeric(cached, spaces, idx, out)
        per_space = self._decompose(known, categorical, axes)
        self._frame_key = key
        self._frame_numeric = per_space
        if per_space is True:
            out[:] = True
            return out
        return self._apply_numeric(per_space, spaces, idx, out)

    def _decompose(self, known_pure, categorical, axes):
        """Split each pure region into its frame-shared and per-sibling
        parts; ``True`` means the context alone sits inside a region."""
        n = len(categorical) + len(axes)
        per_space: list[list] = []
        for pure in known_pure:
            if not n > len(pure):
                continue
            shared_ok = True
            numeric: list = []
            for item in pure.items:
                attribute = item.attribute
                theirs = categorical.item_for(attribute)
                if theirs is not None:
                    if isinstance(item, CategoricalItem):
                        if item != theirs:
                            shared_ok = False
                            break
                    elif not isinstance(theirs, NumericItem):
                        shared_ok = False
                        break
                    elif not item.interval.contains_interval(
                        theirs.interval
                    ):
                        shared_ok = False
                        break
                elif attribute not in axes or isinstance(
                    item, CategoricalItem
                ):
                    # No candidate item on this attribute (or a numeric
                    # box axis where the pure region is categorical).
                    shared_ok = False
                    break
                else:
                    numeric.append((attribute, item.interval))
            if not shared_ok:
                continue
            if not numeric:
                return True  # the context alone sits inside the region
            per_space.append(numeric)
        return per_space

    @staticmethod
    def _apply_numeric(per_space, spaces, idx, out):
        if not per_space:
            return out
        for j, i in enumerate(idx):
            intervals = spaces[int(i)].intervals
            for numeric in per_space:
                if all(
                    interval.contains_interval(intervals[attribute])
                    for attribute, interval in numeric
                ):
                    out[j] = True
                    break
        return out


class MinimumDeviationRule(PruneRule):
    """No group's support exceeds delta (rule 1, anti-monotone)."""

    name = "min_deviation"
    reason = PruneReason.MIN_DEVIATION

    def enabled(self, config: MinerConfig) -> bool:
        return config.prune_min_deviation

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        # batch.supports is the same divide-with-where formula the batch
        # kernel uses, shared with the redundancy rule — one computation
        # per batch instead of one per rule.
        return np.all(batch.supports[idx] <= batch.config.delta, axis=1)


class ExpectedCountRule(PruneRule):
    """Some expected contingency cell is below the floor (rule 2)."""

    name = "expected_count"
    reason = PruneReason.EXPECTED_COUNT

    def enabled(self, config: MinerConfig) -> bool:
        return config.prune_expected_count

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        # Closed form of min_expected_count_batch on the batch's shared
        # row totals: row marginals are (r0, total - r0) and the column
        # minimum is sizes.min(), all exact in float64 (integer-valued).
        sizes = batch.sizes_f
        total = float(sizes.sum())
        if total <= 0:
            return np.zeros(len(idx)) < batch.config.min_expected_count
        r0 = batch.totals[idx].astype(np.float64)
        bound = np.minimum(r0, total - r0) * float(sizes.min()) / total
        return bound < batch.config.min_expected_count


class OptimisticChiSquareRule(PruneRule):
    """No specialisation can reach chi-square significance (rule 3).

    Applies to categorical itemset candidates only: the SDAD-CS recursion
    over numeric spaces is gated by the Eq. 6-11 support-difference
    estimate instead (see ``_SDADRun._optimistic_allows_many``).
    """

    name = "optimistic"
    reason = PruneReason.OPTIMISTIC_ESTIMATE
    phases = (PHASE_ITEMSET,)

    def enabled(self, config: MinerConfig) -> bool:
        return config.prune_optimistic

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        bounds = chi_square_estimate_batch(
            batch.counts[idx], batch.group_sizes
        )
        dof = max(1, len(batch.group_sizes) - 1)
        return bounds < chi2_critical(batch.alpha, dof)


class RedundancyRule(PruneRule):
    """Support difference within the CLT band of a subset (Eq. 14-16)."""

    name = "redundant"
    reason = PruneReason.REDUNDANT

    def enabled(self, config: MinerConfig) -> bool:
        return config.prune_redundant

    def check_batch(
        self, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        if batch.phase == PHASE_SPACE:
            return self._check_frames(batch, idx)
        return self._check_leave_one_out(batch, idx)

    @staticmethod
    def _check_frames(batch: EvaluationBatch, idx: np.ndarray) -> np.ndarray:
        # Every child space of an SDAD-CS frame is compared against the
        # frame's parent region, so the kernel runs once per parent with
        # that parent as the shared subset.  Frames hold a few children
        # each; stacking one parent row per child measured slower
        # (DESIGN.md §12).
        out = np.zeros(len(idx), dtype=bool)
        pos_of = {row: j for j, row in enumerate(idx.tolist())}
        for rows, subset_of in batch.shared_subset_groups or ():
            sel = [pos_of[row] for row in rows.tolist() if row in pos_of]
            if not sel:
                continue
            subset = subset_of()
            if subset is None:
                continue
            out[sel] = redundant_against_subset_batch(
                batch.supports[idx[sel]],
                subset.supports,
                subset.group_sizes,
                batch.alpha,
            )
        return out

    @staticmethod
    def _check_leave_one_out(
        batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        # One kernel row per (itemset, leave-one-out subset) pair whose
        # subset is in the previous level's pattern map; an itemset is
        # redundant when any of its pairs is.
        out = np.zeros(len(idx), dtype=bool)
        patterns = batch.subset_patterns
        if not patterns:
            return out
        keys = batch.keys
        pos: list[int] = []
        found: list[ContrastPattern] = []
        for j, i in enumerate(idx.tolist()):
            itemset = keys[i]
            for attribute in itemset.attributes:
                subset = patterns.get(itemset.without_attribute(attribute))
                if subset is not None:
                    pos.append(j)
                    found.append(subset)
        if not pos:
            return out
        pos_arr = np.asarray(pos, dtype=np.intp)
        hits = redundant_against_subset_batch(
            batch.supports[idx[pos_arr]],
            np.asarray([s.supports for s in found]),
            np.asarray([s.group_sizes for s in found]),
            batch.alpha,
        )
        out[pos_arr[hits]] = True
        return out


def default_rules() -> tuple[PruneRule, ...]:
    """The canonical rule chain, cheapest first.

    Empty and pure-space are O(1)-ish; minimum deviation and expected
    count are one pass over the group counts; the chi-square optimistic
    gate and the CLT redundancy test each evaluate a statistic, so they
    run last.  The order determines which *reason* a doubly-doomed
    candidate records, never whether it survives.
    """
    return (
        EmptyRule(),
        PureSpaceRule(),
        MinimumDeviationRule(),
        ExpectedCountRule(),
        OptimisticChiSquareRule(),
        RedundancyRule(),
    )


@dataclass
class RuleStats:
    """Per-rule effectiveness counters (checks, hits, wall time)."""

    checks: int = 0
    hits: int = 0
    seconds: float = 0.0

    def snapshot(self) -> "RuleStats":
        return RuleStats(self.checks, self.hits, self.seconds)


class PruningPipeline:
    """Ordered, config-driven chain of prune rules with full accounting.

    One pipeline is built per mining run (or per parallel worker task)
    from :class:`MinerConfig`; it owns the :class:`PruneTable` and writes
    into the run's :class:`MiningStats`.  Every consumer (the level-wise
    search, SDAD-CS and the parallel workers, via
    :class:`~repro.core.batch.BatchEvaluator`, and STUCCO, one level at a
    time) routes candidates through :meth:`evaluate_batch`, the miners
    after probing :meth:`seen`; that one judge is what guarantees serial,
    parallel, and out-of-core runs agree on both patterns and prune
    accounting.
    """

    def __init__(
        self,
        config: MinerConfig | None = None,
        *,
        rules: Sequence[PruneRule] | None = None,
        prune_table: PruneTable | None = None,
        stats: MiningStats | None = None,
    ) -> None:
        self.config = config or MinerConfig()
        self.all_rules = tuple(rules) if rules is not None else default_rules()
        self.rules = tuple(
            rule for rule in self.all_rules if rule.enabled(self.config)
        )
        self.prune_table = prune_table if prune_table is not None else PruneTable()
        self.stats = stats if stats is not None else MiningStats()
        self.rule_stats: dict[str, RuleStats] = {
            rule.name: RuleStats() for rule in self.rules
        }
        # Hot-path plans: (pattern_free_only, skip_pattern_free, phase) ->
        # tuple of (rule, record, reason) with the rule filtering and
        # stats-dict lookups resolved once.
        self._plans: dict[tuple[bool, bool, str], tuple] = {}
        self._published_rules: dict[str, RuleStats] = {}
        self._published_reasons: dict[PruneReason, int] = {}
        self._published_table_checks = 0
        self._published_table_hits = 0

    # ------------------------------------------------------------------
    # The candidate lifecycle
    # ------------------------------------------------------------------

    def seen(self, key: Hashable) -> bool:
        """Probe the prune lookup table (Algorithm 1 lines 7-9)."""
        if self.prune_table.contains(key):
            self.stats.spaces_pruned += 1
            return True
        return False

    def _plan(
        self,
        pattern_free_only: bool,
        skip_pattern_free: bool,
        phase: str,
    ) -> tuple:
        key = (pattern_free_only, skip_pattern_free, phase)
        plan = self._plans.get(key)
        if plan is None:
            selected = []
            for rule in self.rules:
                if pattern_free_only and rule.needs_pattern:
                    continue
                if skip_pattern_free and not rule.needs_pattern:
                    continue
                if rule.phases is not None and phase not in rule.phases:
                    continue
                selected.append(
                    (rule, self.rule_stats[rule.name], rule.reason)
                )
            plan = self._plans[key] = tuple(selected)
        return plan

    def evaluate_batch(
        self,
        batch: EvaluationBatch,
        *,
        pattern_free_only: bool = False,
        skip_pattern_free: bool = False,
    ) -> np.ndarray:
        """Run the rule chain over a whole batch; True = candidate kept.

        ``pattern_free_only`` runs just the rules that need no counts
        (before paying for support counting); ``skip_pattern_free`` runs
        the rest, for a batch that already passed the first pass.

        Accounting is that of a per-candidate short-circuit order: each
        rule's ``checks`` grows by the number of candidates still alive
        when it runs (a candidate killed by an earlier rule is never
        checked by later ones), ``hits`` by the candidates it kills, and
        each kill lands in the prune table under the first-firing rule's
        reason.
        """
        n = batch.size
        keep = np.ones(n, dtype=bool)
        if n == 0:
            return keep
        plan = self._plan(pattern_free_only, skip_pattern_free, batch.phase)
        alive = np.arange(n)
        clock = time.perf_counter
        for rule, record, reason in plan:
            if alive.size == 0:
                break
            record.checks += int(alive.size)
            start = clock()
            hits = np.asarray(rule.check_batch(batch, alive), dtype=bool)
            record.seconds += clock() - start
            if hits.any():
                hit_idx = alive[hits]
                record.hits += int(hit_idx.size)
                keys = batch.keys
                add = self.prune_table.add
                for i in hit_idx:
                    add(keys[i], reason)
                self.stats.spaces_pruned += int(hit_idx.size)
                keep[hit_idx] = False
                alive = alive[~hits]
        return keep

    # Kept only as a name: the benchmark suite's tracer wraps
    # ``PruningPipeline.evaluate`` by name (ROADMAP item 5).
    evaluate = evaluate_batch

    def gate_batch(
        self, rule: PruneRule, batch: EvaluationBatch, idx: np.ndarray
    ) -> np.ndarray:
        """Run one rule as a *gate* over ``batch`` candidates ``idx``:
        counted, but nothing recorded; True = the gate fires.

        STUCCO uses the optimistic chi-square rule this way: a failing
        node is still reported if it is itself a contrast, only its
        expansion is cut.  The checks land in the per-rule stats under
        ``<name>(gate)`` so gate effectiveness is observable too; that
        record only appears once some candidate reaches the gate.
        """
        if not len(idx):
            return np.zeros(0, dtype=bool)
        record = self.rule_stats.setdefault(f"{rule.name}(gate)", RuleStats())
        record.checks += len(idx)
        start = time.perf_counter()
        hits = np.asarray(rule.check_batch(batch, idx), dtype=bool)
        record.seconds += time.perf_counter() - start
        record.hits += int(hits.sum())
        return hits

    # ------------------------------------------------------------------
    # Publishing into MiningStats
    # ------------------------------------------------------------------

    def publish(self, stats: MiningStats | None = None) -> None:
        """Fold per-rule counters and table reasons into ``stats``.

        Delta semantics (like the counting backends): only what accrued
        since the previous publish is added, so a long-lived pipeline can
        publish into a fresh stats object per slice of work without
        double counting.
        """
        stats = self.stats if stats is None else stats
        for name, record in self.rule_stats.items():
            previous = self._published_rules.get(name)
            d_checks = record.checks - (previous.checks if previous else 0)
            d_hits = record.hits - (previous.hits if previous else 0)
            d_seconds = record.seconds - (
                previous.seconds if previous else 0.0
            )
            stats.prune_rule_checks[name] = (
                stats.prune_rule_checks.get(name, 0) + d_checks
            )
            stats.prune_rule_hits[name] = (
                stats.prune_rule_hits.get(name, 0) + d_hits
            )
            stats.prune_rule_seconds[name] = (
                stats.prune_rule_seconds.get(name, 0.0) + d_seconds
            )
            self._published_rules[name] = record.snapshot()
        reasons = self.prune_table.reason_counts()
        for reason, count in reasons.items():
            delta = count - self._published_reasons.get(reason, 0)
            if delta:
                stats.prune_reasons[reason.name] = (
                    stats.prune_reasons.get(reason.name, 0) + delta
                )
        self._published_reasons = dict(reasons)
        stats.prune_table_checks += (
            self.prune_table.checks - self._published_table_checks
        )
        stats.prune_table_hits += (
            self.prune_table.hits - self._published_table_hits
        )
        self._published_table_checks = self.prune_table.checks
        self._published_table_hits = self.prune_table.hits


# ----------------------------------------------------------------------
# Categorical candidate outcomes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateOutcome:
    """A categorical candidate that survived the pipeline."""

    itemset: Itemset
    pattern: ContrastPattern
    is_contrast: bool
    is_pure: bool
    """True when the candidate is a pure (PR = 1) contrast that must be
    registered in the pure-region registry (pure-space pruning)."""


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

_RULE_REASONS = {rule.name: rule.reason.name for rule in default_rules()}


def format_prune_report(stats: MiningStats) -> str:
    """Human-readable per-rule effectiveness report (``--explain-prunes``).

    One row per pipeline rule: how many candidates it saw, how many it
    cut, the wall time it cost, and the matching lookup-table reason
    count (unique pruned keys).  The lookup table's own probe/hit tally
    follows — table hits are candidates skipped without any rule
    running.
    """
    names = list(stats.prune_rule_checks)
    lines = ["Pruning pipeline (rule order = evaluation order):"]
    header = (
        f"  {'rule':<20} {'checks':>9} {'hits':>9} {'hit%':>7} "
        f"{'time(s)':>9} {'table':>7}"
    )
    lines.append(header)
    for name in names:
        checks = stats.prune_rule_checks.get(name, 0)
        hits = stats.prune_rule_hits.get(name, 0)
        seconds = stats.prune_rule_seconds.get(name, 0.0)
        rate = f"{100.0 * hits / checks:.1f}" if checks else "-"
        reason = _RULE_REASONS.get(name)
        table = (
            str(stats.prune_reasons.get(reason, 0))
            if reason is not None
            else "-"
        )
        lines.append(
            f"  {name:<20} {checks:>9} {hits:>9} {rate:>7} "
            f"{seconds:>9.3f} {table:>7}"
        )
    lines.append(
        f"  lookup table: {stats.prune_table_checks} probes, "
        f"{stats.prune_table_hits} hits "
        f"(candidates skipped without re-evaluation)"
    )
    total = sum(stats.prune_rule_hits.values())
    lines.append(
        f"  total pruned: {stats.spaces_pruned} "
        f"({total} by rules, {stats.prune_table_hits} by table)"
    )
    return "\n".join(lines)
