"""Pruning rules and the prune lookup table (paper Sections 3 and 4.3).

SDAD-CS prunes a space/itemset when:

1. *minimum deviation size* — no group's support exceeds ``delta``
   (a contrast needs a support difference over ``delta``, which is
   impossible when every support is at most ``delta``);
2. *expected count* — some expected contingency cell is below 5, where the
   chi-square approximation is unreliable;
3. *optimistic estimate* — the best interest value any specialisation could
   reach is below the current top-k threshold (Eq. 4-11), or the best
   chi-square any specialisation could reach is below the significance
   cut-off;
4. *statistical redundancy* — the itemset's support difference is within
   the CLT band of one of its subsets' differences (Eq. 14-16), so the
   specialisation explains nothing new;
5. *pure space* — PR = 1 (only one group present): adding further items
   can only produce redundant contrasts (the height/toddler example of
   Section 4.3).

Every rule is independently switchable through
:class:`~repro.core.miner.MinerConfig`, which is how the paper's SDAD-CS NP
("no pruning") comparison configuration is expressed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .contrast import ContrastPattern
from .stats import (
    clt_difference_bound,
    clt_difference_bound_batch,
    difference_is_statistically_same,
    min_expected_count,
)

__all__ = [
    "PruneReason",
    "PruneTable",
    "minimum_deviation_prunes",
    "expected_count_prunes",
    "redundant_against_subset",
    "redundant_against_subset_batch",
    "is_pure_space",
    "is_pure_space_batch",
]


class PruneReason(enum.Enum):
    """Why a space or itemset was pruned."""

    MIN_DEVIATION = "minimum deviation size"
    EXPECTED_COUNT = "expected count below 5"
    OPTIMISTIC_ESTIMATE = "optimistic estimate below threshold"
    REDUNDANT = "statistically redundant with a subset"
    PURE_SPACE = "pure space (PR = 1)"
    EMPTY = "no rows"


@dataclass
class PruneTable:
    """Lookup table of pruned candidates (Algorithm 1 lines 7-9).

    The paper uses a hash map keyed by the itemset; any candidate found in
    the table — or any candidate containing a pruned sub-candidate, which
    callers check by probing subset keys — is skipped without evaluation.
    The table also doubles as the experiment's instrumentation: it records
    how many candidates were pruned for which reason.
    """

    _table: dict[Hashable, PruneReason] = field(default_factory=dict)
    checks: int = 0
    hits: int = 0

    def add(self, key: Hashable, reason: PruneReason) -> None:
        self._table[key] = reason

    def contains(self, key: Hashable) -> bool:
        self.checks += 1
        found = key in self._table
        if found:
            self.hits += 1
        return found

    def reason_for(self, key: Hashable) -> PruneReason | None:
        return self._table.get(key)

    def __len__(self) -> int:
        return len(self._table)

    def reason_counts(self) -> dict[PruneReason, int]:
        out: dict[PruneReason, int] = {}
        for reason in self._table.values():
            out[reason] = out.get(reason, 0) + 1
        return out

    def merge_from(self, other: "PruneTable") -> None:
        """Fold another table in (parallel driver merging worker tables).

        Worker tasks operate on disjoint candidate keys (one attribute
        combination per task), so the union is collision-free; probe
        counters are summed.
        """
        self._table.update(other._table)
        self.checks += other.checks
        self.hits += other.hits


def minimum_deviation_prunes(
    counts: Sequence[int] | np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
    delta: float,
) -> bool:
    """True if no group's support exceeds ``delta`` (prune rule 1)."""
    counts = np.asarray(counts, dtype=np.float64)
    sizes = np.asarray(group_sizes, dtype=np.float64)
    supports = np.divide(
        counts, sizes, out=np.zeros_like(counts), where=sizes > 0
    )
    return bool(np.all(supports <= delta))


def expected_count_prunes(
    counts: Sequence[int] | np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
    minimum: float = 5.0,
) -> bool:
    """True if some expected contingency cell is below ``minimum``
    (prune rule 2)."""
    return min_expected_count(counts, group_sizes) < minimum


def redundant_against_subset(
    pattern: ContrastPattern,
    subset: ContrastPattern,
    alpha: float,
) -> bool:
    """CLT redundancy test against one subset pattern (Eq. 14-16).

    The comparison is made between the same two groups the subset's
    difference is computed on (its extreme-support pair), using the
    subset's supports for the variance estimate.  When the subset's
    supports are tied (e.g. the root region, where every group has support
    1), the pattern's own extreme pair is used instead — a tied subset
    carries no preferred direction.
    """
    hi = max(
        range(len(subset.supports)), key=subset.supports.__getitem__
    )
    lo = min(
        range(len(subset.supports)), key=subset.supports.__getitem__
    )
    if subset.supports[hi] == subset.supports[lo]:
        hi = max(
            range(len(pattern.supports)), key=pattern.supports.__getitem__
        )
        lo = min(
            range(len(pattern.supports)), key=pattern.supports.__getitem__
        )
        if hi == lo:
            lo = (hi + 1) % len(pattern.supports)
    diff_subset = subset.supports[hi] - subset.supports[lo]
    diff_current = pattern.supports[hi] - pattern.supports[lo]
    return difference_is_statistically_same(
        diff_current,
        diff_subset,
        subset.supports[hi],
        subset.supports[lo],
        subset.group_sizes[hi],
        subset.group_sizes[lo],
        alpha,
    )


def is_pure_space(
    counts: Sequence[int] | np.ndarray, min_count: int = 1
) -> bool:
    """True if only one group is present in the space (PR = 1, rule 5)."""
    counts = np.asarray(counts)
    nonzero = int(np.count_nonzero(counts))
    return nonzero == 1 and int(counts.sum()) >= min_count


# ----------------------------------------------------------------------
# Batch variants — one boolean per row of an (N, n_groups) counts matrix.
# Each is bit-identical to its scalar counterpart applied row by row
# (pinned by tests/test_batch_equivalence.py).
# ----------------------------------------------------------------------


def redundant_against_subset_batch(
    supports: np.ndarray,
    subset_supports: np.ndarray,
    subset_sizes: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """CLT redundancy test of N (pattern, subset) pairs (Eq. 14-16).

    Row ``i`` tests the pattern whose per-group supports are
    ``supports[i]`` (the exact values ``ContrastPattern.supports`` would
    expose) against the subset whose supports and group sizes are
    ``subset_supports[i]`` and ``subset_sizes[i]``.  Each row is exactly
    :func:`redundant_against_subset` on its pair: the extreme pair is the
    subset's first argmax and first argmin, a tied subset falls back to
    the pattern's own extreme pair (``lo = (hi + 1) % G`` when that ties
    too), an empty group gives an infinite bound, and the bound uses the
    subset's own group sizes.

    One-dimensional ``subset_supports``/``subset_sizes`` are one subset
    shared by every pattern — an SDAD-CS frame's parent region — whose
    extreme pair and CLT band are then computed once.
    """
    sup = np.asarray(supports, dtype=np.float64)
    n, g = sup.shape
    sub = np.asarray(subset_supports, dtype=np.float64)
    sub_n = np.asarray(subset_sizes, dtype=np.float64)
    if sub.ndim == 1:
        hi, lo = int(sub.argmax()), int(sub.argmin())
        s_hi, s_lo = float(sub[hi]), float(sub[lo])
        if s_hi != s_lo:
            bound = clt_difference_bound(
                s_hi, s_lo, sub_n[hi], sub_n[lo], alpha
            )
            diff_current = sup[:, hi] - sup[:, lo]
            return np.abs(diff_current - (s_hi - s_lo)) <= bound
        sub = np.broadcast_to(sub, (n, g))
        sub_n = np.broadcast_to(sub_n, (n, g))
    rows = np.arange(n)
    hi = np.argmax(sub, axis=1)
    lo = np.argmin(sub, axis=1)
    tied = sub[rows, hi] == sub[rows, lo]
    if tied.any():
        own_hi = np.argmax(sup, axis=1)
        own_lo = np.argmin(sup, axis=1)
        own_lo = np.where(own_hi == own_lo, (own_hi + 1) % g, own_lo)
        hi = np.where(tied, own_hi, hi)
        lo = np.where(tied, own_lo, lo)
    s_hi = sub[rows, hi]
    s_lo = sub[rows, lo]
    diff_current = sup[rows, hi] - sup[rows, lo]
    bound = clt_difference_bound_batch(
        s_hi, s_lo, sub_n[rows, hi], sub_n[rows, lo], alpha
    )
    return np.abs(diff_current - (s_hi - s_lo)) <= bound


def is_pure_space_batch(
    counts: np.ndarray, min_count: int = 1
) -> np.ndarray:
    """Vectorized :func:`is_pure_space` (prune rule 5)."""
    counts = np.asarray(counts)
    nonzero = np.count_nonzero(counts, axis=1)
    return (nonzero == 1) & (counts.sum(axis=1) >= min_count)
