"""Contrast patterns: itemsets annotated with per-group statistics.

A :class:`ContrastPattern` is the unit of output of every miner in this
package.  It records the itemset, the per-group covered counts and group
sizes, and exposes the derived quantities the paper works with: per-group
supports (Eq. 1), support difference (Eq. 2), purity ratio (Eq. 12), the
Surprising Measure (Eq. 13), and the chi-square significance test (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .items import Itemset
from .stats import (
    ChiSquareResult,
    chi_square_independence,
    contingency_from_counts,
    fisher_exact_2x2,
    min_expected_count,
)

__all__ = ["ContrastPattern"]


@dataclass(frozen=True)
class ContrastPattern:
    """An itemset with its per-group evaluation on a dataset.

    Parameters
    ----------
    itemset:
        The pattern itself.
    counts:
        Per-group number of covered rows, aligned with ``group_labels``.
    group_sizes:
        Per-group total number of rows.
    group_labels:
        Names of the groups (display only).
    level:
        Search-tree level (number of attributes) the pattern was found at.
    hypervolume:
        n-volume of the numeric box the pattern occupies, normalised to the
        attribute ranges; used to order the bottom-up merge (Section 4.1).
    """

    itemset: Itemset
    counts: tuple[int, ...]
    group_sizes: tuple[int, ...]
    group_labels: tuple[str, ...]
    level: int = 1
    hypervolume: float = 1.0

    def __post_init__(self) -> None:
        if not (
            len(self.counts) == len(self.group_sizes) == len(self.group_labels)
        ):
            raise ValueError("counts, sizes and labels must align")
        if len(self.counts) < 2:
            raise ValueError("contrast patterns need at least two groups")
        for count, size in zip(self.counts, self.group_sizes):
            if count < 0 or size < 0 or count > size:
                raise ValueError(
                    f"inconsistent counts {self.counts} for sizes "
                    f"{self.group_sizes}"
                )

    # ------------------------------------------------------------------
    # Supports and interest measures
    # ------------------------------------------------------------------

    @cached_property
    def supports(self) -> tuple[float, ...]:
        """Per-group supports, ``supp_k(c) = count_k(c) / |g_k|`` (Eq. 1)."""
        return tuple(
            count / size if size else 0.0
            for count, size in zip(self.counts, self.group_sizes)
        )

    def support(self, group: int | str) -> float:
        if isinstance(group, str):
            group = self.group_labels.index(group)
        return self.supports[group]

    @cached_property
    def _extreme_pair(self) -> tuple[int, int]:
        """Indices of the (max-support, min-support) groups."""
        supports = self.supports
        hi = max(range(len(supports)), key=supports.__getitem__)
        lo = min(range(len(supports)), key=supports.__getitem__)
        return hi, lo

    @property
    def support_difference(self) -> float:
        """Largest pairwise support difference (Eq. 2 generalised to
        k groups, as STUCCO does)."""
        hi, lo = self._extreme_pair
        return self.supports[hi] - self.supports[lo]

    @property
    def dominant_group(self) -> str:
        """Label of the group with the highest support."""
        return self.group_labels[self._extreme_pair[0]]

    @property
    def purity_ratio(self) -> float:
        """Purity Ratio (Eq. 12) between the extreme-support groups.

        1 means the covered region is pure (only one group present);
        0 means the groups are equally represented.
        """
        hi, lo = self._extreme_pair
        s_hi, s_lo = self.supports[hi], self.supports[lo]
        if s_hi == 0.0:
            return 0.0
        return 1.0 - s_lo / s_hi

    @property
    def surprising_measure(self) -> float:
        """SurPRising Measure = PR x Diff (Eq. 13)."""
        return self.purity_ratio * self.support_difference

    @cached_property
    def chi_square(self) -> ChiSquareResult:
        """Chi-square test of independence between coverage and group."""
        table = contingency_from_counts(self.counts, self.group_sizes)
        return chi_square_independence(table)

    @cached_property
    def min_expected(self) -> float:
        """Smallest expected contingency cell (the >= 5 pruning rule)."""
        return min_expected_count(self.counts, self.group_sizes)

    @cached_property
    def significance_p_value(self) -> float:
        """P-value for coverage-vs-group dependence.

        Uses the chi-square test; for two groups with an expected cell
        below 5 (where the chi-square approximation is unreliable) it
        falls back to Fisher's exact test, as Section 3 prescribes for
        small samples.
        """
        if len(self.counts) == 2 and self.min_expected < 5.0:
            table = contingency_from_counts(
                self.counts, self.group_sizes
            ).astype(int)
            return fisher_exact_2x2(table)
        return self.chi_square.p_value

    # ------------------------------------------------------------------
    # Predicates from the paper
    # ------------------------------------------------------------------

    def is_large(self, delta: float) -> bool:
        """Support-difference largeness test (Eq. 2)."""
        return self.support_difference > delta

    def is_significant(self, alpha: float) -> bool:
        """Significance test (Eq. 3): chi-square, with a Fisher exact
        fallback for small two-group tables."""
        return self.significance_p_value < alpha

    def is_contrast(self, delta: float, alpha: float) -> bool:
        return self.is_large(delta) and self.is_significant(alpha)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    @property
    def total_count(self) -> int:
        return int(sum(self.counts))

    def interest(self, measure: str = "support_difference") -> float:
        """Evaluate a named interest measure on this pattern.

        Thin convenience wrapper over :mod:`repro.core.measures`; imported
        lazily to avoid a module cycle.
        """
        from . import measures

        return measures.evaluate(measure, self)

    def describe(self) -> str:
        supports = ", ".join(
            f"supp({label})={supp:.3f}"
            for label, supp in zip(self.group_labels, self.supports)
        )
        return f"{self.itemset} [{supports}]"

    def __str__(self) -> str:
        return self.describe()


def evaluate_itemset(
    itemset: Itemset,
    dataset,
    level: int | None = None,
    hypervolume: float = 1.0,
) -> ContrastPattern:
    """Count an itemset's coverage on a dataset, as a boolean mask, and
    wrap it as a pattern."""
    counts = tuple(
        int(c) for c in dataset.group_counts(itemset.cover(dataset))
    )
    return ContrastPattern(
        itemset=itemset,
        counts=counts,
        group_sizes=dataset.group_sizes,
        group_labels=dataset.group_labels,
        level=len(itemset) if level is None else level,
        hypervolume=hypervolume,
    )


__all__.append("evaluate_itemset")
