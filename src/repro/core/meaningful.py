"""Meaningfulness filters: non-redundant, productive, independently
productive contrast patterns (paper Sections 3 and 4.3, Tables 3 and 6).

A contrast pattern is *meaningful* when it is

* **non-redundant** — its support difference is not statistically the same
  as one of its immediate subsets' (the pregnant-implies-female example);
* **productive** — its support difference exceeds what its parts would
  produce under independence (Eq. 17), and the excess is statistically
  significant;
* **independently productive** — it remains a contrast after removing the
  rows already explained by any of its supersets in the result list (the
  hurricane example: only the full 3-condition pattern matters).

These checks are applied as a post-filter by
:class:`~repro.core.miner.ContrastSetMiner` and are counted standalone for
the Table 6 census by :func:`classify_patterns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.table import Dataset
from .contrast import ContrastPattern, evaluate_itemset
from .items import Itemset
from .pruning import redundant_against_subset
from .stats import chi_square_independence, contingency_from_counts

__all__ = [
    "is_redundant",
    "is_productive",
    "independently_productive_mask",
    "MeaningfulnessReport",
    "classify_patterns",
    "filter_meaningful",
]


#: Counts-only patterns by itemset, shared by every filter of one
#: :func:`classify_patterns` call so each distinct itemset (a pattern, a
#: leave-one-out subset, a partition side) is counted once.  It holds
#: counts, never covers: a dense cover per itemset would cost a mask of
#: ``n_rows`` bytes each.
_Memo = dict[Itemset, ContrastPattern]


def _evaluate(
    itemset: Itemset, dataset: Dataset, memo: _Memo
) -> ContrastPattern:
    pattern = memo.get(itemset)
    if pattern is None:
        pattern = memo[itemset] = evaluate_itemset(itemset, dataset)
    return pattern


def _immediate_subsets(itemset: Itemset) -> list[Itemset]:
    return [
        itemset.without_attribute(attr) for attr in itemset.attributes
    ]


def is_redundant(
    pattern: ContrastPattern, dataset: Dataset, alpha: float = 0.05
) -> bool:
    """Redundancy against the pattern's immediate (leave-one-item-out)
    subsets, evaluated on the dataset.

    A pattern is redundant when some subset has a statistically
    indistinguishable support difference (CLT band, Eq. 14-16) — the
    specialised item adds nothing (e.g. *pregnant & female* vs
    *pregnant*).  Level-1 patterns are never redundant.
    """
    return _is_redundant(pattern, dataset, alpha, {})


def _is_redundant(
    pattern: ContrastPattern, dataset: Dataset, alpha: float, memo: _Memo
) -> bool:
    if len(pattern.itemset) <= 1:
        return False
    for subset in _immediate_subsets(pattern.itemset):
        sub_pattern = _evaluate(subset, dataset, memo)
        if redundant_against_subset(pattern, sub_pattern, alpha):
            return True
    return False


def is_productive(
    pattern: ContrastPattern, dataset: Dataset, alpha: float = 0.05
) -> bool:
    """Productivity test (Eq. 17 + significance).

    For every binary partition ``(a, c\\a)`` of the itemset the observed
    support difference must exceed the difference expected if the two parts
    occurred independently within each group::

        diff_c > supp_x(a) * supp_x(c\\a) - supp_y(a) * supp_y(c\\a)

    where ``x`` is the larger group.  The excess must additionally be
    statistically significant; following the paper we use a chi-square
    test — here, of the association between the two parts' coverage within
    the dominant group (independence there would make the observed support
    the expected product, i.e. the pattern unproductive).

    Level-1 patterns are productive by definition.
    """
    return _is_productive(pattern, dataset, alpha, {})


def _is_productive(
    pattern: ContrastPattern, dataset: Dataset, alpha: float, memo: _Memo
) -> bool:
    itemset = pattern.itemset
    if len(itemset) <= 1:
        return True

    supports = pattern.supports
    order = sorted(
        range(len(supports)),
        key=lambda g: pattern.group_sizes[g],
        reverse=True,
    )
    x, y = order[0], order[1]
    if supports[x] < supports[y]:
        x, y = y, x
    diff_c = supports[x] - supports[y]

    n_x = dataset.group_sizes[x]
    for part_a, part_b in itemset.partitions():
        pat_a = _evaluate(part_a, dataset, memo)
        pat_b = _evaluate(part_b, dataset, memo)
        expected_diff = (
            pat_a.supports[x] * pat_b.supports[x]
            - pat_a.supports[y] * pat_b.supports[y]
        )
        if diff_c <= expected_diff:
            return False
        # Significance: association between the parts inside group x.
        # The itemset's cover is the AND of its parts' covers, so the
        # 2x2 table of the parts' coverage in x follows from counts.
        n_ab = _evaluate(itemset, dataset, memo).counts[x]
        n_a = pat_a.counts[x]
        n_b = pat_b.counts[x]
        table = np.array(
            [
                [n_ab, n_a - n_ab],
                [n_b - n_ab, n_x - n_a - n_b + n_ab],
            ],
            dtype=np.float64,
        )
        result = chi_square_independence(table)
        positively_associated = (
            table[0, 0] * table[1, 1] > table[0, 1] * table[1, 0]
        )
        if not (result.p_value < alpha and positively_associated):
            return False
    return True


def independently_productive_mask(
    patterns: Sequence[ContrastPattern],
    dataset: Dataset,
    alpha: float = 0.05,
) -> list[bool]:
    """For each pattern, is it independently productive w.r.t. the list?

    Pattern ``I`` fails when for some specialisation ``S`` *in the list*,
    the rows covered by ``I`` but not by ``S`` no longer form a
    significant contrast in the same direction — i.e. ``I`` was a contrast
    only because of ``S``'s extra items (paper Section 4.3: only supersets
    present in the final list are checked).

    Specialisation is tested by *region subsumption* rather than exact
    itemset inclusion: adaptive binning places slightly different
    boundaries in different contexts, so ``age <= 25.0`` legitimately
    counts ``age <= 24.8 and hours > 40`` as its specialisation.  The
    residual must also keep the pattern's dominant group: a residual that
    flips direction means the original direction came entirely from the
    specialisation's region.
    """
    covers = [p.itemset.cover(dataset) for p in patterns]
    flags: list[bool] = []
    for i, pattern in enumerate(patterns):
        ok = True
        for j, other in enumerate(patterns):
            if i == j:
                continue
            specialises = (
                pattern.itemset != other.itemset
                and pattern.itemset.region_subsumes(other.itemset)
                and not other.itemset.region_subsumes(pattern.itemset)
            )
            if not specialises:
                continue
            residual = covers[i] & ~covers[j]
            counts = dataset.group_counts(residual)
            table = contingency_from_counts(counts, dataset.group_sizes)
            residual_pattern = ContrastPattern(
                itemset=pattern.itemset,
                counts=tuple(int(c) for c in counts),
                group_sizes=dataset.group_sizes,
                group_labels=dataset.group_labels,
            )
            still_contrast = (
                chi_square_independence(table).significant_at(alpha)
                and residual_pattern.dominant_group == pattern.dominant_group
            )
            if not still_contrast:
                ok = False
                break
        flags.append(ok)
    return flags


@dataclass
class MeaningfulnessReport:
    """Per-pattern meaningfulness classification (the Table 6 census)."""

    patterns: list[ContrastPattern]
    redundant: list[bool]
    unproductive: list[bool]
    not_independently_productive: list[bool]

    @property
    def meaningful(self) -> list[bool]:
        return [
            not (r or u or n)
            for r, u, n in zip(
                self.redundant,
                self.unproductive,
                self.not_independently_productive,
            )
        ]

    @property
    def n_meaningful(self) -> int:
        return sum(self.meaningful)

    @property
    def n_meaningless(self) -> int:
        return len(self.patterns) - self.n_meaningful

    def meaningful_patterns(self) -> list[ContrastPattern]:
        return [
            p for p, ok in zip(self.patterns, self.meaningful) if ok
        ]


def classify_patterns(
    patterns: Sequence[ContrastPattern],
    dataset: Dataset,
    alpha: float = 0.05,
) -> MeaningfulnessReport:
    """Classify every pattern as redundant / unproductive / not
    independently productive (Table 6's meaningful-vs-meaningless counts).
    """
    patterns = list(patterns)
    memo: _Memo = {}
    redundant = [_is_redundant(p, dataset, alpha, memo) for p in patterns]
    unproductive = [
        not _is_productive(p, dataset, alpha, memo) for p in patterns
    ]
    independent = independently_productive_mask(patterns, dataset, alpha)
    return MeaningfulnessReport(
        patterns=patterns,
        redundant=redundant,
        unproductive=unproductive,
        not_independently_productive=[not x for x in independent],
    )


def filter_meaningful(
    patterns: Sequence[ContrastPattern],
    dataset: Dataset,
    alpha: float = 0.05,
) -> list[ContrastPattern]:
    """Keep only the meaningful patterns (the miner's final output step)."""
    return classify_patterns(patterns, dataset, alpha).meaningful_patterns()
