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

Every count runs on packed covers (DESIGN.md §15).  A classification
reads each attribute its patterns name once, chunk by chunk, and packs
one cover per distinct item from that read.  A pattern, a leave-one-out
subset or a partition side is the AND of its items' covers, an
independence residual is ``a & ~b`` per chunk segment, and each is
counted by the dataset's counting backend: a packed AND + popcount
against its group stacks.  No dense row mask or ``int64`` group column
is built, so an out-of-core view keeps its O(chunk) working set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..dataset.table import Dataset
from .contrast import ContrastPattern
from .cover import Cover
from .items import CategoricalItem, Item, Itemset
from .partition import _iter_chunk_columns
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


def _item_predicate(
    item: Item, dataset: Dataset
) -> Callable[[np.ndarray], np.ndarray]:
    """Membership of ``item`` over values of its column, as
    ``item.cover(dataset)`` tests the whole column."""
    if isinstance(item, CategoricalItem):
        code = dataset.attribute(item.attribute).code_of(item.value)
        return lambda values: values == code
    return item.interval.cover


class _PackedCovers:
    """Packed item covers of one classification, and the counts of the
    itemsets built from them.

    Each attribute the itemsets name is read once, chunk by chunk,
    through the split's column reader (:func:`~repro.core.partition.
    _iter_chunk_columns`: a chunked view's resident column up to
    ``MEDIAN_GATHER_BUDGET`` rows, its chunk files above), and every
    item over it is packed from that one read.  Counts are memoized per
    itemset, so each distinct itemset (a pattern, a leave-one-out
    subset, a partition side) is counted once; the memo holds counts,
    never covers.
    """

    def __init__(self, dataset: Dataset, itemsets: Iterable[Itemset]) -> None:
        # imported lazily: repro.counting imports this package
        from ..counting import CountingBackend

        self.dataset = dataset
        self.backend = CountingBackend(dataset)
        by_attribute: dict[str, dict[Item, None]] = {}
        for itemset in itemsets:
            for item in itemset:
                by_attribute.setdefault(item.attribute, {})[item] = None
        self._items: dict[Item, list[np.ndarray]] = {}
        for name, items in by_attribute.items():
            predicates = [_item_predicate(item, dataset) for item in items]
            packed = [self._items.setdefault(item, []) for item in items]
            for values in _iter_chunk_columns(dataset, name):
                for predicate, segments in zip(predicates, packed):
                    segments.append(np.packbits(predicate(values)))
        self._counts: dict[Itemset, ContrastPattern] = {}

    def cover(self, itemset: Itemset) -> Cover:
        """The itemset's packed cover: the AND of its items' covers."""
        sizes = self.backend.chunk_sizes
        if not itemset:
            return Cover.full(sizes)
        per_item = [self._items[item] for item in itemset]
        return Cover(
            [functools.reduce(np.bitwise_and, chunk)
             for chunk in zip(*per_item)],
            sizes,
        )

    def pattern(self, itemset: Itemset, cover: Cover) -> ContrastPattern:
        """``itemset`` with the per-group counts inside ``cover``."""
        counts = self.backend.cover_group_counts(cover)
        return ContrastPattern(
            itemset=itemset,
            counts=tuple(int(c) for c in counts),
            group_sizes=self.dataset.group_sizes,
            group_labels=self.dataset.group_labels,
        )

    def evaluate(self, itemset: Itemset) -> ContrastPattern:
        pattern = self._counts.get(itemset)
        if pattern is None:
            pattern = self._counts[itemset] = self.pattern(
                itemset, self.cover(itemset)
            )
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
    return _is_redundant(
        pattern, alpha, _PackedCovers(dataset, [pattern.itemset])
    )


def _is_redundant(
    pattern: ContrastPattern, alpha: float, covers: _PackedCovers
) -> bool:
    if len(pattern.itemset) <= 1:
        return False
    for subset in _immediate_subsets(pattern.itemset):
        sub_pattern = covers.evaluate(subset)
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
    return _is_productive(
        pattern, alpha, _PackedCovers(dataset, [pattern.itemset])
    )


def _is_productive(
    pattern: ContrastPattern, alpha: float, covers: _PackedCovers
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

    n_x = covers.dataset.group_sizes[x]
    for part_a, part_b in itemset.partitions():
        pat_a = covers.evaluate(part_a)
        pat_b = covers.evaluate(part_b)
        expected_diff = (
            pat_a.supports[x] * pat_b.supports[x]
            - pat_a.supports[y] * pat_b.supports[y]
        )
        if diff_c <= expected_diff:
            return False
        # Significance: association between the parts inside group x.
        # The itemset's cover is the AND of its parts' covers, so the
        # 2x2 table of the parts' coverage in x follows from counts.
        n_ab = covers.evaluate(itemset).counts[x]
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
    patterns = list(patterns)
    return _independently_productive(
        patterns, alpha, _PackedCovers(dataset, [p.itemset for p in patterns])
    )


def _independently_productive(
    patterns: list[ContrastPattern], alpha: float, covers: _PackedCovers
) -> list[bool]:
    # Region subsumption needs every attribute of the pattern in its
    # specialisation, so only patterns over a superset of its attribute
    # set are tested, in list order.
    keys = [frozenset(p.itemset.attributes) for p in patterns]
    by_key: dict[frozenset[str], list[int]] = {}
    for j, key in enumerate(keys):
        by_key.setdefault(key, []).append(j)
    candidates = {
        key: sorted(j for other, js in by_key.items() if key <= other
                    for j in js)
        for key in by_key
    }
    pattern_covers: dict[Itemset, Cover] = {}

    def cover_of(itemset: Itemset) -> Cover:
        cover = pattern_covers.get(itemset)
        if cover is None:
            cover = pattern_covers[itemset] = covers.cover(itemset)
        return cover

    flags: list[bool] = []
    for i, pattern in enumerate(patterns):
        ok = True
        for j in candidates[keys[i]]:
            other = patterns[j]
            specialises = (
                i != j
                and pattern.itemset != other.itemset
                and pattern.itemset.region_subsumes(other.itemset)
                and not other.itemset.region_subsumes(pattern.itemset)
            )
            if not specialises:
                continue
            mine = cover_of(pattern.itemset)
            theirs = cover_of(other.itemset)
            residual = covers.pattern(
                pattern.itemset,
                Cover(
                    [mine.segment(c) & ~theirs.segment(c)
                     for c in range(mine.n_chunks)],
                    mine.chunk_sizes,
                ),
            )
            table = contingency_from_counts(
                residual.counts, residual.group_sizes
            )
            still_contrast = (
                chi_square_independence(table).significant_at(alpha)
                and residual.dominant_group == pattern.dominant_group
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
    covers = _PackedCovers(dataset, [p.itemset for p in patterns])
    redundant = [_is_redundant(p, alpha, covers) for p in patterns]
    unproductive = [not _is_productive(p, alpha, covers) for p in patterns]
    independent = _independently_productive(patterns, alpha, covers)
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
