"""In-memory indexes over one loaded run's patterns.

A :class:`PatternIndex` is the immutable serving-side representation of a
run: the pattern list with interest values, plus the lookup structures
the query engine needs — by attribute, by dominant group, and sorted
orders per measure (built lazily, cached).  Immutability is what makes
the server's hot-swap trivial: publishing a new run swaps one reference;
requests already executing keep their whole index.

The point-lookup :meth:`PatternIndex.match` answers the online inference
question — *which patterns cover this record?* — against the patterns'
own interval/categorical items, without touching the training dataset.
``match`` is the readable reference scan; the serving hot path goes
through :attr:`PatternIndex.plan`, a compiled
:class:`~repro.serve.plan.MatcherPlan` (columnar numpy lowering of the
same items) whose :meth:`~repro.serve.plan.MatcherPlan.match_batch`
evaluates whole row batches against all patterns at once — bit-identical
to the scan, pinned by ``tests/test_matcher_plan.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.contrast import ContrastPattern
from ..core.items import CategoricalItem, Itemset, NumericItem

__all__ = ["MatchError", "IndexedPattern", "PatternIndex", "row_from_dataset"]

SORT_KEYS = (
    "interest",
    "support_difference",
    "purity_ratio",
    "surprising",
    "p_value",
    "level",
)
"""Measures a query may sort on (also usable as threshold filters)."""


class MatchError(ValueError):
    """A row cannot be matched (e.g. non-numeric value for an interval)."""


@dataclass(frozen=True)
class IndexedPattern:
    """One pattern with its run-local rank and interest value."""

    rank: int
    """0-based position in the run's own (top-k) ordering."""
    pattern: ContrastPattern
    interest: float

    def sort_value(self, key: str) -> float:
        if key == "interest":
            return self.interest
        if key == "support_difference":
            return self.pattern.support_difference
        if key == "purity_ratio":
            return self.pattern.purity_ratio
        if key == "surprising":
            return self.pattern.surprising_measure
        if key == "p_value":
            return self.pattern.significance_p_value
        if key == "level":
            return float(self.pattern.level)
        raise KeyError(f"unknown sort key {key!r}")


class PatternIndex:
    """Immutable query/lookup structures over one run's patterns."""

    def __init__(
        self,
        patterns: Sequence[ContrastPattern],
        interests: Mapping[Itemset, float] | None = None,
    ) -> None:
        interests = interests or {}
        self.entries: tuple[IndexedPattern, ...] = tuple(
            IndexedPattern(
                rank=i,
                pattern=p,
                # Fall back to the headline measure so a run stored
                # without interest values still sorts sensibly.
                interest=float(
                    interests.get(p.itemset, p.support_difference)
                ),
            )
            for i, p in enumerate(patterns)
        )
        self.rank_texts: tuple[str, ...] = tuple(
            map(str, range(len(self.entries)))
        )
        """Each rank as its JSON text, so rendering a rank list converts
        no ints."""
        by_attribute: dict[str, list[int]] = {}
        by_group: dict[str, list[int]] = {}
        for entry in self.entries:
            for attr in entry.pattern.itemset.attributes:
                by_attribute.setdefault(attr, []).append(entry.rank)
            by_group.setdefault(entry.pattern.dominant_group, []).append(
                entry.rank
            )
        self.by_attribute: dict[str, tuple[int, ...]] = {
            name: tuple(ranks) for name, ranks in by_attribute.items()
        }
        self.by_group: dict[str, tuple[int, ...]] = {
            name: tuple(ranks) for name, ranks in by_group.items()
        }
        self._orders: dict[tuple[str, bool], tuple[int, ...]] = {}
        self._plan = None
        self._fragments: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def plan(self):
        """The compiled :class:`~repro.serve.plan.MatcherPlan`.

        Built once on first use and cached alongside the index — the
        index is immutable, so the plan can never go stale.  The server
        touches this property at publish time so hot-swapped runs pay
        the compilation before the first request, not during it.
        """
        plan = self._plan
        if plan is None:
            from .plan import MatcherPlan

            plan = self._plan = MatcherPlan(self.entries)
        return plan

    def rendered_entry(self, rank: int) -> str:
        """The compact JSON wire shape of one entry, rendered once.

        Entries are immutable, so their encoded form is a constant of
        the index; re-encoding ~25 matched patterns per row was the
        serving layer's dominant cost before this cache (the match
        itself is vectorized and cheap).  Byte-identical to
        ``json.dumps(encode_entry(entry), separators=(",", ":"))``.
        """
        fragments = self._fragments
        if fragments is None:
            from .query import encode_entry

            fragments = self._fragments = tuple(
                json.dumps(encode_entry(entry), separators=(",", ":"))
                for entry in self.entries
            )
        return fragments[rank]

    def rendered_matches(self, entries: Iterable[IndexedPattern]) -> str:
        """Compact JSON array of entry wire shapes (see
        :meth:`rendered_entry`); byte-identical to dumping
        ``match_payload(entries)`` with ``separators=(",", ":")``."""
        return "[%s]" % ",".join(
            self.rendered_entry(entry.rank) for entry in entries
        )

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_attribute))

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_group))

    def order_by(self, key: str, descending: bool = True) -> tuple[int, ...]:
        """Ranks sorted by a measure; ties keep the run's own order.

        Orders are computed once per (key, direction) and cached — the
        index is immutable, so the cache can never go stale.
        """
        if key not in SORT_KEYS:
            raise KeyError(f"unknown sort key {key!r}")
        cached = self._orders.get((key, descending))
        if cached is None:
            ranks = sorted(
                range(len(self.entries)),
                key=lambda r: (
                    -self.entries[r].sort_value(key)
                    if descending
                    else self.entries[r].sort_value(key),
                    r,
                ),
            )
            cached = self._orders[(key, descending)] = tuple(ranks)
        return cached

    # -- point lookup ---------------------------------------------------

    def match(self, row: Mapping[str, Any]) -> list[IndexedPattern]:
        """All patterns whose items cover the given record.

        ``row`` maps attribute names to values: category labels (strings)
        for categorical attributes, numbers for continuous ones.  A
        pattern matches when *every* one of its items covers the row; a
        row missing one of the pattern's attributes does not match it
        (coverage cannot be established).  Attributes in the row that no
        pattern mentions are ignored.

        The row is validated once up front (via the plan), so a
        non-numeric value for a numerically-constrained attribute raises
        the same deterministic :class:`MatchError` regardless of pattern
        order — never a partial scan result.
        """
        self.plan.validate_row(row)
        matched: list[IndexedPattern] = []
        for entry in self.entries:
            if self._covers(entry.pattern.itemset, row):
                matched.append(entry)
        return matched

    def match_batch(
        self, rows: Sequence[Mapping[str, Any]]
    ) -> list[list[IndexedPattern]]:
        """Vectorized :meth:`match` over a batch of rows (the hot path).

        Delegates to the compiled plan: every row is evaluated against
        all patterns with a handful of array ops.  Row ``i``'s result is
        bit-identical to ``match(rows[i])``.
        """
        return self.plan.match_batch(rows)

    @staticmethod
    def _covers(itemset: Itemset, row: Mapping[str, Any]) -> bool:
        for item in itemset:
            if item.attribute not in row:
                return False
            value = row[item.attribute]
            if isinstance(item, CategoricalItem):
                if not isinstance(value, str) or value != item.value:
                    return False
            else:
                assert isinstance(item, NumericItem)
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise MatchError(
                        f"attribute {item.attribute!r} is continuous; "
                        f"row value {value!r} is not a number"
                    )
                if not item.interval.contains(float(value)):
                    return False
        return True


def row_from_dataset(dataset, i: int) -> dict[str, Any]:
    """Row ``i`` of a dataset as a :meth:`PatternIndex.match` input.

    Categorical codes are decoded back to their labels; continuous
    values come out as plain floats.
    """
    row: dict[str, Any] = {}
    for attr in dataset.schema:
        value = dataset.column(attr.name)[i]
        if attr.is_categorical:
            row[attr.name] = attr.categories[int(value)]
        else:
            row[attr.name] = float(value)
    return row
