"""Items, intervals, and itemsets over mixed data (paper Section 3).

An *item* is either a value of a categorical attribute (``occupation =
Prof-specialty``) or a range of a continuous attribute (``18 < Age <= 26``).
An *itemset* combines at most one item per attribute; for continuous
attributes the item is an :class:`Interval` and the conjunction of numeric
items describes an axis-aligned box ("space" in the paper's terminology).

Numeric intervals follow the paper's rendering convention: left-open,
right-closed ``(lo, hi]``, except that an interval may be explicitly closed
on the left to include an attribute's minimum value.  Infinite endpoints are
allowed (Cortana-style bins like ``(-inf, 39]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from ..dataset.table import Dataset

__all__ = [
    "Interval",
    "CategoricalItem",
    "NumericItem",
    "Item",
    "Itemset",
]


@dataclass(frozen=True)
class Interval:
    """A numeric interval with explicit endpoint closure.

    ``lo``/``hi`` may be ``-inf``/``+inf``.  Degenerate intervals
    (``lo == hi``) are allowed only when both endpoints are closed.
    """

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints cannot be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")

    # -- geometry ------------------------------------------------------

    @property
    def width(self) -> float:
        """Length of the interval (may be ``inf``)."""
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        above = value >= self.lo if self.lo_closed else value > self.lo
        below = value <= self.hi if self.hi_closed else value < self.hi
        return above and below

    def cover(self, values: np.ndarray) -> np.ndarray:
        """Vectorised membership test."""
        above = values >= self.lo if self.lo_closed else values > self.lo
        below = values <= self.hi if self.hi_closed else values < self.hi
        return above & below

    def is_adjacent_to(self, other: "Interval") -> bool:
        """True if the two intervals share exactly one boundary point.

        Adjacency is what makes two spaces mergeable along an axis
        (the bottom-up merge step of SDAD-CS requires contiguity).
        """
        if self.hi == other.lo:
            return self.hi_closed != other.lo_closed or self.hi_closed is False
        if other.hi == self.lo:
            return other.hi_closed != self.lo_closed or other.hi_closed is False
        return False

    def merge_with(self, other: "Interval") -> "Interval":
        """Union of two adjacent intervals."""
        if not self.is_adjacent_to(other):
            raise ValueError(f"cannot merge non-adjacent {self} and {other}")
        first, second = (self, other) if self.lo <= other.lo else (other, self)
        return Interval(
            first.lo, second.hi, first.lo_closed, second.hi_closed
        )

    def contains_interval(self, other: "Interval") -> bool:
        """True when every point of ``other`` lies in ``self``."""
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (self.lo_closed or not other.lo_closed)
        )
        hi_ok = self.hi > other.hi or (
            self.hi == other.hi and (self.hi_closed or not other.hi_closed)
        )
        return lo_ok and hi_ok

    def overlaps(self, other: "Interval") -> bool:
        """True if the intervals share at least one point."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return True
        if lo > hi:
            return False
        # Touching endpoints: shared point only if both sides include it.
        left_in = (
            (self.lo_closed if lo == self.lo else True)
            and (self.hi_closed if lo == self.hi else True)
        )
        right_in = (
            (other.lo_closed if lo == other.lo else True)
            and (other.hi_closed if lo == other.hi else True)
        )
        return left_in and right_in

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if math.isinf(self.lo) and self.lo < 0 else f"{self.lo:g}"
        hi = "inf" if math.isinf(self.hi) and self.hi > 0 else f"{self.hi:g}"
        return f"{left}{lo}, {hi}{right}"


@dataclass(frozen=True)
class CategoricalItem:
    """``attribute = value`` for a categorical attribute."""

    attribute: str
    value: str

    def cover(self, dataset: Dataset) -> np.ndarray:
        attr = dataset.attribute(self.attribute)
        return dataset.column(self.attribute) == attr.code_of(self.value)

    def __str__(self) -> str:
        return f"{self.attribute} = {self.value}"


@dataclass(frozen=True)
class NumericItem:
    """``attribute in interval`` for a continuous attribute."""

    attribute: str
    interval: Interval

    def cover(self, dataset: Dataset) -> np.ndarray:
        return self.interval.cover(dataset.column(self.attribute))

    def __str__(self) -> str:
        iv = self.interval
        left = "<=" if iv.lo_closed else "<"
        right = "<=" if iv.hi_closed else "<"
        lo = "-inf" if math.isinf(iv.lo) else f"{iv.lo:g}"
        hi = "inf" if math.isinf(iv.hi) else f"{iv.hi:g}"
        return f"{lo} {left} {self.attribute} {right} {hi}"


Item = Union[CategoricalItem, NumericItem]


class Itemset:
    """An immutable set of items, at most one per attribute.

    Itemsets are hashable and ordered canonically by attribute name so that
    equal itemsets compare and hash equal regardless of construction order.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Item] = ()) -> None:
        by_attr: dict[str, Item] = {}
        for item in items:
            if item.attribute in by_attr:
                raise ValueError(
                    f"duplicate attribute {item.attribute!r} in itemset"
                )
            by_attr[item.attribute] = item
        self._items: tuple[Item, ...] = tuple(
            by_attr[name] for name in sorted(by_attr)
        )
        self._hash = hash(self._items)

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    # -- pickling -------------------------------------------------------
    #
    # The cached hash must NOT cross process boundaries: str hashing is
    # salted per interpreter (PYTHONHASHSEED), so a hash computed in the
    # writing process disagrees with hashes of equal itemsets built in
    # the reading one — dict/set lookups would silently miss (observed
    # as checkpoint resumes losing redundancy prunes).  Recompute it.

    def __getstate__(self) -> tuple:
        return self._items

    def __setstate__(self, state: tuple) -> None:
        self._items = state
        self._hash = hash(state)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Itemset):
            return NotImplemented
        return self._items == other._items

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def items(self) -> tuple[Item, ...]:
        return self._items

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(item.attribute for item in self._items)

    def item_for(self, attribute: str) -> Item | None:
        for item in self._items:
            if item.attribute == attribute:
                return item
        return None

    # -- set algebra ----------------------------------------------------

    def with_item(self, item: Item) -> "Itemset":
        """New itemset with one more item (attribute must be fresh)."""
        return Itemset(self._items + (item,))

    def without_attribute(self, attribute: str) -> "Itemset":
        # Dropping items keeps the rest canonical, so the constructor's
        # validation and sort are skipped (the redundancy rule builds
        # every leave-one-out subset of a level through here).
        out = object.__new__(Itemset)
        out._items = tuple(i for i in self._items if i.attribute != attribute)
        out._hash = hash(out._items)
        return out

    def union(self, other: "Itemset") -> "Itemset":
        return Itemset(self._items + other._items)

    def is_subset_of(self, other: "Itemset") -> bool:
        mine = set(self._items)
        theirs = set(other._items)
        return mine <= theirs

    def is_proper_subset_of(self, other: "Itemset") -> bool:
        return len(self) < len(other) and self.is_subset_of(other)

    def region_subsumes(self, other: "Itemset") -> bool:
        """True when ``other`` describes a region inside this itemset's.

        Every item of ``self`` must be matched in ``other``: categorical
        items by equality, numeric items by interval containment (the
        other's interval lies within ours).  Used by pure-space pruning:
        any itemset whose region sits inside a PR = 1 region can only be a
        redundant contrast (Section 4.3).
        """
        for item in self._items:
            theirs = other.item_for(item.attribute)
            if theirs is None:
                return False
            if isinstance(item, CategoricalItem):
                if item != theirs:
                    return False
            else:
                if not isinstance(theirs, NumericItem):
                    return False
                if not item.interval.contains_interval(theirs.interval):
                    return False
        return True

    def proper_subsets(self) -> Iterator["Itemset"]:
        """All non-empty proper subsets (used by productivity checks)."""
        n = len(self._items)
        for bits in range(1, (1 << n) - 1):
            yield Itemset(
                self._items[i] for i in range(n) if bits & (1 << i)
            )

    def partitions(self) -> Iterator[tuple["Itemset", "Itemset"]]:
        """All binary partitions ``(a, c\\a)`` with both sides non-empty.

        Each unordered partition is yielded once (the side containing the
        first item is reported first).
        """
        n = len(self._items)
        for bits in range(1, 1 << (n - 1)):
            left = Itemset(
                self._items[i] for i in range(n) if bits & (1 << i)
            )
            right = Itemset(
                self._items[i] for i in range(n) if not bits & (1 << i)
            )
            yield right, left  # right always contains item 0

    # -- evaluation ------------------------------------------------------

    def cover(self, dataset: Dataset) -> np.ndarray:
        """Boolean coverage mask of this itemset over a dataset."""
        mask = np.ones(dataset.n_rows, dtype=bool)
        for item in self._items:
            mask &= item.cover(dataset)
        return mask

    def __str__(self) -> str:
        if not self._items:
            return "{}"
        return " and ".join(str(item) for item in self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Itemset({self})"
