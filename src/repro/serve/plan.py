"""Compiled matcher plans: pattern items lowered to columnar numpy.

The per-request cost of :meth:`PatternIndex.match` is a Python loop over
every pattern and every item — fine for a handful of lookups, hopeless
for production traffic.  A :class:`MatcherPlan` compiles one run's
patterns **once** (at index build / hot-swap time) into flat numpy
structures:

* one *column* per attribute and item kind the patterns use: a
  categorical column reads a row's label through a label → code table
  (the code as a float), a numeric column reads the row's number;
* per item: its column and the closed bounds ``lo <= v <= hi`` that
  satisfy it.  A categorical item is ``[code, code]``; a numeric item's
  open endpoint moves one float inward, since for every float ``v``,
  ``v > lo`` is ``v >= nextafter(lo, +inf)`` and ``v < hi`` is
  ``v <= nextafter(hi, -inf)``;
* a ``(K, P)`` slot table: entry ``[k, p]`` is pattern ``p``'s ``k``-th
  item, or a sentinel item every row satisfies where ``p`` has fewer
  than ``K`` items (``K`` is the largest itemset, 1 at least).

A row batch is then evaluated against *all* patterns in a handful of
array ops: gather the batch into one ``(columns, B)`` float matrix
(NaN where a row has no value that can satisfy an item), compare every
item's column against its bounds, and AND the ``K`` rows of the slot
table's gathers.

Semantics are pinned (by ``tests/test_matcher_plan.py``) to be
bit-identical to the reference scan :meth:`PatternIndex.match` and to
brute-force :meth:`Itemset.cover`:

* a row missing one of a pattern's attributes does not match it;
* an unseen category label (or any non-string value, booleans included)
  never matches a categorical item;
* interval membership follows the items' own endpoint closure; ``NaN``
  matches nothing;
* a non-numeric value, or an integer beyond the float range, for an
  attribute any pattern constrains numerically is a :class:`MatchError`
  — raised **deterministically** by the up-front validators here
  (attributes checked in sorted order, rows in input order), never
  mid-scan dependent on pattern order.
"""

from __future__ import annotations

import math
from itertools import chain, pairwise, repeat
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.items import CategoricalItem
from .index import MatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import IndexedPattern

__all__ = ["MatcherPlan"]

_NAN = float("nan")
_DICTS = frozenset((dict,))
_FLOATS = frozenset((float,))
_NUMBERS = frozenset((float, int))


def _fits_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


class MatcherPlan:
    """One run's patterns, compiled for vectorized point/batch lookup."""

    __slots__ = (
        "entries",
        "_entry_array",
        "numeric_attributes",
        "_columns",
        "_item_columns",
        "_lo",
        "_hi",
        "_slots",
    )

    def __init__(self, entries: Sequence["IndexedPattern"]) -> None:
        self.entries = tuple(entries)
        # _per_row picks a batch's hit entries with one gather from this.
        self._entry_array = np.empty(len(self.entries), dtype=object)
        self._entry_array[:] = self.entries
        tables: dict[str, dict[str, float]] = {}
        numeric: set[str] = set()
        for entry in self.entries:
            for item in entry.pattern.itemset:
                if isinstance(item, CategoricalItem):
                    table = tables.setdefault(item.attribute, {})
                    table.setdefault(item.value, float(len(table)))
                else:
                    numeric.add(item.attribute)
        self.numeric_attributes: tuple[str, ...] = tuple(sorted(numeric))
        # A column is (attribute, label table), the table None for numbers.
        self._columns: tuple[tuple[str, dict[str, float] | None], ...] = (
            *((name, tables[name]) for name in sorted(tables)),
            *((name, None) for name in self.numeric_attributes),
        )
        column_of = {
            (name, table is None): j
            for j, (name, table) in enumerate(self._columns)
        }
        columns: list[int] = []
        lo: list[float] = []
        hi: list[float] = []
        per_pattern: list[list[int]] = []  # each pattern's item positions
        for entry in self.entries:
            per_pattern.append([])
            for item in entry.pattern.itemset:
                per_pattern[-1].append(len(columns))
                if isinstance(item, CategoricalItem):
                    columns.append(column_of[item.attribute, False])
                    code = tables[item.attribute][item.value]
                    lo.append(code)
                    hi.append(code)
                else:
                    # Interval has no NaN endpoint, and an open one is
                    # never +inf below or -inf above (a degenerate
                    # interval is closed), so one step inward is exact.
                    interval = item.interval
                    columns.append(column_of[item.attribute, True])
                    lo.append(
                        interval.lo
                        if interval.lo_closed
                        else math.nextafter(interval.lo, math.inf)
                    )
                    hi.append(
                        interval.hi
                        if interval.hi_closed
                        else math.nextafter(interval.hi, -math.inf)
                    )
        self._item_columns = np.asarray(columns, dtype=np.intp)
        self._lo = np.asarray(lo, dtype=np.float64)[:, None]
        self._hi = np.asarray(hi, dtype=np.float64)[:, None]
        # Item len(columns) is the sentinel: match_mask sets its row True.
        self._slots = np.full(
            (max([1, *map(len, per_pattern)]), len(per_pattern)),
            len(columns),
            dtype=np.intp,
        )
        for position, items in enumerate(per_pattern):
            self._slots[: len(items), position] = items

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_items(self) -> int:
        return len(self._item_columns)

    # -- validation -----------------------------------------------------

    def validate_row(self, row: Mapping[str, Any], where: str = "") -> None:
        """Raise :class:`MatchError` for a row no pattern could be
        evaluated against.

        Deterministic on purpose: numerically-constrained attributes are
        checked in sorted order, so the same bad row always produces the
        same error regardless of how the run orders its patterns (the
        old mid-scan check made 4xx-vs-partial-result depend on pattern
        iteration order).
        """
        if not isinstance(row, Mapping):
            raise MatchError(
                f"{where}row must be a mapping, got {type(row).__name__}"
            )
        for attribute in self.numeric_attributes:
            if attribute not in row:
                continue
            value = row[attribute]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MatchError(
                    f"{where}attribute {attribute!r} is continuous; "
                    f"row value {value!r} is not a number"
                )
            if isinstance(value, int) and not _fits_float(value):
                raise MatchError(
                    f"{where}attribute {attribute!r} is continuous; "
                    f"row value is an integer beyond the float range"
                )

    def validate_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Validate a whole batch up front (row index named in the error).

        One exact-type pass per numerically-constrained attribute clears
        a batch of dicts holding floats and ints; only a batch it does
        not clear goes through :meth:`validate_row` row by row, which
        raises for the first offender (or passes, say for a ``float``
        subclass).
        """
        if self._numbers_only(rows):
            return
        for i, row in enumerate(rows):
            self.validate_row(row, where=f"row {i}: ")

    def _numbers_only(self, rows: Sequence[Mapping[str, Any]]) -> bool:
        if not _DICTS.issuperset(map(type, rows)):
            return False
        for attribute in self.numeric_attributes:
            values = [row.get(attribute, 0.0) for row in rows]
            if _FLOATS.issuperset(map(type, values)):
                continue
            if not (_NUMBERS.issuperset(map(type, values))
                    and all(map(_fits_float, values))):
                return False
        return True

    # -- evaluation -----------------------------------------------------

    def match_mask(self, rows: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """``(B, n_patterns)`` boolean coverage of pre-validated rows.

        Call :meth:`validate_rows` first; this method assumes every value
        of a numerically-constrained attribute is a number that fits a
        float.
        """
        values = self._gather(rows)[self._item_columns]
        n_items = len(values)
        satisfied = np.empty((n_items + 1, len(rows)), dtype=bool)
        np.greater_equal(values, self._lo, out=satisfied[:n_items])
        satisfied[:n_items] &= values <= self._hi
        satisfied[n_items] = True
        slots = self._slots
        covered = satisfied[slots[0]]
        for k in range(1, len(slots)):
            covered &= satisfied[slots[k]]
        return covered.T

    def _gather(self, rows: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """The rows' value of every column, as a ``(columns, B)`` float
        matrix: a label's code, a number, or NaN (attribute missing,
        label unseen, or a value no label equals)."""
        n_rows = len(rows)
        parts: list[list] = []
        for attribute, codes in self._columns:
            if codes is None:
                parts.append([row.get(attribute, _NAN) for row in rows])
                continue
            labels = [row.get(attribute) for row in rows]
            try:
                parts.append(list(map(codes.get, labels, repeat(_NAN))))
            except TypeError:  # an unhashable value, which no label equals
                parts.append([
                    codes.get(label, _NAN) if isinstance(label, str) else _NAN
                    for label in labels
                ])
        return np.fromiter(
            chain.from_iterable(parts),
            dtype=np.float64,
            count=len(parts) * n_rows,
        ).reshape(len(parts), n_rows)

    def _per_row(self, mask: np.ndarray) -> list[list["IndexedPattern"]]:
        """Each row's matched entries, in run order, from one
        ``np.nonzero`` of the whole ``(B, P)`` mask."""
        hit_rows, hit_patterns = np.nonzero(mask)
        matched = self._entry_array[hit_patterns].tolist()
        bounds = np.searchsorted(hit_rows, np.arange(len(mask) + 1))
        return [matched[a:b] for a, b in pairwise(bounds.tolist())]

    def match_batch(
        self, rows: Sequence[Mapping[str, Any]]
    ) -> list[list["IndexedPattern"]]:
        """Per-row matched patterns (run order), for a batch of rows."""
        self.validate_rows(rows)
        return self._per_row(self.match_mask(rows))

    def match(self, row: Mapping[str, Any]) -> list["IndexedPattern"]:
        """Single-row convenience over :meth:`match_batch`."""
        self.validate_row(row)
        return self._per_row(self.match_mask([row]))[0]
