"""Boolean-mask counting backend (the historical reference path).

This extracts exactly the counting logic the search layers used inline
before backends existed: itemset coverage is the AND of per-item boolean
masks over the raw columns, and per-group counting ANDs that mask with each
group's cached row mask and counts the hits
(:meth:`~repro.dataset.table.Dataset.group_counts`).  It is the
byte-identical baseline every other backend must match.

Batches count each categorical combination once.  Every purely
categorical candidate is one row of its attribute set's group-by-itemset
contingency table (Eq. 1), so :meth:`MaskBackend.group_counts_batch`
builds that ``(card_1, ..., card_k, n_groups)`` table with a single
``bincount`` over a mixed-radix key of the code columns and the group
codes, then reads every candidate's row from it by index: one pass over
the rows per attribute set instead of one mask per candidate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..core.items import CategoricalItem
from .base import CountingBackendBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.items import Itemset

__all__ = ["MaskBackend"]

#: Tables up to this many cells are built whatever the row count; above
#: it a table may have at most one cell per row.  The bound keeps a
#: table's memory within what the per-candidate masks it replaces cost,
#: so a few high-cardinality columns can never ask for gigabytes.
_MIN_TABLE_CELLS = 65_536


class MaskBackend(CountingBackendBase):
    """Count supports with fresh boolean masks per itemset, and batches
    with one contingency table per categorical attribute set."""

    name = "mask"
    supports_batch = True

    def cover(self, itemset: "Itemset") -> np.ndarray:
        return itemset.cover(self.dataset)

    def group_counts(self, itemset: "Itemset") -> np.ndarray:
        self.count_calls += 1
        return self.dataset.group_counts(itemset.cover(self.dataset))

    def group_counts_batch(
        self, itemsets: Sequence["Itemset"] | Iterable["Itemset"]
    ) -> np.ndarray:
        """Stacked counts: one contingency table per attribute set.

        Purely categorical itemsets (the empty one included) are grouped
        by attribute set and read from that set's table.  This is exact:
        ``Dataset`` validates every code into ``[0, cardinality)``, so no
        two cells share a key.  A table is built only when it has at most
        ``max(n_rows, 65_536)`` cells; itemsets whose set is over that
        bound, and itemsets with numeric items, are counted one by one
        with :meth:`group_counts` and tallied in ``batch_fallbacks``.
        """
        items = list(itemsets)
        self.batch_calls += 1
        self.batched_candidates += len(items)
        dataset = self.dataset
        out = np.zeros((len(items), dataset.n_groups), dtype=np.int64)
        by_attributes: dict[tuple[str, ...], list[int]] = {}
        one_by_one: list[int] = []
        for i, itemset in enumerate(items):
            if all(isinstance(item, CategoricalItem) for item in itemset):
                by_attributes.setdefault(itemset.attributes, []).append(i)
            else:
                one_by_one.append(i)
        max_cells = max(dataset.n_rows, _MIN_TABLE_CELLS)
        for names, positions in by_attributes.items():
            attributes = [dataset.attribute(name) for name in names]
            shape = (*(a.cardinality for a in attributes), dataset.n_groups)
            if math.prod(shape) > max_cells:
                one_by_one.extend(positions)
                continue
            # code_of raises for unknown labels exactly as the scalar
            # path does, before any table is built.
            codes = np.array(
                [
                    [a.code_of(item.value)
                     for a, item in zip(attributes, items[i])]
                    for i in positions
                ],
                dtype=np.intp,
            )
            table = self._table(names, shape)
            out[positions] = table[tuple(codes.T)]
            self.count_calls += len(positions)
        self.batch_fallbacks += len(one_by_one)
        for i in one_by_one:
            out[i] = self.group_counts(items[i])
        return out

    def _table(
        self, names: tuple[str, ...], shape: tuple[int, ...]
    ) -> np.ndarray:
        """Group-by-itemset contingency table of one attribute set.

        The key of a row is its codes in mixed radix ``shape`` (the
        group code last), so ``bincount`` fills the table in row-major
        order and ``table[c_1, ..., c_k]`` is the contingency row of the
        itemset with those codes.
        """
        columns = [self.dataset.column(name) for name in names]
        columns.append(self.dataset.group_codes)
        key = columns[0].astype(np.int64)
        for column, radix in zip(columns[1:], shape[1:]):
            key *= radix
            key += column
        return np.bincount(key, minlength=math.prod(shape)).reshape(shape)

    def mask_group_counts(self, mask: np.ndarray) -> np.ndarray:
        self.count_calls += 1
        return self.dataset.group_counts(mask)
