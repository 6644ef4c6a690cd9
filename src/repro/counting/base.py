"""One support counter for every data layout.

Every miner in this package reduces to one operation: given an itemset
(or a packed row cover), produce the per-group covered counts — the
contingency row of Eq. 1.  That row is a sum over row chunks: the row
of an itemset over the whole table is the element-wise sum of its rows
over the chunks, and every downstream statistic (chi-square, support
difference, PR, the CLT bounds) is a function of the summed integer
counts.  Counting chunk by chunk and summing is therefore *exact*, which
is what makes out-of-core mining byte-identical to in-memory mining.

:class:`CountingBackend` reaches the data only through the dataset's
chunk protocol — ``chunk_sizes``, ``chunk(i)`` and
``chunk_group_codes(i)``.  An in-memory
:class:`~repro.dataset.table.Dataset` is the one-chunk case (``(n_rows,)``,
itself and its own group codes); a
:class:`~repro.dataset.chunked.ChunkedView` answers from its pinned
chunks, reading each chunk's group codes straight from its group file.
Two paths count:

* a batch's purely categorical itemsets are read from one group-by-itemset
  contingency table per attribute set, built one set at a time from
  summed per-chunk ``bincount``\\ s while it has at most
  ``max(largest chunk, 65_536)`` cells;
* every other itemset, and every packed :class:`~repro.core.cover.Cover`
  of the SDAD-CS search, is counted by a packed AND + popcount against
  per-chunk group bit stacks (:meth:`Cover.group_counts`), never
  densifying a full-row mask.

The backend tallies its work — a batch of N counts as N ``count_calls``,
like N cover counts — and publishes it into
:class:`~repro.core.instrumentation.MiningStats`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.cover import Cover
from ..core.items import CategoricalItem
from ..dataset.table import DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instrumentation import MiningStats
    from ..core.items import Itemset
    from ..dataset.table import Dataset

__all__ = ["BackendCounters", "CountingBackend"]

#: Tables up to this many cells are built whatever the chunk size; above
#: it a table may have at most one cell per row of the largest chunk.
#: The bound keeps a table's memory within what the per-candidate covers
#: it replaces cost, so a few high-cardinality columns can never ask for
#: gigabytes, and an out-of-core view stays at O(chunk).
_MIN_TABLE_CELLS = 65_536


@dataclass(frozen=True)
class BackendCounters:
    """Snapshot of a backend's instrumentation counters.

    Snapshots support subtraction so a caller can attribute counts to one
    slice of work (the parallel workers bracket each task this way).
    """

    count_calls: int = 0
    batch_calls: int = 0
    batched_candidates: int = 0
    batch_fallbacks: int = 0

    def __sub__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            self.count_calls - other.count_calls,
            self.batch_calls - other.batch_calls,
            self.batched_candidates - other.batched_candidates,
            self.batch_fallbacks - other.batch_fallbacks,
        )

    def __add__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            self.count_calls + other.count_calls,
            self.batch_calls + other.batch_calls,
            self.batched_candidates + other.batched_candidates,
            self.batch_fallbacks + other.batch_fallbacks,
        )


class CountingBackend:
    """Count supports of itemsets and packed covers over ``dataset``'s
    chunks (see the module docs)."""

    def __init__(self, dataset: "Dataset") -> None:
        self.dataset = dataset
        self.chunk_sizes: tuple[int, ...] = dataset.chunk_sizes
        self._max_cells = max(max(self.chunk_sizes, default=0),
                              _MIN_TABLE_CELLS)
        self._group_stacks: list[np.ndarray] | None = None
        self.count_calls = 0
        self.batch_calls = 0
        self.batched_candidates = 0
        self.batch_fallbacks = 0
        self._published = BackendCounters()

    def group_counts_batch(self, itemsets: Iterable["Itemset"]) -> np.ndarray:
        """Per-group counts of N itemsets as one ``(N, n_groups)`` matrix.

        Purely categorical itemsets (the empty one included) are grouped
        by attribute set and read from that set's contingency table.
        This is exact: ``Dataset`` validates every code into
        ``[0, cardinality)``, so no two cells share a key.  Itemsets whose
        set is over the table bound, and itemsets with numeric items, are
        counted one by one on their packed covers and tallied in
        ``batch_fallbacks``.
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
        for names, positions in by_attributes.items():
            attributes = [dataset.attribute(name) for name in names]
            shape = (*(a.cardinality for a in attributes), dataset.n_groups)
            if math.prod(shape) > self._max_cells:
                one_by_one.extend(positions)
                continue
            # code_of raises for unknown labels exactly as a cover does,
            # before any table is built.
            codes = np.array(
                [
                    [a.code_of(item.value)
                     for a, item in zip(attributes, items[i])]
                    for i in positions
                ],
                dtype=np.intp,
            )
            out[positions] = self._table(names, shape)[tuple(codes.T)]
            self.count_calls += len(positions)
        self.batch_fallbacks += len(one_by_one)
        for i in one_by_one:
            out[i] = self.cover_group_counts(self.cover_of(items[i]))
        return out

    def _table(
        self, names: tuple[str, ...], shape: tuple[int, ...]
    ) -> np.ndarray:
        """Group-by-itemset contingency table of one attribute set.

        The key of a row is its codes in mixed radix ``shape`` (the group
        code last), so ``bincount`` fills the table in row-major order
        and ``table[c_1, ..., c_k]`` is the contingency row of the
        itemset with those codes.  Each chunk's table is added to the
        first one's, so one table is alive at a time.
        """
        size = math.prod(shape)
        table: np.ndarray | None = None
        for i in range(len(self.chunk_sizes)):
            chunk = self.dataset.chunk(i)
            columns = [chunk.column(name) for name in names]
            columns.append(chunk.group_codes)
            key = columns[0].astype(np.int64)
            for column, radix in zip(columns[1:], shape[1:]):
                key *= radix
                key += column
            counts = np.bincount(key, minlength=size)
            if table is None:
                table = counts
            else:
                table += counts
        if table is None:  # a view of no chunks
            table = np.zeros(size, dtype=np.int64)
        return table.reshape(shape)

    def cover_of(self, itemset: "Itemset") -> Cover:
        """Packed coverage of an itemset, one lazy segment per chunk: no
        chunk is read until the search intersects or counts the cover,
        and each is then covered and packed on its own (O(chunk))."""
        dataset = self.dataset

        def segment(i: int) -> np.ndarray:
            return np.packbits(itemset.cover(dataset.chunk(i)))

        return Cover(
            [functools.partial(segment, i)
             for i in range(len(self.chunk_sizes))],
            self.chunk_sizes,
        )

    def full_cover(self) -> Cover:
        """Packed coverage of every row (the empty context)."""
        return Cover.full(self.chunk_sizes)

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts inside a packed cover: one AND + popcount per
        chunk against its group bit stack, equal to
        ``dataset.group_counts(cover.to_dense())``.  A cover that is not
        chunk-aligned with the dataset raises :class:`DatasetError`."""
        self.count_calls += 1
        if cover.chunk_sizes != self.chunk_sizes:
            raise DatasetError("cover is not chunk-aligned with the dataset")
        if not self.chunk_sizes:
            # A view of no chunks covers no row of any group; the cover
            # alone cannot say how many groups there are.
            return np.zeros(self.dataset.n_groups, dtype=np.int64)
        if self._group_stacks is None:
            # ``n_groups * n_rows / 8`` bytes, built once.  A view maps
            # each chunk's group file for them: built from the widened
            # codes of chunk datasets instead, they cost a chunked mine
            # about four times the page faults (DESIGN.md §7).
            groups = range(self.dataset.n_groups)
            self._group_stacks = [
                np.stack([np.packbits(codes == g) for g in groups])
                for codes in map(self.dataset.chunk_group_codes,
                                 range(len(self.chunk_sizes)))
            ]
        return cover.group_counts(self._group_stacks)

    def counters(self) -> BackendCounters:
        """Current instrumentation snapshot."""
        return BackendCounters(
            self.count_calls,
            self.batch_calls,
            self.batched_candidates,
            self.batch_fallbacks,
        )

    def publish(self, stats: "MiningStats") -> None:
        """Fold the counters accrued since the previous publish into
        ``stats``.  Delta semantics let a long-lived backend (a parallel
        worker's) publish into a fresh stats object per task without
        double counting."""
        current = self.counters()
        delta = current - self._published
        self._published = current
        stats.count_calls += delta.count_calls
        stats.batch_calls += delta.batch_calls
        stats.batched_candidates += delta.batched_candidates
        stats.batch_fallbacks += delta.batch_fallbacks


#: Read only by ``benchmarks/suite/tracer.py``, which wraps this name.
CountingBackendBase = CountingBackend
