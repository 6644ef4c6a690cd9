"""Chunk-aware support counting over an out-of-core dataset.

Support counting is embarrassingly additive across row chunks: the
contingency row of Eq. 1 for an itemset over the full table is the
element-wise sum of the rows computed per chunk.  Because every
downstream statistic (chi-square, support difference, PR, the CLT
bounds) is a function of the merged integer count vector, counting per
chunk and summing is *exact* — not an approximation — which is what
makes out-of-core mining byte-identical to in-memory mining.

:class:`ChunkedBackend` wraps a :class:`~repro.dataset.chunked.
ChunkedView` and counts each itemset chunk by chunk:

* per-chunk count vectors are cached in an LRU of
  :data:`DEFAULT_COUNTS_CACHE` entries keyed by
  ``(chunk content digest, itemset)`` — the digest key means appending
  new chunks to the store never invalidates a single cached entry
  (old chunks are immutable and keep their digests);
* itemsets count through transient per-chunk :class:`~repro.dataset.
  table.Dataset` views (bounded by the store's chunk LRU).

The SDAD-CS search state speaks packed per-chunk
:class:`~repro.core.cover.Cover` bitsets (DESIGN.md §13): ``cover_of``
returns lazily-thunked per-chunk segments, and ``cover_group_counts``
counts a cover with one packed AND + popcount per chunk against
digest-keyed per-chunk group stacks.  Nothing on this path ever
materialises a full-row boolean mask or the view's ``int64`` group
codes, which is what keeps mining peak RSS at O(chunk).
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

from ..core.cover import Cover
from ..core.items import Itemset
from ..dataset.chunked import GROUP_FILE, ChunkedView, ChunkMeta
from ..dataset.table import DatasetError
from .base import CountingBackendBase

__all__ = ["ChunkedBackend", "DEFAULT_COUNTS_CACHE"]

#: Number of (chunk digest, itemset) count vectors kept.  Each entry is
#: one small int64 vector (|groups| elements), so even a large cache is
#: a few MB — it is effectively bounded by candidate churn, not memory.
DEFAULT_COUNTS_CACHE = 65_536


class ChunkedBackend(CountingBackendBase):
    """Count supports chunk-by-chunk over a :class:`ChunkedView`
    (``backend.dataset``)."""

    name = "chunked"

    def __init__(self, view: ChunkedView) -> None:
        if not isinstance(view, ChunkedView):
            raise TypeError(
                "ChunkedBackend counts over a ChunkedView "
                "(use ChunkedDataset.view())"
            )
        super().__init__(view)
        self._counts_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._group_stacks: dict[str, np.ndarray] = {}
        self._chunk_sizes = tuple(
            meta.n_rows for meta in view.chunk_metas()
        )

    def _chunk_counts(
        self, meta: ChunkMeta, index: int, itemset: Itemset
    ) -> np.ndarray:
        """Counts of one itemset in one chunk, through the counts LRU."""
        key = (meta.digest, itemset)
        cached = self._counts_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._counts_cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        chunk = self.dataset.chunk_store.chunk_dataset(index)
        counts = chunk.group_counts(itemset.cover(chunk)).astype(np.int64)
        self._counts_cache[key] = counts
        if len(self._counts_cache) > DEFAULT_COUNTS_CACHE:
            self._counts_cache.popitem(last=False)
        return counts

    # ------------------------------------------------------------------
    # CountingBackend interface
    # ------------------------------------------------------------------

    def group_counts(self, itemset: Itemset) -> np.ndarray:
        self.count_calls += 1
        view: ChunkedView = self.dataset
        total = np.zeros(view.n_groups, dtype=np.int64)
        for meta, index in zip(view.chunk_metas(), view.chunk_indices):
            total += self._chunk_counts(meta, index, itemset)
        return total

    def group_counts_batch(self, itemsets) -> np.ndarray:
        """Batch counts with one pass over the chunks.

        Iterating chunk-outer / itemset-inner keeps each chunk's
        memory-mapped columns hot while the whole batch is counted
        against it, instead of touching every chunk once per candidate.
        The ``(chunk digest, itemset)`` LRU is shared with the scalar
        path, so warm entries hit regardless of which path filled them.
        """
        items = list(itemsets)
        self.batch_calls += 1
        self.batched_candidates += len(items)
        self.count_calls += len(items)
        view: ChunkedView = self.dataset
        out = np.zeros((len(items), view.n_groups), dtype=np.int64)
        for meta, index in zip(view.chunk_metas(), view.chunk_indices):
            for i, itemset in enumerate(items):
                out[i] += self._chunk_counts(meta, index, itemset)
        return out

    def cover(self, itemset: Itemset) -> np.ndarray:
        view: ChunkedView = self.dataset
        parts = [itemset.cover(chunk) for chunk in view.iter_chunks()]
        if not parts:
            return np.zeros(0, dtype=bool)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Packed-cover surface: chunk-native, never densifies a full mask
    # ------------------------------------------------------------------

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        return self._chunk_sizes

    def _group_stack_for(self, meta: ChunkMeta) -> np.ndarray:
        """Packed per-group membership stack of one chunk.

        Keyed by the chunk's content digest (append-stable, like the
        counts LRU).  Residency cost is ``n_groups * n_rows / 8`` bytes
        across all chunks — the same budget the in-memory backend pays
        for its one stack.
        """
        stack = self._group_stacks.get(meta.digest)
        if stack is None:
            codes = self.dataset.chunk_store._mmap_file(meta, GROUP_FILE)
            stack = np.stack(
                [
                    np.packbits(codes == g)
                    for g in range(self.dataset.n_groups)
                ]
            )
            self._group_stacks[meta.digest] = stack
        return stack

    def cover_of(self, itemset: Itemset) -> Cover:
        """Lazy per-chunk packed coverage of an itemset.

        Each segment is a thunk: no chunk is read until the search
        actually intersects or counts the cover.  The chunk's coverage
        is then computed transiently and packed immediately — O(chunk)
        peak, never a full-row mask.
        """
        view: ChunkedView = self.dataset
        store = view.chunk_store

        def segment(index):
            chunk = store.chunk_dataset(index)
            return np.packbits(itemset.cover(chunk))

        return Cover(
            [functools.partial(segment, i) for i in view.chunk_indices],
            self._chunk_sizes,
        )

    def full_cover(self) -> Cover:
        return Cover.full(self._chunk_sizes)

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts of a packed cover, chunk by chunk.

        One packed AND + popcount per chunk against the digest-keyed
        group stacks — equal to the dense ``bincount`` while touching
        only ``n_rows / 8`` bytes per chunk.
        """
        self.count_calls += 1
        if cover.chunk_sizes != self._chunk_sizes:
            raise DatasetError(
                "cover is not chunk-aligned with the view"
            )
        return cover.group_counts(
            [
                self._group_stack_for(meta)
                for meta in self.dataset.chunk_metas()
            ]
        )

    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Introspection for tests and benches."""
        return {
            "entries": len(self._counts_cache),
            "capacity": DEFAULT_COUNTS_CACHE,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
        }
