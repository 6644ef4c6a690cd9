"""Packed-bitmap counting backend (SciCSM-style hot path).

Counting strategy:

* every ``(attribute, value)`` pair of the categorical attributes gets a
  packed bit-vector (built once, via :class:`~repro.dataset.bitmap.
  BitmapIndex`);
* a purely categorical itemset's coverage is the AND of its item vectors,
  and its contingency row is one AND + popcount per group — ``|groups| + 1``
  vectorised word operations over ``n_rows / 8`` bytes instead of
  ``|items| + 1`` boolean passes over full-width columns;
* the coverage vectors of categorical *contexts* are LRU-memoized, so a
  context counted at search level ``n`` makes each of its level ``n + 1``
  extensions a single AND away — the level-wise candidate generation of
  the search (and the SDAD-CS context enumeration) hits this cache almost
  every time;
* itemsets containing numeric items fall back to a hybrid: the categorical
  prefix comes from the (cached) bitmap, numeric intervals are applied as
  boolean masks, and the final count packs the mask and popcounts it
  against the per-group bit-vectors — still several times cheaper than
  ``bincount`` over int64 group codes.

All counts are exact popcounts, so results are byte-identical to
:class:`~repro.counting.mask.MaskBackend` (asserted by the parity tests in
``tests/test_counting.py``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..core.cover import Cover
from ..core.items import CategoricalItem, Itemset
from ..dataset.bitmap import BitmapIndex, popcount_rows
from ..dataset.table import DatasetError
from .base import CountingBackendBase

__all__ = ["BitmapBackend"]

#: default number of context coverage vectors kept in the LRU cache; at
#: ``n_rows / 8`` bytes per entry this stays a few dozen MB even for
#: million-row datasets.
DEFAULT_CACHE_SIZE = 8192


#: cap on the transient ``(slab, n_groups, n_words)`` uint8 buffer used by
#: the batch popcount sweep, in bytes (~4 MB keeps it cache-friendly).
_BATCH_SLAB_BYTES = 4 * 1024 * 1024


class BitmapBackend(CountingBackendBase):
    """Count supports with packed bit-vectors and per-group popcounts."""

    name = "bitmap"
    supports_batch = True

    def __init__(self, dataset, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(dataset)
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.cache_size = cache_size
        self._index = BitmapIndex(dataset, dataset.schema.categorical_names)
        # (n_groups, n_words) stack: one fused ufunc call counts all groups
        self._group_stack = np.stack(self._index.group_bitmaps)
        self._cache: "OrderedDict[Itemset, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Packed coverage of categorical itemsets (the cached hot path)
    # ------------------------------------------------------------------

    def _bits(self, itemset: Itemset) -> np.ndarray:
        """Packed coverage of a purely categorical itemset.

        Single items read straight from the index (the index *is* their
        cache); longer contexts recurse on the canonical prefix so a
        level-``n`` vector is reused by every level-``n+1`` extension.
        """
        items = itemset.items
        if not items:
            return self._index.full_bits
        if len(items) == 1:
            return self._index.item_bitmap(items[0])
        cached = self._cache.get(itemset)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(itemset)
            return cached
        self.cache_misses += 1
        prefix = Itemset(items[:-1])
        bits = self._bits(prefix) & self._index.item_bitmap(items[-1])
        self._cache[itemset] = bits
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return bits

    def _split(
        self, itemset: Itemset
    ) -> tuple[Itemset, tuple]:
        """Partition an itemset into (categorical part, other items)."""
        cat = [i for i in itemset if isinstance(i, CategoricalItem)]
        rest = tuple(i for i in itemset if not isinstance(i, CategoricalItem))
        if len(cat) == len(itemset.items):
            return itemset, rest
        return Itemset(cat), rest

    def _counts_of_bits(self, bits: np.ndarray) -> np.ndarray:
        return popcount_rows(self._group_stack & bits)

    # ------------------------------------------------------------------
    # CountingBackend interface
    # ------------------------------------------------------------------

    def cover(self, itemset: Itemset) -> np.ndarray:
        categorical, rest = self._split(itemset)
        bits = self._bits(categorical)
        mask = np.unpackbits(bits, count=self.dataset.n_rows).view(np.bool_)
        for item in rest:
            mask = mask & item.cover(self.dataset)
        return mask

    def cover_of(self, itemset: Itemset) -> Cover:
        """Packed coverage straight from the bitmap index.

        The categorical prefix goes through :meth:`_bits` exactly once —
        the same single LRU probe the dense :meth:`cover` path performs,
        so cache accounting is unchanged — and purely categorical
        itemsets (every SDAD-CS context) never densify at all.
        """
        categorical, rest = self._split(itemset)
        bits = self._bits(categorical)
        if rest:
            mask = np.unpackbits(
                bits, count=self.dataset.n_rows
            ).view(np.bool_)
            for item in rest:
                mask = mask & item.cover(self.dataset)
            bits = np.packbits(mask)
        return Cover([bits], (self.dataset.n_rows,))

    def full_cover(self) -> Cover:
        return Cover([self._index.full_bits], (self.dataset.n_rows,))

    def group_counts(self, itemset: Itemset) -> np.ndarray:
        self.count_calls += 1
        categorical, rest = self._split(itemset)
        if not rest:
            return self._counts_of_bits(self._bits(categorical))
        return self._count_mask(self.cover(itemset))

    def group_counts_batch(self, itemsets) -> np.ndarray:
        """Stacked counts: one packed-AND + popcount sweep per slab.

        Purely categorical itemsets (the level-wise hot path) are counted
        together: their packed coverage vectors are stacked into slabs of
        at most ``_BATCH_SLAB_BYTES`` worth of ``(slab, n_groups,
        n_words)`` AND results, and each slab is ANDed against the
        per-group stack as soon as it fills, so a batch of any size holds
        one slab of packed rows at a time.  Itemsets with numeric items
        take the scalar hybrid path and are tallied as fallbacks.
        """
        items = list(itemsets)
        self.batch_calls += 1
        self.batched_candidates += len(items)
        self.count_calls += len(items)
        n_groups = self.dataset.n_groups
        n_words = self._group_stack.shape[1]
        slab = max(1, _BATCH_SLAB_BYTES // max(1, n_groups * n_words))
        out = np.zeros((len(items), n_groups), dtype=np.int64)
        packed_rows: list[np.ndarray] = []
        packed_pos: list[int] = []
        for i, itemset in enumerate(items):
            categorical, rest = self._split(itemset)
            if rest:
                self.batch_fallbacks += 1
                out[i] = self._count_mask(self.cover(itemset))
                continue
            packed_rows.append(self._bits(categorical))
            packed_pos.append(i)
            if len(packed_rows) == slab:
                self._count_slab(packed_rows, packed_pos, out)
                packed_rows, packed_pos = [], []
        if packed_rows:
            self._count_slab(packed_rows, packed_pos, out)
        return out

    def _count_slab(self, packed_rows, positions, out) -> None:
        chunk = np.stack(packed_rows)
        anded = chunk[:, None, :] & self._group_stack[None, :, :]
        out[positions] = popcount_rows(
            anded.reshape(-1, chunk.shape[1])
        ).reshape(chunk.shape[0], -1)

    def _count_mask(self, mask: np.ndarray) -> np.ndarray:
        return self._counts_of_bits(np.packbits(mask))

    def mask_group_counts(self, mask: np.ndarray) -> np.ndarray:
        self.count_calls += 1
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self.dataset.n_rows,):
            raise DatasetError("mask must be a boolean array over rows")
        return self._count_mask(mask)

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Count a packed cover without unpacking: one fused AND +
        popcount against the per-group stack.

        This is the cover-AND hotspot in packed form — the dense path
        paid an ``n_rows`` boolean pack here on every space count.
        """
        self.count_calls += 1
        if cover.chunk_sizes != (self.dataset.n_rows,):
            # Foreign chunking (not produced by this backend): realign.
            return self._counts_of_bits(np.packbits(cover.to_dense()))
        return self._counts_of_bits(cover.segment(0))

    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Introspection for tests and benches."""
        return {
            "entries": len(self._cache),
            "capacity": self.cache_size,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "index_bytes": self._index.memory_bytes(),
        }
