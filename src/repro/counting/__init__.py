"""Support counting: one counter for every data layout.

The miners delegate all support counting — itemset contingency rows and
per-group counts inside a packed cover — to a
:class:`~repro.counting.base.CountingBackend` built over the dataset.
It reads the data only through the dataset's chunk protocol
(``chunk_sizes``, ``chunk(i)``, ``chunk_group_codes(i)``), so an
in-memory :class:`~repro.dataset.table.Dataset` is the one-chunk case of
an out-of-core :class:`~repro.dataset.chunked.ChunkedView`.  Batches of
categorical candidates are counted from one contingency table per
attribute set, summed over the chunks; everything else is counted on
packed words against per-chunk group bit stacks.
"""

from __future__ import annotations

from .base import BackendCounters, CountingBackend

__all__ = ["BackendCounters", "CountingBackend"]
