"""Support counting: one counter per data layout.

The miners delegate all support counting — itemset contingency rows and
per-group counts inside a packed cover — to a
:class:`~repro.counting.base.CountingBackend`.  The dataset's type picks
the counter:

:class:`~repro.dataset.table.Dataset`
    :class:`~repro.counting.mask.MaskBackend` — boolean masks over numpy
    columns.  Batches of categorical candidates are counted from one
    contingency table per attribute set (a ``bincount`` over the code
    columns), bounded to ``max(n_rows, 65_536)`` cells; covers are
    counted on packed words against a per-group bit stack.
:class:`~repro.dataset.chunked.ChunkedView`
    :class:`~repro.counting.chunked.ChunkedBackend` — per-chunk counts
    over an out-of-core view, summed, with a (chunk digest, itemset)
    counts LRU.
"""

from __future__ import annotations

from .base import BackendCounters, CountingBackend, CountingBackendBase
from .mask import MaskBackend

__all__ = [
    "BackendCounters",
    "CountingBackend",
    "CountingBackendBase",
    "MaskBackend",
    "backend_for",
]


def backend_for(dataset) -> CountingBackend:
    """The counter for a dataset's layout: :class:`ChunkedBackend
    <repro.counting.chunked.ChunkedBackend>` for a lazy out-of-core
    view, :class:`MaskBackend` for an in-memory dataset.

    This is the single construction point the search layers use
    (``SearchEngine``, the parallel worker initialiser, the serial
    fallback), so every execution path counts through the same backend
    for the same dataset.
    """
    # imported lazily: the chunked layer is optional machinery most
    # in-memory runs never touch
    from ..dataset.chunked import ChunkedView

    if isinstance(dataset, ChunkedView):
        from .chunked import ChunkedBackend

        return ChunkedBackend(dataset)
    return MaskBackend(dataset)
