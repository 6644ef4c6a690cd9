"""Pluggable support-counting backends.

The miners delegate all support counting — itemset contingency rows and
mask-restricted group counts — to a :class:`~repro.counting.base.
CountingBackend`.  Two implementations ship:

``mask``
    :class:`~repro.counting.mask.MaskBackend` — boolean masks over numpy
    columns; the historical reference path and the default.  Batches of
    categorical candidates are counted from one contingency table per
    attribute set (a ``bincount`` over the code columns), bounded to
    ``max(n_rows, 65_536)`` cells.
``bitmap``
    :class:`~repro.counting.bitmap.BitmapBackend` — packed bit-vectors with
    per-group popcounts and an LRU cache of categorical-context coverage
    vectors; the fast path for categorical-heavy workloads.

Select one via ``MinerConfig(counting_backend="bitmap")`` or the CLI's
``--backend`` flag.
"""

from __future__ import annotations

from .base import BackendCounters, CountingBackend, CountingBackendBase
from .bitmap import BitmapBackend
from .mask import MaskBackend

__all__ = [
    "BackendCounters",
    "CountingBackend",
    "CountingBackendBase",
    "MaskBackend",
    "BitmapBackend",
    "BACKENDS",
    "available_backends",
    "backend_from_config",
    "make_backend",
]

BACKENDS: dict[str, type] = {
    MaskBackend.name: MaskBackend,
    BitmapBackend.name: BitmapBackend,
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


def make_backend(
    name: str, dataset, *, cache_size: int | None = None
) -> CountingBackend:
    """Instantiate a registered backend for a dataset.

    ``name`` and ``dataset`` are the identity of the backend and stay
    positional; every option is keyword-only (this signature is the
    formal API — see DESIGN.md §12).
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown counting backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    if cache_size is None:
        return cls(dataset)
    return cls(dataset, cache_size=cache_size)


def backend_from_config(config, dataset) -> CountingBackend:
    """Instantiate the backend a :class:`~repro.core.config.MinerConfig`
    asks for, honouring ``backend_cache_size`` and dispatching lazy
    out-of-core datasets to the chunk-aware backend.

    This is the single construction point the search layers use
    (``SearchEngine``, the parallel worker initialiser, the serial
    fallback), so every execution path counts through the same backend
    for the same (config, dataset) pair.
    """
    # imported lazily: the chunked layer is optional machinery most
    # in-memory runs never touch
    from ..dataset.chunked import ChunkedView

    if isinstance(dataset, ChunkedView):
        from .chunked import ChunkedBackend

        return ChunkedBackend(
            dataset,
            inner=config.counting_backend,
            cache_size=config.backend_cache_size,
        )
    return make_backend(
        config.counting_backend, dataset,
        cache_size=config.backend_cache_size,
    )
