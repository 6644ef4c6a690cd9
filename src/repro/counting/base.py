"""The counting-backend protocol — the single documented counting ABC.

Every miner in this package reduces to one operation: given an itemset (or
an arbitrary boolean row mask), produce the per-group covered counts — the
contingency row of Eq. 1.  A :class:`CountingBackend` encapsulates *how*
that row is computed, so the search layers (`core.search`, `core.sdad`,
`parallel.scheduler`) stay agnostic of the representation:

* :class:`~repro.counting.mask.MaskBackend` — boolean masks over numpy
  columns, the historical reference path, whose batches read purely
  categorical candidates from one contingency table per attribute set;
* :class:`~repro.counting.bitmap.BitmapBackend` — packed bit-vectors with
  per-group popcounts (SciCSM-style, related work [29]) and an LRU cache
  of categorical-context coverage vectors;
* :class:`~repro.counting.chunked.ChunkedBackend` — per-chunk counts over
  an out-of-core :class:`~repro.dataset.chunked.ChunkedView`, summed.

The protocol has two counting granularities:

``group_counts(itemset)``
    one candidate → one ``(n_groups,)`` int64 row (scalar path);
``group_counts_batch(itemsets)``
    N candidates → one ``(N, n_groups)`` int64 matrix (batch path).

The search state itself (SDAD-CS spaces) speaks packed per-chunk
:class:`~repro.core.cover.Cover` bitsets, so every backend also exposes
``chunk_sizes`` / ``cover_of`` / ``full_cover`` / ``cover_group_counts``;
``cover_group_counts`` is the packed twin of ``mask_group_counts`` (same
result, same single ``count_calls`` tally), and the chunked backend
counts covers chunk by chunk without ever densifying a full-row mask.

Every backend accepts batches: :class:`CountingBackendBase` provides a
per-candidate fallback that stacks ``group_counts`` rows, and every
shipped backend overrides it (mask: one ``bincount`` contingency table
per categorical attribute set; bitmap: one packed-AND + popcount sweep;
chunked: chunk-outer iteration with the digest-keyed cache intact).
The class attribute :attr:`CountingBackendBase.supports_batch` advertises
whether the override exists; callers never need to check it for
correctness — only to predict performance.  Candidates counted one by
one — through the fallback, or by an override for itemsets its fast path
does not cover — are tallied in ``batch_fallbacks``.

Backends also self-instrument: every counting call (a batch of N counts
as N calls, so scalar and batch drivers report comparable totals), every
context-cache hit/miss, and every batch invocation is tallied and
published into :class:`~repro.core.instrumentation.MiningStats` so the
ablation benches can attribute wall-clock wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.cover import Cover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instrumentation import MiningStats
    from ..core.items import Itemset
    from ..dataset.table import Dataset

__all__ = ["BackendCounters", "CountingBackend", "CountingBackendBase"]


@dataclass(frozen=True)
class BackendCounters:
    """Snapshot of a backend's instrumentation counters.

    Snapshots support subtraction so a caller can attribute counts to one
    slice of work (the parallel workers bracket each task this way).
    """

    count_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batch_calls: int = 0
    batched_candidates: int = 0
    batch_fallbacks: int = 0

    def __sub__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            count_calls=self.count_calls - other.count_calls,
            cache_hits=self.cache_hits - other.cache_hits,
            cache_misses=self.cache_misses - other.cache_misses,
            batch_calls=self.batch_calls - other.batch_calls,
            batched_candidates=self.batched_candidates - other.batched_candidates,
            batch_fallbacks=self.batch_fallbacks - other.batch_fallbacks,
        )

    def __add__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            count_calls=self.count_calls + other.count_calls,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            batch_calls=self.batch_calls + other.batch_calls,
            batched_candidates=self.batched_candidates + other.batched_candidates,
            batch_fallbacks=self.batch_fallbacks + other.batch_fallbacks,
        )


@runtime_checkable
class CountingBackend(Protocol):
    """What the search layers require of a support-counting strategy."""

    name: str
    dataset: "Dataset"
    supports_batch: bool

    def group_counts(self, itemset: "Itemset") -> np.ndarray:
        """Per-group covered counts of an itemset (Eq. 1 numerators)."""
        ...

    def group_counts_batch(
        self, itemsets: Sequence["Itemset"] | Iterable["Itemset"]
    ) -> np.ndarray:
        """Per-group counts of N itemsets as one ``(N, n_groups)`` matrix.

        Row ``i`` equals ``group_counts(itemsets[i])`` exactly.
        """
        ...

    def cover(self, itemset: "Itemset") -> np.ndarray:
        """Boolean coverage mask of an itemset over the dataset rows."""
        ...

    def mask_group_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-group counts inside an arbitrary boolean row mask."""
        ...

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        """Per-chunk row counts of the backing dataset (``(n_rows,)``
        when dense) — the alignment every :class:`Cover` handed to this
        backend must share."""
        ...

    def cover_of(self, itemset: "Itemset") -> Cover:
        """Packed per-chunk coverage of an itemset (the search-state
        representation; see :mod:`repro.core.cover`)."""
        ...

    def full_cover(self) -> Cover:
        """Packed coverage of every row (the empty context)."""
        ...

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts inside a packed cover.

        Equal to ``mask_group_counts(cover.to_dense())`` and tallied
        identically (one ``count_calls``); backends count on packed
        words directly where they can.
        """
        ...

    def counters(self) -> BackendCounters:
        """Current instrumentation snapshot."""
        ...

    def publish(self, stats: "MiningStats") -> None:
        """Fold counters accumulated since the last publish into stats."""
        ...


class CountingBackendBase:
    """Counter plumbing and the batch fallback shared by concrete backends."""

    name: str = "abstract"
    supports_batch: bool = False
    """True when ``group_counts_batch`` is a native stacked implementation
    rather than the per-candidate fallback below."""

    def __init__(self, dataset: "Dataset") -> None:
        self.dataset = dataset
        self.count_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_calls = 0
        self.batched_candidates = 0
        self.batch_fallbacks = 0
        self._published = BackendCounters()

    def group_counts(self, itemset: "Itemset") -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def group_counts_batch(
        self, itemsets: Sequence["Itemset"] | Iterable["Itemset"]
    ) -> np.ndarray:
        """Default per-candidate fallback: stack scalar ``group_counts`` rows.

        Guarantees ``out[i] == group_counts(itemsets[i])`` for any backend.
        Each candidate routed through here is tallied as a
        ``batch_fallbacks`` so summaries show when the fast path is absent.
        """
        items = list(itemsets)
        self.batch_calls += 1
        self.batched_candidates += len(items)
        self.batch_fallbacks += len(items)
        if not items:
            return np.zeros((0, self.dataset.n_groups), dtype=np.int64)
        rows = [
            np.asarray(self.group_counts(itemset), dtype=np.int64)
            for itemset in items
        ]
        return np.stack(rows)

    # ------------------------------------------------------------------
    # Packed-cover surface (Cover-native search state, DESIGN.md §13)
    # ------------------------------------------------------------------

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        """Per-chunk row counts of the backing dataset.

        Dense in-memory datasets are one chunk; chunk-aware backends
        override (or inherit this duck-typed probe) to report the view's
        chunk layout so covers stay segment-aligned with it.
        """
        metas = getattr(self.dataset, "chunk_metas", None)
        if metas is None:
            return (self.dataset.n_rows,)
        return tuple(m.n_rows for m in metas())

    def cover_of(self, itemset: "Itemset") -> Cover:
        """Packed coverage of an itemset.

        Reference fallback: densify via :meth:`cover` and pack along the
        chunk boundaries.  Backends with packed or per-chunk indexes
        override to avoid the dense intermediate.
        """
        return Cover.from_dense(self.cover(itemset), self.chunk_sizes)

    def full_cover(self) -> Cover:
        """Packed coverage of every row (the empty context)."""
        return Cover.full(self.chunk_sizes)

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts inside a packed cover.

        Reference fallback: densify and count with
        :meth:`Dataset.group_counts` — the historical
        ``mask_group_counts`` semantics, including its single
        ``count_calls`` tally.  Packed backends override with AND +
        popcount counting.
        """
        self.count_calls += 1
        return self.dataset.group_counts(cover.to_dense())

    def counters(self) -> BackendCounters:
        return BackendCounters(
            count_calls=self.count_calls,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            batch_calls=self.batch_calls,
            batched_candidates=self.batched_candidates,
            batch_fallbacks=self.batch_fallbacks,
        )

    def publish(self, stats: "MiningStats") -> None:
        """Fold the delta since the previous publish into ``stats``.

        Delta semantics let a long-lived backend (e.g. the worker-global
        one in the parallel scheduler) publish into a fresh stats object
        per task without double counting.
        """
        current = self.counters()
        delta = current - self._published
        self._published = current
        stats.counting_backend = self.name
        stats.count_calls += delta.count_calls
        stats.cache_hits += delta.cache_hits
        stats.cache_misses += delta.cache_misses
        stats.batch_calls += delta.batch_calls
        stats.batched_candidates += delta.batched_candidates
        stats.batch_fallbacks += delta.batch_fallbacks
