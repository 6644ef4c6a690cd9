"""Spaces (axis-aligned boxes) and median partitioning for SDAD-CS.

SDAD-CS explores the joint range of a set of continuous attributes by
recursively splitting each attribute at its median *within the current
region* (``partition(ca)``, Algorithm 1 line 4) and forming all ``2^|ca|``
combinations of the halves (``find_combs(p)``, line 5).  After the search,
contiguous similar spaces are merged bottom-up, smallest hyper-volume first
(lines 26-29).

A :class:`Space` is the box plus its row coverage over the original
dataset (the coverage already includes any categorical context items), so
counting per-group membership in a space is one counting-backend call.
Coverage is held as a :class:`~repro.core.cover.Cover` — a packed
per-chunk bitset — so search state costs ``n_rows / 8`` bytes per space
and every intersection here runs on packed words.  Dense in-memory
datasets are the one-chunk special case.  A split reads its column
through ``dataset.column`` when the dataset has at most
:data:`MEDIAN_GATHER_BUDGET` rows, sliced at chunk boundaries: on an
out-of-core :class:`~repro.dataset.chunked.ChunkedView` that is the
view's cache of resident columns, so the splits of an attribute map its
chunk files once while it stays resident.  A larger view serves each
chunk straight from its memory-mapped file, so the working set stays at
O(chunk) (DESIGN.md §13).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..dataset.table import Dataset
from .cover import Cover, _popcount
from .items import Interval, Itemset, NumericItem

__all__ = [
    "AttributeRange",
    "Half",
    "Space",
    "full_space",
    "partition_median",
    "find_combinations",
    "are_contiguous",
    "merged_space",
]


#: Spaces with at most this many covered rows gather their in-space
#: values into one array for the split statistic (bit-identical to the
#: historical dense reduction); larger multi-chunk spaces use the
#: streaming exact-selection path so no full-length gather is ever
#: materialised.  It also bounds what a split keeps resident: a dataset
#: of at most this many rows serves a split's column reads from
#: ``dataset.column`` (a chunked view's resident-column cache), and a
#: larger one reads each chunk from its file, every time.
#: Module-level so tests and benches can force either path.
MEDIAN_GATHER_BUDGET = 4_194_304

#: The streaming selector stops narrowing once the candidate window holds
#: at most this many values and finishes with one bounded gather +
#: introselect (the exactness fallback — also the escape hatch if pivot
#: narrowing ever stalls).
_STREAM_GATHER_FALLBACK = 2_097_152

#: Hard cap on narrowing passes before falling back to a gather.
_STREAM_MAX_PASSES = 64


def _iter_chunk_columns(dataset: Dataset, name: str) -> Iterator[np.ndarray]:
    """Yield one canonical-dtype value array per chunk, in chunk order.

    Concatenating the yields equals ``dataset.column(name)`` exactly.
    A dataset of at most :data:`MEDIAN_GATHER_BUDGET` rows yields slices
    of ``dataset.column(name)`` at its chunk boundaries, so on a chunked
    view a column read again comes from the view's resident-column
    cache and maps no chunk file.  A larger chunked view serves each
    chunk straight from its memory-mapped file, so no full-length
    column is ever resident here.
    """
    if dataset.n_rows > MEDIAN_GATHER_BUDGET:
        yield from dataset.iter_chunk_columns(name)
        return
    column = dataset.column(name)
    offset = 0
    for size in dataset.chunk_sizes:
        yield column[offset:offset + size]
        offset += size


@dataclass(frozen=True)
class AttributeRange:
    """Observed [min, max] range of a continuous attribute.

    Used to normalise interval widths so hyper-volumes of boxes over
    different attributes are comparable (the merge step sorts by volume).
    ``nan_free`` records that no value of the column is NaN; :meth:`of`
    sees every value, and :func:`partition_median` then builds a right
    half as the parent's segment XOR the left half.
    """

    attribute: str
    lo: float
    hi: float
    nan_free: bool = False

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def normalised_width(self, interval: Interval) -> float:
        """Width of ``interval`` clipped to this range, as a fraction."""
        if self.width <= 0:
            return 1.0
        lo = max(interval.lo, self.lo)
        hi = min(interval.hi, self.hi)
        return max(0.0, hi - lo) / self.width

    @staticmethod
    def of(dataset: Dataset, attribute: str) -> "AttributeRange":
        # Chunk-wise min/max merge: identical to the dense reduction
        # (min of per-chunk minima is the global minimum) without ever
        # gathering the full column.
        lo = math.inf
        hi = -math.inf
        nan_free = True
        for values in _iter_chunk_columns(dataset, attribute):
            nan = np.isnan(values)
            if nan.any():
                nan_free = False
                values = values[~nan]
            if values.size:
                lo = min(lo, float(values.min()))
                hi = max(hi, float(values.max()))
        if hi < lo:  # no non-NaN values anywhere
            return AttributeRange(attribute, 0.0, 0.0, nan_free)
        return AttributeRange(attribute, lo, hi, nan_free)


class Space:
    """An axis-aligned box over continuous attributes with its coverage.

    Parameters
    ----------
    intervals:
        One :class:`Interval` per continuous attribute of the box.
    cover:
        Row coverage over the *original* dataset as a :class:`Cover`
        (a dense boolean array is accepted and packed as one chunk).
        It must already include the categorical context (the itemset
        ``c`` that SDAD-CS was called with), so per-group counting needs
        no further filtering.
    counts:
        Per-group row counts inside the cover.
    ranges:
        Full attribute ranges, for hyper-volume normalisation.
    """

    __slots__ = ("intervals", "cover", "counts", "_ranges", "_volume")

    def __init__(
        self,
        intervals: Mapping[str, Interval],
        cover: Cover | np.ndarray,
        counts: np.ndarray,
        ranges: Mapping[str, AttributeRange],
    ) -> None:
        self.intervals: dict[str, Interval] = dict(
            sorted(intervals.items())
        )
        if not isinstance(cover, Cover):
            cover = Cover.from_dense(np.asarray(cover, dtype=bool))
        self.cover = cover
        self.counts = np.asarray(counts, dtype=np.int64)
        self._ranges = dict(ranges)
        self._volume: float | None = None

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.intervals)

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @property
    def hypervolume(self) -> float:
        """Normalised n-volume of the box (Section 4.1: rectangles,
        cuboids, hyper-cubes)."""
        if self._volume is None:
            volume = 1.0
            for name, interval in self.intervals.items():
                rng = self._ranges.get(name)
                volume *= rng.normalised_width(interval) if rng else 1.0
            self._volume = volume
        return self._volume

    @property
    def ranges(self) -> dict[str, AttributeRange]:
        return dict(self._ranges)

    def numeric_items(self) -> tuple[NumericItem, ...]:
        return tuple(
            NumericItem(name, interval)
            for name, interval in self.intervals.items()
        )

    def itemset_with(self, categorical: Itemset) -> Itemset:
        """Full itemset: the categorical context plus this box's items."""
        itemset = categorical
        for item in self.numeric_items():
            itemset = itemset.with_item(item)
        return itemset

    def key(self) -> tuple:
        """Hashable identity of the box (used by the prune lookup table)."""
        return tuple(
            (name, iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
            for name, iv in self.intervals.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        box = ", ".join(f"{n}: {iv}" for n, iv in self.intervals.items())
        return f"Space({box}; n={self.total_count})"


def full_space(
    dataset: Dataset,
    attributes: Sequence[str],
    context_cover: Cover | np.ndarray,
    backend,
    *,
    ranges: Mapping[str, AttributeRange] | None = None,
) -> Space:
    """The level-0 space: each attribute's full observed range.

    The root interval is closed on both sides so the attribute minimum is
    covered; all descendant left-open splits inherit correct closure.
    ``context_cover`` is the categorical context's coverage (a dense
    boolean array is accepted and packed along the dataset's chunk
    boundaries), counted by ``backend``, the dataset's
    :class:`repro.counting.CountingBackend`.  ``ranges`` may
    supply precomputed :class:`AttributeRange` objects (they are a
    whole-column property, so callers running many contexts over the
    same dataset can share one cache); missing attributes are computed
    here.
    """
    intervals: dict[str, Interval] = {}
    used: dict[str, AttributeRange] = {}
    for name in attributes:
        rng = ranges.get(name) if ranges is not None else None
        if rng is None:
            rng = AttributeRange.of(dataset, name)
        used[name] = rng
        intervals[name] = Interval(rng.lo, rng.hi, True, True)
    ranges = used
    if not isinstance(context_cover, Cover):
        context_cover = Cover.from_dense(
            np.asarray(context_cover, dtype=bool), dataset.chunk_sizes
        )
    counts = backend.cover_group_counts(context_cover)
    return Space(intervals, context_cover, counts, ranges)


def _chunk_offsets(cover: Cover, i: int) -> np.ndarray | None:
    """Offsets of chunk ``i``'s covered rows within the chunk, in row
    order, or ``None`` when the cover holds every row of the chunk."""
    if _popcount(cover.segment(i)) == cover.chunk_sizes[i]:
        return None
    return np.flatnonzero(cover.dense_segment(i))


def _iter_space_values(
    dataset: Dataset, cover: Cover, attribute: str
) -> Iterator[np.ndarray]:
    """Yield each chunk's finite in-cover values of ``attribute``.

    A fully covered chunk is copied, and any other is taken at its
    covered row offsets, computed chunk by chunk, so a pass holds
    O(chunk).  The NaN filter (a second gather) runs only for chunks
    that hold a NaN.  Every yield is a fresh array the caller may
    reorder.
    """
    for i, values in enumerate(_iter_chunk_columns(dataset, attribute)):
        rows = _chunk_offsets(cover, i)
        inside = (
            values.copy() if rows is None
            else np.take(values, rows, mode="clip")
        )
        nan = np.isnan(inside)
        yield inside[~nan] if nan.any() else inside


def _gather_space_values(
    dataset: Dataset,
    cover: Cover,
    attribute: str,
    offsets: list[np.ndarray | None],
) -> np.ndarray:
    """All finite in-cover values, in row order, as a fresh array.

    ``offsets`` holds the cover's covered row offsets, one entry per
    chunk (:func:`_chunk_offsets`).  An empty list is filled here, so a
    caller that passes one list for every attribute of a space computes
    them once.  Each chunk is written into its slice of one buffer: a
    fully covered chunk is copied, and any other is read with
    ``np.take(..., mode="clip")`` at its offsets (every offset is in
    range, so clipping changes nothing, and unlike the default mode it
    writes ``out`` without buffering).  NaNs are dropped once, over the
    buffer, when it holds one.  Chunks partition the rows in order, so
    the result is element-wise exactly ``column[dense_mask]`` without
    its NaNs, and every statistic computed on it is bit-identical to
    the historical dense path.
    """
    if not offsets:
        offsets.extend(
            _chunk_offsets(cover, i) for i in range(cover.n_chunks)
        )
    sizes = [
        size if rows is None else rows.size
        for size, rows in zip(cover.chunk_sizes, offsets)
    ]
    values = np.empty(sum(sizes), dtype=np.float64)
    start = 0
    for column, rows, size in zip(
        _iter_chunk_columns(dataset, attribute), offsets, sizes
    ):
        out = values[start:start + size]
        if rows is None:
            out[...] = column
        else:
            np.take(column, rows, out=out, mode="clip")
        start += size
    nan = np.isnan(values)
    return values[~nan] if nan.any() else values


def _weighted_median(medians: list[float], weights: list[int]) -> float:
    """Weighted median of per-chunk lower medians — the narrowing pivot.

    At least half the remaining window weight lies in chunks whose median
    is ≤ the pivot (and symmetrically ≥), so each narrowing pass discards
    at least ~25% of the window: termination is guaranteed.
    """
    med = np.asarray(medians, dtype=np.float64)
    order = np.argsort(med, kind="stable")
    w = np.asarray(weights, dtype=np.float64)[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, cum[-1] / 2.0))
    return float(med[order][min(idx, med.size - 1)])


def _select_kth(
    dataset: Dataset, cover: Cover, attribute: str, k: int
) -> float:
    """Exact k-th order statistic (0-based) of the finite in-cover values.

    Streaming distributed selection: keep a candidate value window
    ``[wlo, whi]``, pivot on the weighted median of per-chunk lower
    medians, count ``< pivot`` / ``== pivot`` in one pass, and narrow.
    A lower median is an element of the window, so the pivot is never
    NaN (the mean of a ``-inf`` and a ``+inf`` middle would be, and
    would empty the window).  Once the window holds at most
    ``_STREAM_GATHER_FALLBACK`` values (or the pass cap is hit), gather
    just the window and introselect — the exactness fallback.  Peak
    memory is O(chunk) + O(window).
    """
    wlo = -math.inf
    whi = math.inf
    offset = 0  # count of values strictly below the window
    for _ in range(_STREAM_MAX_PASSES):
        medians: list[float] = []
        weights: list[int] = []
        total = 0
        for vals in _iter_space_values(dataset, cover, attribute):
            window = vals[(vals >= wlo) & (vals <= whi)]
            total += window.size
            if window.size:
                mid = (window.size - 1) >> 1
                window.partition(mid)
                medians.append(float(window[mid]))
                weights.append(int(window.size))
        if total <= _STREAM_GATHER_FALLBACK:
            break
        pivot = _weighted_median(medians, weights)
        c_less = 0
        c_eq = 0
        for vals in _iter_space_values(dataset, cover, attribute):
            window = vals[(vals >= wlo) & (vals <= whi)]
            c_less += int((window < pivot).sum())
            c_eq += int((window == pivot).sum())
        target = k - offset
        if target < c_less:
            whi = float(np.nextafter(pivot, -math.inf))
        elif target < c_less + c_eq:
            return pivot
        else:
            wlo = float(np.nextafter(pivot, math.inf))
            offset += c_less + c_eq
    parts = [
        vals[(vals >= wlo) & (vals <= whi)]
        for vals in _iter_space_values(dataset, cover, attribute)
    ]
    window = np.concatenate(parts) if len(parts) > 1 else parts[0]
    target = k - offset
    return float(np.partition(window, target)[target])


def _streaming_median_split(
    dataset: Dataset, cover: Cover, attribute: str
) -> float | None:
    """Exact median split point without gathering the in-cover values.

    Reproduces the dense path bit for bit: the two middle order
    statistics are found exactly (streaming selection), an even-length
    median is their :func:`_midpoint`, and the heavy-ties fallback
    (split point at or above the maximum) returns the largest distinct
    value below the maximum, exactly ``np.unique(values)[-2]``.  A zero
    split point is always ``+0.0`` (see :func:`_dense_split_point`).
    """
    n = 0
    vmin = math.inf
    vmax = -math.inf
    for vals in _iter_space_values(dataset, cover, attribute):
        n += vals.size
        if vals.size:
            vmin = min(vmin, float(vals.min()))
            vmax = max(vmax, float(vals.max()))
    if n == 0:
        return None
    if vmin == vmax:
        return None
    k1 = (n - 1) >> 1
    k2 = n >> 1
    v1 = _select_kth(dataset, cover, attribute, k1)
    if k2 == k1:
        median = v1
    else:
        # v_{k2} is either v_{k1} again (duplicates reach past k2) or
        # the smallest value above it — one counting pass decides.
        c_le = 0
        above = math.inf
        for vals in _iter_space_values(dataset, cover, attribute):
            c_le += int((vals <= v1).sum())
            gt = vals[vals > v1]
            if gt.size:
                above = min(above, float(gt.min()))
        v2 = v1 if c_le > k2 else above
        median = _midpoint(v1, v2)
    if median >= vmax:
        # Heavy ties at the top: largest distinct value below the
        # maximum, computed as a per-chunk masked max merge.
        best = -math.inf
        for vals in _iter_space_values(dataset, cover, attribute):
            below = vals[vals < vmax]
            if below.size:
                best = max(best, float(below.max()))
        median = best
    return median + 0.0


def _midpoint(a: float, b: float) -> float:
    """Mean of an even-length sample's two middle values ``a <= b``.

    ``(a + b) / 2.0`` is the operation ``np.median`` performs.  When
    both are finite but their sum overflows, it would be ``±inf``,
    outside ``[a, b]``; the midpoint is then ``a / 2.0 + b / 2.0``.
    Both are then near ``±max``, where halving is exact, so that is the
    correctly rounded mean.  Python floats overflow to ``inf`` without
    a warning, and every finite sum keeps its bytes.
    """
    total = a + b
    if math.isinf(total) and math.isfinite(a) and math.isfinite(b):
        return a / 2.0 + b / 2.0
    return total / 2.0


def _dense_split_point(values: np.ndarray, statistic: str) -> float | None:
    """Split point of a gathered sample (``None`` when unsplittable).

    ``values`` must be a fresh array: the median partitions it in place.
    One introselect at ``mid = n >> 1`` leaves the upper middle order
    statistic at ``mid`` and every smaller one before it, so an
    even-length sample's lower middle is ``values[:mid].max()``.  Both
    are elements of the data and their mean is :func:`_midpoint`, the
    ``(a + b) / 2.0`` ``np.median`` computes whenever that sum is
    finite, so the split point is the same double.  The mean is taken
    before anything reorders the sample, because float summation is
    order-sensitive.

    Every exit adds ``0.0``, so a zero split point is always ``+0.0``:
    which signed zero an introselect leaves in the middle depends on its
    pivots, and ``-0.0`` serializes differently.
    """
    if values.size == 0:
        return None
    vmin = values.min()
    vmax = values.max()
    if vmin == vmax:
        return None
    if statistic == "mean":
        split = values.mean()
    else:
        n = values.size
        mid = n >> 1
        values.partition(mid)
        split = values[mid]
        if not n & 1:
            split = _midpoint(float(values[:mid].max()), float(split))
    if split >= vmax:
        # Heavy ties at the top (the paper's "unique values far less than
        # data points" caveat): fall back to the largest distinct value
        # below the maximum so the right half stays non-empty.  Ties at
        # the bottom need no special case — a degenerate left interval
        # [min, min] is a legitimate half (e.g. the zero spike of a
        # zero-inflated frequency column).
        split = values[values < vmax].max()
    return float(split) + 0.0


class Half(NamedTuple):
    """One half of a split attribute: its interval and the rows it covers.

    ``segments`` holds one packed segment per chunk: the parent space's
    cover ANDed with ``interval``'s cover of that chunk's column (see
    :func:`partition_median`).  A row whose value is NaN is in neither
    half.
    """

    interval: Interval
    segments: list[np.ndarray]


def partition_median(
    dataset: Dataset,
    space: Space,
    attribute: str,
    statistic: str = "median",
    *,
    offsets: list[np.ndarray | None] | None = None,
    split_points: dict[str, float | None] | None = None,
) -> tuple[Half, Half] | None:
    """Split one attribute's interval at the median (or mean) of the rows
    in ``space``, and build both halves' covers.

    Returns ``None`` when the attribute cannot be split (no rows, or all
    values inside the space are identical — the "number of unique values far
    less than data points" caveat from Section 4.1).

    The in-space values are gathered chunk by chunk into one buffer at
    the cover's row offsets, and the median is one introselect (see
    :func:`_gather_space_values` and :func:`_dense_split_point`).
    ``offsets`` lets a caller share those offsets across the space's
    attributes: pass the same list, empty at first, to every split of
    ``space``.  Large multi-chunk spaces (more than
    :data:`MEDIAN_GATHER_BUDGET` covered rows) use a streaming
    exact-selection pass instead of gathering — the split point is the
    same to the bit (see :func:`_streaming_median_split`);
    ``statistic="mean"`` always gathers because float summation is not
    order-insensitive.  A zero split point is always ``+0.0``.

    ``split_points`` is a memo of this space's split points by
    attribute, ``None`` where it cannot be split.  A hit reads no
    column for the split point and only builds the halves; a miss is
    computed and recorded.  The caller keeps it to spaces with the
    same cover and intervals, split with the same ``statistic``.

    Each half's segment ``i`` is ``cover.segment(i) &
    np.packbits(interval.cover(column_i))``, where ``column_i`` is the
    attribute's chunk ``i``, computed as ``column_i <= split`` for the
    left and ``column_i > split`` for the right.  When the space's
    :class:`AttributeRange` of ``attribute`` records a column without
    NaN, every covered row passes exactly one of the two, so the right
    segment is the parent's segment XOR the left one: one comparison
    and one pack per chunk instead of two.  A space without a recorded
    range makes both comparisons.  The halves are exact under this
    function's precondition: every row of ``space.cover`` lies inside
    ``space``'s interval of ``attribute`` or is NaN there, so the
    halves' other bounds hold on every covered row, and NaN fails both
    comparisons.  Every space SDAD-CS splits
    meets it: a root interval is the attribute's full ``[min, max]``
    over its non-NaN values, ±inf included (:func:`full_space`), a
    child's cover is an AND of its halves' segments, and a merged space
    is never split.

    The column is read once for the split point and once for the
    halves (:func:`_iter_chunk_columns`): from ``dataset.column`` when
    the dataset has at most :data:`MEDIAN_GATHER_BUDGET` rows, so a
    chunked view's second read is free, and chunk file by chunk file
    otherwise.
    """
    if statistic not in ("median", "mean"):
        raise ValueError("statistic must be 'median' or 'mean'")
    cover = space.cover
    if split_points is not None and attribute in split_points:
        split = split_points[attribute]
    elif (
        statistic == "median"
        and cover.n_chunks > 1
        and space.total_count > MEDIAN_GATHER_BUDGET
    ):
        split = _streaming_median_split(dataset, cover, attribute)
    else:
        values = _gather_space_values(
            dataset, cover, attribute, [] if offsets is None else offsets
        )
        split = _dense_split_point(values, statistic)
    if split_points is not None:
        split_points[attribute] = split
    if split is None:
        return None
    interval = space.intervals[attribute]
    left = Half(Interval(interval.lo, split, interval.lo_closed, True), [])
    right = Half(Interval(split, interval.hi, False, interval.hi_closed), [])
    rng = space._ranges.get(attribute)
    nan_free = rng is not None and rng.nan_free
    for i, column in enumerate(_iter_chunk_columns(dataset, attribute)):
        segment = cover.segment(i)
        below = segment & np.packbits(column <= split)
        left.segments.append(below)
        right.segments.append(
            segment ^ below if nan_free
            else segment & np.packbits(column > split)
        )
    return left, right


def find_combinations(
    space: Space,
    splits: Mapping[str, tuple[Half, Half]],
    backend,
) -> list[Space]:
    """All combinations of the per-attribute halves (``find_combs``).

    Attributes without a split keep their current interval.  With ``k``
    split attributes this yields ``2^k`` child spaces, in
    ``itertools.product`` order over the space's attributes.  The
    children are disjoint, and together they cover the parent's rows
    that have a value in every split attribute: both of
    :func:`partition_median`'s comparisons are ``False`` for NaN, so a
    row missing a split attribute lies in no child (the root space is
    the categorical context's cover, NaN rows included), and they are
    exact under the precondition that function states.  ``backend``,
    the dataset's :class:`repro.counting.CountingBackend`, counts each
    child and tallies the children as one batched counting sweep.

    No column is read here: each :class:`Half` already holds the
    parent's bits inside its interval, chunk by chunk (see
    :func:`partition_median`), so a child's cover is the AND of its
    halves' segments.  Child covers and counts are bit-identical to the
    historical dense path (``packbits(a & b) == packbits(a) &
    packbits(b)`` under zero padding).
    """
    cover = space.cover
    names = [name for name in space.attributes if name in splits]
    combos = list(itertools.product(*(splits[name] for name in names)))

    backend.batch_calls += 1
    backend.batched_candidates += len(combos)

    children: list[Space] = []
    for combo in combos:
        intervals = dict(space.intervals)
        intervals.update(zip(names, (half.interval for half in combo)))
        if combo:
            segments = [
                functools.reduce(np.bitwise_and, chunk)
                for chunk in zip(*(half.segments for half in combo))
            ]
        else:  # nothing split: the one child is the parent's box
            segments = [cover.segment(i) for i in range(cover.n_chunks)]
        child_cover = Cover(segments, cover.chunk_sizes)
        children.append(
            Space(intervals, child_cover,
                  backend.cover_group_counts(child_cover), space.ranges)
        )
    return children


def are_contiguous(a: Space, b: Space) -> bool:
    """True when the boxes differ on exactly one axis, where they touch.

    This is the merge precondition of Algorithm 1 lines 27-29: only
    contiguous spaces may be combined.
    """
    if a.attributes != b.attributes:
        return False
    differing: list[str] = []
    for name in a.attributes:
        if a.intervals[name] != b.intervals[name]:
            differing.append(name)
    if len(differing) != 1:
        return False
    return a.intervals[differing[0]].is_adjacent_to(b.intervals[differing[0]])


def merged_space(a: Space, b: Space) -> Space:
    """Union of two contiguous spaces (counts and covers are additive
    because median splits produce disjoint boxes)."""
    if not are_contiguous(a, b):
        raise ValueError("spaces are not contiguous")
    intervals = dict(a.intervals)
    for name in a.attributes:
        if a.intervals[name] != b.intervals[name]:
            intervals[name] = a.intervals[name].merge_with(b.intervals[name])
    return Space(
        intervals,
        a.cover | b.cover,
        a.counts + b.counts,
        a.ranges,
    )
