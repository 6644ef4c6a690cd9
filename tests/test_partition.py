"""Tests for repro.core.partition (spaces, median splits, merging)."""

import math
import re
import struct
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cover import Cover
from repro.core.items import CategoricalItem, Interval, Itemset
from repro.core.partition import (
    AttributeRange,
    Space,
    are_contiguous,
    find_combinations,
    full_space,
    merged_space,
    partition_median,
)
from repro.counting import CountingBackend
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset


def _dataset(x=None, y=None, groups=None):
    x = np.asarray(x if x is not None else np.linspace(0, 1, 8))
    y = np.asarray(y if y is not None else np.linspace(10, 20, len(x)))
    groups = np.asarray(
        groups if groups is not None else [0, 1] * (len(x) // 2)
    )
    schema = Schema.of(
        [Attribute.continuous("x"), Attribute.continuous("y")]
    )
    return Dataset(schema, {"x": x, "y": y}, groups, ["A", "B"])


def _root(ds, attrs=("x", "y")):
    return full_space(
        ds, attrs, np.ones(ds.n_rows, dtype=bool), CountingBackend(ds)
    )


class TestAttributeRange:
    def test_of_dataset(self):
        ds = _dataset()
        rng = AttributeRange.of(ds, "x")
        assert rng.lo == 0.0 and rng.hi == 1.0
        assert rng.nan_free

    def test_of_records_nan(self):
        ds = _dataset(x=np.array([np.nan, 2.0, np.nan, -1.0]))
        rng = AttributeRange.of(ds, "x")
        assert (rng.lo, rng.hi, rng.nan_free) == (-1.0, 2.0, False)
        assert not AttributeRange("x", 0.0, 1.0).nan_free

    def test_normalised_width(self):
        rng = AttributeRange("x", 0.0, 10.0)
        assert rng.normalised_width(Interval(2.0, 7.0)) == pytest.approx(0.5)

    def test_normalised_width_clips(self):
        rng = AttributeRange("x", 0.0, 10.0)
        assert rng.normalised_width(
            Interval(-100.0, 100.0)
        ) == pytest.approx(1.0)

    def test_zero_width_range(self):
        rng = AttributeRange("x", 5.0, 5.0)
        assert rng.normalised_width(Interval(5.0, 5.0, True, True)) == 1.0


class TestFullSpace:
    def test_root_covers_everything(self):
        ds = _dataset()
        root = _root(ds)
        assert root.total_count == ds.n_rows
        assert root.hypervolume == pytest.approx(1.0)
        assert root.intervals["x"].lo_closed
        assert root.intervals["x"].hi_closed

    def test_context_mask_respected(self):
        ds = _dataset()
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:3] = True
        root = full_space(ds, ("x",), mask, CountingBackend(ds))
        assert root.total_count == 3


class TestPartitionMedian:
    def test_split_at_median(self):
        ds = _dataset(x=np.array([1.0, 2.0, 3.0, 4.0]), groups=[0, 0, 1, 1])
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        assert left.interval.hi == right.interval.lo == pytest.approx(2.5)
        assert left.interval.lo_closed and left.interval.hi_closed
        assert not right.interval.lo_closed and right.interval.hi_closed

    def test_halves_partition_rows(self):
        ds = _dataset()
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        values = ds.column("x")
        assert (
            left.interval.cover(values).sum()
            + right.interval.cover(values).sum()
        ) == len(values)

    def test_constant_attribute_unsplittable(self):
        ds = _dataset(x=np.ones(6), groups=[0, 1, 0, 1, 0, 1])
        root = _root(ds, ("x",))
        assert partition_median(ds, root, "x") is None

    def test_ties_at_max_fall_back_to_lower_boundary(self):
        # median equals the max: split at the largest distinct value
        # below it so the right half stays non-empty
        ds = _dataset(
            x=np.array([1.0, 5.0, 5.0, 5.0]), groups=[0, 1, 0, 1]
        )
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        assert left.interval.hi == right.interval.lo == pytest.approx(1.0)
        col = ds.column("x")
        assert left.interval.cover(col).sum() == 1
        assert right.interval.cover(col).sum() == 3

    def test_zero_inflated_column_splits_at_spike(self):
        # 70% zeros: the zero spike becomes a degenerate left half
        x = np.array([0.0] * 7 + [1.0, 2.0, 3.0])
        ds = _dataset(x=x, groups=[0, 1] * 5)
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        col = ds.column("x")
        assert left.interval.cover(col).sum() == 7
        assert right.interval.cover(col).sum() == 3

    def test_empty_region(self):
        ds = _dataset()
        empty = Space(
            {"x": Interval(0, 1, True, True)},
            np.zeros(ds.n_rows, dtype=bool),
            np.zeros(2, dtype=np.int64),
            {},
        )
        assert partition_median(ds, empty, "x") is None


class TestFindCombinations:
    def test_two_attrs_make_four_boxes(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(root, splits, CountingBackend(ds))
        assert len(children) == 4
        total = sum(c.total_count for c in children)
        assert total == root.total_count

    def test_masks_are_disjoint(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(root, splits, CountingBackend(ds))
        stacked = np.vstack([c.cover.to_dense() for c in children])
        assert (stacked.sum(axis=0) <= 1).all()

    def test_unsplit_attribute_kept(self):
        ds = _dataset()
        root = _root(ds)
        splits = {"x": partition_median(ds, root, "x")}
        children = find_combinations(root, splits, CountingBackend(ds))
        assert len(children) == 2
        for child in children:
            assert child.intervals["y"] == root.intervals["y"]

    def test_no_split_attribute_keeps_the_parent_box(self):
        ds = _dataset()
        root = _root(ds)
        (child,) = find_combinations(root, {}, CountingBackend(ds))
        assert child.intervals == root.intervals
        assert (child.cover.to_dense() == root.cover.to_dense()).all()
        assert (child.counts == root.counts).all()

    def test_rows_missing_a_split_value_are_in_no_child(self):
        """The children are disjoint and cover exactly the parent's rows
        that have a value in every split attribute.  The parent here is
        a context cover that keeps both NaN rows of ``x``."""
        x = np.array([0.1, np.nan, 0.3, 0.4, np.nan, 0.6, 0.7, 0.8])
        ds = _dataset(x=x)
        context = np.ones(ds.n_rows, dtype=bool)
        context[0] = False
        root = full_space(ds, ("x", "y"), context, CountingBackend(ds))
        assert root.total_count == 7
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(root, splits, CountingBackend(ds))
        assert len(children) == 4
        stacked = np.vstack([c.cover.to_dense() for c in children])
        assert (stacked.sum(axis=0) <= 1).all()
        assert (stacked.any(axis=0) == (context & ~np.isnan(x))).all()
        assert sum(c.total_count for c in children) == 5


class TestSpace:
    def test_itemset_with_context(self):
        ds = _dataset()
        root = _root(ds, ("x",))
        context = Itemset([CategoricalItem("c", "v")])
        itemset = root.itemset_with(context)
        assert set(itemset.attributes) == {"c", "x"}

    def test_key_is_hashable_and_stable(self):
        ds = _dataset()
        a = _root(ds)
        b = _root(ds)
        assert a.key() == b.key()
        assert hash(a.key()) == hash(b.key())

    def test_hypervolume_of_half(self):
        ds = _dataset(x=np.linspace(0, 1, 9), y=np.linspace(0, 1, 9),
                      groups=[0, 1] * 4 + [0])
        root = _root(ds)
        left, right = partition_median(ds, root, "x")
        children = find_combinations(
            root, {"x": (left, right)}, CountingBackend(ds)
        )
        assert children[0].hypervolume == pytest.approx(0.5)


class TestMerging:
    def _siblings(self):
        ds = _dataset()
        root = _root(ds)
        splits = {"x": partition_median(ds, root, "x")}
        return ds, find_combinations(root, splits, CountingBackend(ds))

    def test_contiguous_siblings(self):
        __, (left, right) = self._siblings()
        assert are_contiguous(left, right)

    def test_merged_space_restores_parent(self):
        ds, (left, right) = self._siblings()
        merged = merged_space(left, right)
        assert merged.total_count == ds.n_rows
        assert merged.intervals["x"].lo == left.intervals["x"].lo
        assert merged.intervals["x"].hi == right.intervals["x"].hi

    def test_merge_counts_additive(self):
        __, (left, right) = self._siblings()
        merged = merged_space(left, right)
        assert (merged.counts == left.counts + right.counts).all()

    def test_not_contiguous_when_two_axes_differ(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(root, splits, CountingBackend(ds))
        # children[0] = (x-left, y-left); children[3] = (x-right, y-right)
        assert not are_contiguous(children[0], children[3])
        assert are_contiguous(children[0], children[1])

    def test_merge_non_contiguous_raises(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(root, splits, CountingBackend(ds))
        with pytest.raises(ValueError):
            merged_space(children[0], children[3])

    def test_different_attribute_sets_not_contiguous(self):
        ds = _dataset()
        a = _root(ds, ("x",))
        b = _root(ds, ("x", "y"))
        assert not are_contiguous(a, b)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(0, 100, allow_nan=False), min_size=4, max_size=80
    ),
)
def test_median_split_partition_property(values):
    """Property: a median split always yields two non-empty halves that
    exactly partition the region's rows, and any region with at least two
    distinct values is splittable (tie fallback included)."""
    values = np.asarray(values)
    groups = np.zeros(len(values), dtype=np.int64)
    groups[::2] = 1
    schema = Schema.of([Attribute.continuous("x")])
    ds = Dataset(schema, {"x": values}, groups, ["A", "B"])
    root = full_space(
        ds, ("x",), np.ones(len(values), dtype=bool), CountingBackend(ds)
    )
    halves = partition_median(ds, root, "x")
    if np.unique(values).size < 2:
        assert halves is None
        return
    assert halves is not None
    left, right = (half.interval for half in halves)
    col = ds.column("x")
    n_left = int(left.cover(col).sum())
    n_right = int(right.cover(col).sum())
    assert n_left + n_right == len(values)
    assert n_left >= 1 and n_right >= 1
    assert left.hi == right.lo
    # without heavy ties at the top, the median keeps the right half small
    median = float(np.median(values))
    if median < values.max():
        assert n_right <= len(values) / 2 + 1


class _FakeChunkedColumn:
    """Minimal chunked-dataset duck type for the split: a chunk layout,
    the whole column, and per-chunk reads, so the chunking holds whether
    the split reads through ``column`` or ``iter_chunk_columns``."""

    def __init__(self, chunks):
        self._chunks = [np.asarray(c, dtype=np.float64) for c in chunks]
        self.n_rows = sum(chunk.size for chunk in self._chunks)

    @property
    def chunk_sizes(self):
        return tuple(chunk.size for chunk in self._chunks)

    def column(self, name):
        assert name == "x"
        return np.concatenate(self._chunks)

    def iter_chunk_columns(self, name):
        assert name == "x"
        yield from self._chunks


def _dense_median_expectation(values):
    """The reference split point: ``np.median`` of the non-NaN values,
    or the largest distinct value below the maximum when the median
    reaches it (None when unsplittable).  Where two finite middles sum
    past ±max, ``np.median`` gives ±inf and the reference is half of
    each, summed."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return None
    vmin, vmax = float(finite.min()), float(finite.max())
    if vmin == vmax:
        return None
    with np.errstate(over="ignore"):
        median = float(np.median(finite))
    ordered = np.sort(finite)
    low, high = (float(ordered[(finite.size - 1) >> 1]),
                 float(ordered[finite.size >> 1]))
    if math.isinf(median) and math.isfinite(low) and math.isfinite(high):
        median = low / 2.0 + high / 2.0
    if median >= vmax:
        median = float(np.unique(finite)[-2])
    return median


def _bits(value):
    """The IEEE-754 bytes of a double: tells ``-0.0`` from ``+0.0``."""
    return struct.pack("<d", value)


class TestStreamingMedian:
    """The streaming selector reproduces np.median to the bit, with the
    gather fallback forced off via tiny budgets."""

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=-50, max_value=50).map(float),
                    st.sampled_from([0.0, -0.0]),
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                    ),
                    st.just(float("nan")),
                ),
                min_size=0,
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_np_median_bitwise(self, chunks, data):
        from repro.core import partition as part

        sizes = tuple(len(c) for c in chunks)
        all_values = np.concatenate(
            [np.asarray(c, dtype=np.float64) for c in chunks]
        ) if chunks else np.zeros(0)
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=all_values.size,
                    max_size=all_values.size,
                )
            ),
            dtype=bool,
        )
        cover = Cover.from_dense(mask, sizes)
        fake = _FakeChunkedColumn(chunks)
        # Force the pivot loop to actually narrow: the gather fallback
        # only fires once the window is tiny.
        old = part._STREAM_GATHER_FALLBACK
        part._STREAM_GATHER_FALLBACK = 4
        try:
            got = part._streaming_median_split(fake, cover, "x")
        finally:
            part._STREAM_GATHER_FALLBACK = old
        expected = _dense_median_expectation(all_values[mask])
        if expected is None:
            assert got is None
        else:
            # bit-identical, not approx; a zero split point is +0.0
            assert _bits(got) == _bits(expected + 0.0)

    def test_partition_median_streams_large_spaces(self, monkeypatch):
        """Above the gather budget, partition_median takes the streaming
        path and still produces the dense split point exactly."""
        from repro.core import partition as part

        monkeypatch.setattr(part, "MEDIAN_GATHER_BUDGET", 8)
        monkeypatch.setattr(part, "_STREAM_GATHER_FALLBACK", 4)
        rng = np.random.default_rng(7)
        chunks = [rng.normal(size=20) for _ in range(4)]
        values = np.concatenate(chunks)
        sizes = (20, 20, 20, 20)
        fake = _FakeChunkedColumn(chunks)
        cover = Cover.full(sizes)
        ranges = {"x": AttributeRange("x", float(values.min()),
                                      float(values.max()))}
        space = Space(
            {"x": Interval(float(values.min()), float(values.max()),
                           True, True)},
            cover,
            np.array([80], dtype=np.int64),
            ranges,
        )
        assert space.total_count > part.MEDIAN_GATHER_BUDGET
        halves = partition_median(fake, space, "x")
        assert halves is not None
        assert halves[0].interval.hi == float(np.median(values))


class _ReadTrackingColumn(_FakeChunkedColumn):
    """Serves a fresh array per chunk read and, at the start of each
    pass over the chunks, counts the earlier passes' arrays still alive."""

    def __init__(self, chunks):
        super().__init__(chunks)
        self.reads: list[weakref.ref] = []
        self.alive_at_pass_start: list[int] = []

    def iter_chunk_columns(self, name):
        assert name == "x"
        self.alive_at_pass_start.append(
            sum(ref() is not None for ref in self.reads)
        )
        for chunk in self._chunks:
            column = chunk.copy()
            self.reads.append(weakref.ref(column))
            yield column


@pytest.mark.parametrize("n_chunks", [1, 3])
def test_split_below_gather_budget_holds_no_columns(monkeypatch, n_chunks):
    """At the default budget the split reads its column only through
    ``column()``, never chunk by chunk.  With the budget below the row
    count, the split drops each chunk column once the gather has read
    it and reads the column again for the halves, and the halves are
    byte for byte those of the resident read."""
    from repro.core import partition as part

    rng = np.random.default_rng(3)
    values = rng.normal(size=60)
    values[[3, 17, 18, 40]] = np.nan
    chunks = np.array_split(values, n_chunks)
    cover = Cover.from_dense(
        rng.random(60) < 0.7, tuple(len(c) for c in chunks)
    )
    space = Space(
        {"x": Interval(-math.inf, math.inf, True, True)},
        cover,
        np.array([cover.count()], dtype=np.int64),
        {},
    )
    resident = _ReadTrackingColumn(chunks)
    expected = partition_median(resident, space, "x")
    assert resident.alive_at_pass_start == []
    assert resident.reads == []

    monkeypatch.setattr(part, "MEDIAN_GATHER_BUDGET", 59)
    assert space.total_count <= part.MEDIAN_GATHER_BUDGET < cover.n_rows
    rereading = _ReadTrackingColumn(chunks)
    halves = partition_median(rereading, space, "x")
    assert rereading.alive_at_pass_start == [0, 0]
    assert len(rereading.reads) == 2 * n_chunks
    for half, reference in zip(halves, expected):
        assert half.interval == reference.interval
        assert [s.tobytes() for s in half.segments] == [
            s.tobytes() for s in reference.segments
        ]


@pytest.mark.parametrize("resident", [True, False])
def test_chunked_view_splits_map_each_chunk_once(
    tmp_path, monkeypatch, resident
):
    """Below the budget, a split of a 3-chunk view reads its column
    through the view's resident-column cache: the range, a split and a
    split of one of its halves map each chunk file of the attribute
    once.  With the budget below the row count (but not below the
    covered rows, so the splits still gather) nothing stays resident,
    and every pass maps every chunk again."""
    from repro.core import partition as part
    from repro.dataset.chunked import ChunkedDataset

    rng = np.random.default_rng(11)
    x = rng.normal(size=90)
    x[[5, 40, 41]] = np.nan
    dense = _dataset(x=x, groups=rng.integers(0, 2, 90))
    view = ChunkedDataset.pack(tmp_path / "s", dense, chunk_size=30).view()
    if not resident:
        monkeypatch.setattr(part, "MEDIAN_GATHER_BUDGET", view.n_rows - 1)
    maps: Counter = Counter()
    real = ChunkedDataset._mmap_file

    def counting(store, meta, name):
        maps[meta.chunk_id, name] += 1
        return real(store, meta, name)

    monkeypatch.setattr(ChunkedDataset, "_mmap_file", counting)
    context = np.ones(view.n_rows, dtype=bool)
    context[0] = False
    root = full_space(view, ("x",), context, CountingBackend(view))
    assert root.total_count <= part.MEDIAN_GATHER_BUDGET
    children = find_combinations(
        root, {"x": partition_median(view, root, "x")},
        CountingBackend(view),
    )
    assert partition_median(view, children[0], "x") is not None
    passes = 1 if resident else 5  # the range, then two per split
    x_maps = [n for (_, name), n in maps.items() if name == "x"]
    assert x_maps == [passes] * 3
    assert view.resident_columns() == (("x",) if resident else ())


_EDGE_VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.5,
    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
)


@st.composite
def _chunked_column(draw):
    """Chunks of one column plus an in-cover mask over their rows.

    Values mix NaN, ±inf, ±0.0, subnormals and extreme magnitudes.  A
    column is constant, two-valued (half the time ties at the maximum
    reach the median) or free; chunk lengths of 0-3 make samples of
    1-3 covered values common, over 1-4 chunks.  Each chunk's mask is
    all covered, none covered or random, so a gather copies some
    chunks, takes others at their row offsets, and skips empty ones.
    """
    edge = st.sampled_from(_EDGE_VALUES)
    kind = draw(st.sampled_from(("constant", "two", "free")))
    if kind == "constant":
        pool = st.just(draw(edge))
    elif kind == "two":
        pool = st.sampled_from((draw(edge), draw(edge)))
    else:
        pool = st.one_of(
            edge,
            st.integers(-3, 3).map(float),
            st.floats(allow_nan=True, allow_infinity=True),
        )
    n_chunks = draw(st.integers(1, 4))
    sizes = draw(
        st.lists(
            st.integers(0, 3) | st.integers(0, 24),
            min_size=n_chunks,
            max_size=n_chunks,
        )
    )
    chunks = [draw(st.lists(pool, min_size=n, max_size=n)) for n in sizes]
    masks = []
    for n in sizes:
        kind = draw(st.sampled_from(("all", "none", "random")))
        if kind == "random":
            masks.extend(
                draw(st.lists(st.booleans(), min_size=n, max_size=n))
            )
        else:
            masks.extend([kind == "all"] * n)
    return chunks, np.asarray(masks, dtype=bool)


def _check_split(chunks, space, split_points=None):
    """Split ``space`` of the column ``chunks`` and check it against the
    reference: the split point has the bytes of np.median's (or of the
    heavy-ties fallback's) plus 0.0, a midpoint no interval can end at
    raises what ``Interval`` raises, and each half's segment ``i`` is
    ``cover.segment(i) & np.packbits(half.interval.cover(chunk_i))``.
    ``split_points`` is passed on as the split-point memo.  Returns the
    halves (``None`` when unsplittable or refused)."""
    values = np.concatenate([np.asarray(c, dtype=np.float64) for c in chunks])
    cover = space.cover
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _dense_median_expectation(values[cover.to_dense()])
    if expected is not None:
        interval = space.intervals["x"]
        try:
            Interval(interval.lo, expected, interval.lo_closed, True)
            Interval(expected, interval.hi, False, interval.hi_closed)
        except ValueError as refused:
            # the two middle values are -inf and +inf (a NaN mean)
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(ValueError, match=re.escape(str(refused))):
                    partition_median(
                        _FakeChunkedColumn(chunks), space, "x",
                        split_points=split_points,
                    )
            return None
    with np.errstate(invalid="ignore", over="ignore"):
        halves = partition_median(
            _FakeChunkedColumn(chunks), space, "x", split_points=split_points
        )
    if expected is None:
        assert halves is None
        return None
    left, right = halves
    assert _bits(left.interval.hi) == _bits(right.interval.lo) == _bits(
        expected + 0.0
    )
    for half in halves:
        assert len(half.segments) == len(chunks)
        for i, chunk in enumerate(chunks):
            reference = cover.segment(i) & np.packbits(
                half.interval.cover(np.asarray(chunk, dtype=np.float64))
            )
            assert half.segments[i].tobytes() == reference.tobytes()
    return halves


@settings(max_examples=400, deadline=None)
@given(_chunked_column(), st.booleans(), st.booleans())
@example(([[-0.0, -0.0], [-0.0, 1.0]], np.ones(4, dtype=bool)), False, False)
@example(([[-0.0, -0.0], [-0.0, 1.0]], np.ones(4, dtype=bool)), True, True)
# a chunk whose window median is the NaN mean of -inf and +inf
@example(([[], [math.inf, math.inf, -math.inf, -math.inf]],
          np.ones(4, dtype=bool)), True, True)
# the right half's middles sum past -max: it splits at half of each
# middle, summed, inside its interval
@example(([[-1.7e308, -1.6e308, -1.5e308, -1.4e308],
           [-1.0e308, -0.99e308, -0.95e308, -0.9e308, 5.0]],
          np.ones(9, dtype=bool)), False, True)
# a covered NaN is in neither half, so its right half is a comparison
@example(([[1.0, math.nan, 2.0], [3.0, 4.0]], np.ones(5, dtype=bool)),
         False, True)
def test_partition_median_split_point_matches_reference_bytes(
    column, stream, ranged
):
    """partition_median's split point has the bytes of np.median's (or
    of the heavy-ties fallback's) plus 0.0, and each half's cover is the
    parent's bits inside its interval, chunk by chunk, on the gather
    path and on the streaming path alike: at the root, again through
    the root's split-point memo, and again when each half of the root
    is split in turn.  With ``ranged`` the spaces carry the column's
    :class:`AttributeRange`, so a column without NaN builds each right
    half as the parent's segment XOR the left."""
    from repro.core import partition as part

    chunks, mask = column
    sizes = tuple(len(c) for c in chunks)
    cover = Cover.from_dense(mask, sizes)
    ranges = (
        {"x": AttributeRange.of(_FakeChunkedColumn(chunks), "x")}
        if ranged else {}
    )
    root = Space(
        {"x": Interval(-math.inf, math.inf, True, True)},
        cover,
        np.array([cover.count()], dtype=np.int64),
        ranges,
    )
    budget, fallback = part.MEDIAN_GATHER_BUDGET, part._STREAM_GATHER_FALLBACK
    if stream:
        # stream every multi-chunk space, read every column chunk by
        # chunk, and make the pivot loop narrow
        part.MEDIAN_GATHER_BUDGET, part._STREAM_GATHER_FALLBACK = 0, 2
    try:
        memo: dict = {}
        halves = _check_split(chunks, root, memo)
        _check_split(chunks, root, memo)
        for half in halves or ():
            child_cover = Cover(half.segments, sizes)
            child = Space(
                {"x": half.interval},
                child_cover,
                np.array([child_cover.count()], dtype=np.int64),
                ranges,
            )
            _check_split(chunks, child)
    finally:
        part.MEDIAN_GATHER_BUDGET, part._STREAM_GATHER_FALLBACK = (
            budget, fallback,
        )


@pytest.mark.parametrize(
    "statistic, x",
    [
        ("median", [-0.0, -0.0, 1.0]),
        ("median", [-1.0, -0.0, 0.0, -0.0, 1.0]),
        ("median", [-0.0, 0.0, -0.0, 0.0, 2.0, 3.0]),
        # the sum is -5e-324, so the mean underflows to -0.0
        ("mean", [-5e-324, -5e-324, 0.0, 5e-324]),
    ],
)
def test_zero_split_point_is_positive_zero(statistic, x):
    """Whichever signed zero the statistic lands on, the split is +0.0."""
    ds = _dataset(x=np.array(x), groups=[0, 1] * (len(x) // 2)
                  + [0] * (len(x) % 2))
    left, right = partition_median(ds, _root(ds, ("x",)), "x", statistic)
    assert _bits(left.interval.hi) == _bits(right.interval.lo) == _bits(0.0)


def test_overflowing_midpoint_splits_between_the_middles():
    """Two finite middles whose sum overflows past -max split at half of
    each, summed, without a warning, and a mine of the column runs."""
    from repro.core.config import MinerConfig
    from repro.core.miner import ContrastSetMiner

    x = np.array([-1.7e308, -1.6e308, -1.5e308, -1.4e308, 5.0, 6.0])
    schema = Schema.of([Attribute.continuous("x")])
    ds = Dataset(schema, {"x": x}, np.array([0, 1] * 3), ["A", "B"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        left, right = partition_median(ds, _root(ds, ("x",)), "x")
        ContrastSetMiner(MinerConfig(max_tree_depth=1)).mine(ds)
    assert _bits(left.interval.hi) == _bits(right.interval.lo) == _bits(
        -1.45e308
    )


def test_partition_median_rejects_unknown_statistic():
    ds = _dataset()
    with pytest.raises(ValueError, match="statistic"):
        partition_median(ds, _root(ds, ("x",)), "x", "mode")
