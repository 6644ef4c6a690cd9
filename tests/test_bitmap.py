"""Counting covers on packed bitmaps.

:class:`~repro.counting.mask.MaskBackend` counts a packed
:class:`~repro.core.cover.Cover` against a bitmap index of the groups:
one ``(n_groups, n_words)`` stack of packed membership bits, built once
from the group codes.  Every count must equal the dense mask path,
``dataset.group_counts(cover.to_dense())``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cover import Cover
from repro.core.items import CategoricalItem, Itemset
from repro.counting import MaskBackend
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset


def _dataset(n=200, seed=0, n_groups=2):
    rng = np.random.default_rng(seed)
    schema = Schema.of(
        [
            Attribute.categorical("a", ["x", "y", "z"]),
            Attribute.categorical("b", ["p", "q"]),
            Attribute.continuous("noise"),
        ]
    )
    return Dataset(
        schema,
        {
            "a": rng.integers(0, 3, n),
            "b": rng.integers(0, 2, n),
            "noise": rng.uniform(0, 1, n),
        },
        rng.integers(0, n_groups, n),
        [f"G{g}" for g in range(n_groups)],
    )


class TestBitmapIndex:
    def test_counts_match_mask_path(self):
        ds = _dataset()
        backend = MaskBackend(ds)
        for a_val in ("x", "y", "z"):
            for b_val in ("p", "q"):
                itemset = Itemset(
                    [
                        CategoricalItem("a", a_val),
                        CategoricalItem("b", b_val),
                    ]
                )
                mask = itemset.cover(ds)
                cover = backend.cover_of(itemset)
                assert cover.count() == int(mask.sum())
                np.testing.assert_array_equal(
                    backend.cover_group_counts(cover), ds.group_counts(mask)
                )

    def test_empty_itemset_counts_everything(self):
        ds = _dataset()
        backend = MaskBackend(ds)
        for cover in (backend.full_cover(), backend.cover_of(Itemset())):
            assert tuple(backend.cover_group_counts(cover)) == ds.group_sizes

    def test_memory_is_bounded(self):
        # one bit per row per group: 2 groups x 125 bytes
        ds = _dataset(n=1000)
        backend = MaskBackend(ds)
        backend.cover_group_counts(backend.full_cover())
        assert backend._group_stack.nbytes == 2 * 125

    def test_odd_row_counts(self):
        # row counts not divisible by 8 exercise packbits padding
        for n in (1, 7, 9, 63, 65):
            ds = _dataset(n=n, seed=n)
            backend = MaskBackend(ds)
            itemset = Itemset([CategoricalItem("a", "x")])
            np.testing.assert_array_equal(
                backend.cover_group_counts(backend.cover_of(itemset)),
                ds.group_counts(itemset.cover(ds)),
            )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 1000),
    n_groups=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    skip_group=st.booleans(),
)
def test_bitmap_counts_always_match(n, seed, n_groups, density, skip_group):
    """Property: a packed cover counts as its dense mask does — on row
    counts that leave pad bits, empty and full covers, and a group with
    no covered rows."""
    ds = _dataset(n=n, seed=seed, n_groups=n_groups)
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < density
    if skip_group:
        mask &= np.asarray(ds.group_codes) != 0
    cover = Cover.from_dense(mask)
    np.testing.assert_array_equal(
        MaskBackend(ds).cover_group_counts(cover),
        ds.group_counts(cover.to_dense()),
    )
