"""Tests for repro.dataset.table.Dataset."""

import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.chunked import ChunkedDataset
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset, DatasetError

#: Files written by release 1.6.0, whose ``Dataset`` pickled only its
#: columns, codes and labels.
V1_6_0 = Path(__file__).parent / "data" / "v1_6_0"


def _small_dataset():
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("c", ["a", "b"]),
        ]
    )
    return Dataset(
        schema,
        {
            "x": np.array([0.1, 0.5, 0.9, 0.3]),
            "c": np.array([0, 1, 0, 1]),
        },
        np.array([0, 0, 1, 1]),
        ["G1", "G2"],
    )


class TestConstruction:
    def test_basic(self):
        ds = _small_dataset()
        assert ds.n_rows == 4
        assert len(ds) == 4
        assert ds.n_groups == 2
        assert ds.group_sizes == (2, 2)

    def test_missing_column(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="missing columns"):
            Dataset(schema, {}, np.array([0]), ["G"])

    def test_extra_column(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="not in schema"):
            Dataset(
                schema,
                {"x": np.array([1.0]), "y": np.array([1.0])},
                np.array([0]),
                ["G"],
            )

    def test_length_mismatch(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="rows"):
            Dataset(
                schema, {"x": np.array([1.0, 2.0])}, np.array([0]), ["G"]
            )

    def test_group_code_out_of_range(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="out of range"):
            Dataset(schema, {"x": np.array([1.0])}, np.array([5]), ["G"])

    def test_categorical_code_out_of_range(self):
        schema = Schema.of([Attribute.categorical("c", ["a"])])
        with pytest.raises(DatasetError, match="out of range"):
            Dataset(schema, {"c": np.array([3])}, np.array([0]), ["G"])

    def test_categorical_requires_int_codes(self):
        schema = Schema.of([Attribute.categorical("c", ["a"])])
        with pytest.raises(DatasetError, match="codes"):
            Dataset(schema, {"c": np.array([0.5])}, np.array([0]), ["G"])

    def test_duplicate_group_labels(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="duplicate"):
            Dataset(
                schema, {"x": np.array([1.0])}, np.array([0]), ["G", "G"]
            )

    def test_from_records(self):
        schema = Schema.of(
            [
                Attribute.continuous("x"),
                Attribute.categorical("c", ["a", "b"]),
            ]
        )
        ds = Dataset.from_records(
            [
                {"x": 1.5, "c": "a", "group": "G1"},
                {"x": 2.5, "c": "b", "group": "G2"},
            ],
            schema,
        )
        assert ds.n_rows == 2
        assert ds.group_labels == ("G1", "G2")
        assert ds.column("x")[0] == pytest.approx(1.5)
        assert ds.column("c")[1] == 1

    def test_from_records_unknown_group(self):
        schema = Schema.of([Attribute.continuous("x")])
        with pytest.raises(DatasetError, match="unknown group"):
            Dataset.from_records(
                [{"x": 1, "group": "Z"}], schema, group_labels=["A"]
            )


class TestAccessors:
    def test_columns_read_only(self):
        ds = _small_dataset()
        with pytest.raises(ValueError):
            ds.column("x")[0] = 99.0
        with pytest.raises(ValueError):
            ds.group_codes[0] = 1

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            _small_dataset().column("nope")

    def test_group_info(self):
        info = _small_dataset().group_info
        assert info.n_groups == 2
        assert info.size_of("G1") == 2

    def test_group_index_and_mask(self):
        ds = _small_dataset()
        assert ds.group_index("G2") == 1
        assert ds.group_mask("G1").sum() == 2
        with pytest.raises(DatasetError):
            ds.group_index("nope")


class TestCounting:
    def test_group_counts_full(self):
        ds = _small_dataset()
        assert list(ds.group_counts()) == [2, 2]

    def test_group_counts_masked(self):
        ds = _small_dataset()
        mask = np.array([True, False, True, False])
        assert list(ds.group_counts(mask)) == [1, 1]

    def test_group_counts_bad_mask(self, tmp_path):
        ds = _small_dataset()
        view = ChunkedDataset.pack(tmp_path / "s", ds, chunk_size=3).view()
        for dataset in (ds, view):
            for bad in (
                np.array([1, 0, 1, 0]),
                np.array([True]),
                np.ones(5, dtype=bool),
                np.ones((2, 2), dtype=bool),
                np.ones((4, 1), dtype=bool),
            ):
                with pytest.raises(DatasetError):
                    dataset.group_counts(bad)

    def test_view_checks_mask_length_without_gathering_codes(
        self, tmp_path
    ):
        view = ChunkedDataset.pack(
            tmp_path / "s", _small_dataset(), chunk_size=3
        ).view()
        with pytest.raises(DatasetError):
            view.group_counts(np.ones(3, dtype=bool))
        assert view._resident_codes is None

    def test_row_masks_stay_out_of_pickles(self):
        ds = _small_dataset()
        before = len(pickle.dumps(ds))
        ds.group_counts(np.array([True, False, True, False]))
        assert len(pickle.dumps(ds)) == before
        clone = pickle.loads(pickle.dumps(ds))
        assert list(clone.group_counts(np.ones(4, dtype=bool))) == [2, 2]

    def test_supports(self):
        ds = _small_dataset()
        mask = np.array([True, True, True, False])
        supports = ds.supports(mask)
        assert supports[0] == pytest.approx(1.0)
        assert supports[1] == pytest.approx(0.5)

    def test_supports_empty_group(self):
        schema = Schema.of([Attribute.continuous("x")])
        ds = Dataset(
            schema, {"x": np.array([1.0])}, np.array([0]), ["A", "B"]
        )
        assert ds.supports()[1] == 0.0

    def test_dataset_pickled_by_1_6_0_counts(self, mixed_dataset):
        ds = pickle.loads((V1_6_0 / "dataset.pkl").read_bytes())
        codes = mixed_dataset.group_codes
        for mask in (
            ds.column("x") < 0.5,
            ds.column("color") == 2,
            np.zeros(ds.n_rows, dtype=bool),
        ):
            assert ds.group_counts(mask).tolist() == np.bincount(
                codes[mask], minlength=2
            ).tolist()
        assert ds.group_sizes == mixed_dataset.group_sizes


class TestRestriction:
    def test_restrict(self):
        ds = _small_dataset()
        sub = ds.restrict(np.array([True, False, False, True]))
        assert sub.n_rows == 2
        assert list(sub.column("x")) == pytest.approx([0.1, 0.3])
        assert sub.group_labels == ds.group_labels

    def test_select_groups_recode(self):
        schema = Schema.of([Attribute.continuous("x")])
        ds = Dataset(
            schema,
            {"x": np.arange(6, dtype=float)},
            np.array([0, 1, 2, 0, 1, 2]),
            ["A", "B", "C"],
        )
        sub = ds.select_groups(["C", "A"])
        assert sub.group_labels == ("C", "A")
        assert sub.n_rows == 4
        assert sub.group_sizes == (2, 2)
        # rows with original group C must now have code 0
        assert list(sub.column("x")[sub.group_codes == 0]) == [2.0, 5.0]

    def test_project(self):
        ds = _small_dataset()
        sub = ds.project(["c"])
        assert sub.schema.names == ("c",)
        assert sub.n_rows == 4
        assert sub.group_sizes == ds.group_sizes

    def test_describe_mentions_groups(self):
        text = _small_dataset().describe()
        assert "G1=2" in text and "G2=2" in text


@settings(max_examples=50, deadline=None)
@given(
    codes=st.lists(st.integers(0, 2), min_size=1, max_size=60),
    data=st.data(),
)
def test_supports_match_manual_count(codes, data):
    """Property: supports equal manual per-group count ratios."""
    n = len(codes)
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )
    schema = Schema.of([Attribute.continuous("x")])
    ds = Dataset(
        schema,
        {"x": np.zeros(n)},
        np.array(codes),
        ["A", "B", "C"],
    )
    supports = ds.supports(mask)
    for g in range(3):
        size = codes.count(g)
        hit = sum(1 for c, m in zip(codes, mask) if c == g and m)
        expected = hit / size if size else 0.0
        assert supports[g] == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(
    n_groups=st.integers(1, 5),
    n_chunks=st.integers(1, 4),
    data=st.data(),
)
def test_group_counts_match_bincount(n_groups, n_chunks, data):
    """Property: a masked count equals ``bincount(codes[mask])``, in
    memory and on a chunked view, for fresh and cached row masks."""
    n = data.draw(st.integers(0, 300), label="n_rows")
    codes = np.array(
        data.draw(
            st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n),
            label="codes",
        ),
        dtype=np.int64,
    )
    random_mask = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=bool)
    )
    masks = [
        np.zeros(n, dtype=bool),
        np.ones(n, dtype=bool),
        data.draw(random_mask, label="mask"),
    ]
    ds = Dataset(
        Schema.of([Attribute.continuous("x")]),
        {"x": np.zeros(n)},
        codes,
        [f"g{k}" for k in range(n_groups)],
    )
    with tempfile.TemporaryDirectory() as tmp:
        view = ChunkedDataset.pack(
            Path(tmp) / "s", ds, chunk_size=max(1, math.ceil(n / n_chunks))
        ).view()
        for dataset in (ds, view):
            for mask in masks:
                expected = np.bincount(codes[mask], minlength=n_groups)
                got = dataset.group_counts(mask)
                assert got.dtype == np.int64
                assert got.tolist() == expected.tolist()
