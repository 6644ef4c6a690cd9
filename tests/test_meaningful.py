"""Tests for repro.core.meaningful (redundancy, productivity,
independent productivity)."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition
from repro.core.config import MinerConfig
from repro.core.contrast import ContrastPattern, evaluate_itemset
from repro.core.items import CategoricalItem, Interval, Itemset, NumericItem
from repro.core.meaningful import (
    classify_patterns,
    filter_meaningful,
    independently_productive_mask,
    is_productive,
    is_redundant,
)
from repro.core.miner import ContrastSetMiner
from repro.core.pruning import redundant_against_subset
from repro.core.stats import chi_square_independence, contingency_from_counts
from repro.dataset.chunked import ChunkedDataset, ChunkedView
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset


@pytest.fixture
def pregnancy_dataset():
    """The paper's running example: 'female' subsumes 'pregnant'."""
    rng = np.random.default_rng(5)
    n = 1000
    sex = rng.integers(0, 2, n)  # 0 = male, 1 = female
    pregnant = ((sex == 1) & (rng.uniform(0, 1, n) < 0.4)).astype(np.int64)
    # group correlates with pregnancy
    group = np.where(
        pregnant == 1,
        (rng.uniform(0, 1, n) < 0.9).astype(np.int64),
        (rng.uniform(0, 1, n) < 0.2).astype(np.int64),
    )
    schema = Schema.of(
        [
            Attribute.categorical("sex", ["male", "female"]),
            Attribute.categorical("pregnant", ["no", "yes"]),
        ]
    )
    return Dataset(
        schema,
        {"sex": sex, "pregnant": pregnant},
        group,
        ["control", "case"],
    )


class TestRedundancy:
    def test_female_and_pregnant_is_redundant(self, pregnancy_dataset):
        itemset = Itemset(
            [
                CategoricalItem("sex", "female"),
                CategoricalItem("pregnant", "yes"),
            ]
        )
        pattern = evaluate_itemset(itemset, pregnancy_dataset)
        assert is_redundant(pattern, pregnancy_dataset)

    def test_pregnant_alone_not_redundant(self, pregnancy_dataset):
        itemset = Itemset([CategoricalItem("pregnant", "yes")])
        pattern = evaluate_itemset(itemset, pregnancy_dataset)
        assert not is_redundant(pattern, pregnancy_dataset)

    def test_level_one_never_redundant(self, pregnancy_dataset):
        itemset = Itemset([CategoricalItem("sex", "male")])
        pattern = evaluate_itemset(itemset, pregnancy_dataset)
        assert not is_redundant(pattern, pregnancy_dataset)


@pytest.fixture
def conjunction_dataset():
    """Group 1 requires BOTH conditions (hurricane-style): a > 0.5 AND
    b > 0.5; each condition alone is weakly associated."""
    rng = np.random.default_rng(6)
    n = 2000
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n)
    both = (a > 0.5) & (b > 0.5)
    group = np.where(
        both, (rng.uniform(0, 1, n) < 0.9), (rng.uniform(0, 1, n) < 0.05)
    ).astype(np.int64)
    schema = Schema.of(
        [Attribute.continuous("a"), Attribute.continuous("b")]
    )
    return Dataset(schema, {"a": a, "b": b}, group, ["calm", "storm"])


class TestProductivity:
    def test_conjunction_is_productive(self, conjunction_dataset):
        itemset = Itemset(
            [
                NumericItem("a", Interval(0.5, 1.0)),
                NumericItem("b", Interval(0.5, 1.0)),
            ]
        )
        pattern = evaluate_itemset(itemset, conjunction_dataset)
        assert is_productive(pattern, conjunction_dataset)

    def test_independent_parts_not_productive(self):
        """Two independent attributes each with the same weak signal: the
        conjunction's difference equals the independence product."""
        rng = np.random.default_rng(8)
        n = 4000
        group = rng.integers(0, 2, n)
        # a and b each slightly shifted by group, independently
        a = rng.uniform(0, 1, n) + 0.2 * group
        b = rng.uniform(0, 1, n) + 0.2 * group
        schema = Schema.of(
            [Attribute.continuous("a"), Attribute.continuous("b")]
        )
        ds = Dataset(schema, {"a": a, "b": b}, group, ["g0", "g1"])
        itemset = Itemset(
            [
                NumericItem("a", Interval(0.6, 1.3)),
                NumericItem("b", Interval(0.6, 1.3)),
            ]
        )
        pattern = evaluate_itemset(itemset, ds)
        assert not is_productive(pattern, ds)

    def test_level_one_always_productive(self, conjunction_dataset):
        itemset = Itemset([NumericItem("a", Interval(0.5, 1.0))])
        pattern = evaluate_itemset(itemset, conjunction_dataset)
        assert is_productive(pattern, conjunction_dataset)


class TestIndependentProductivity:
    def test_subset_explained_by_superset_fails(self, conjunction_dataset):
        sub = evaluate_itemset(
            Itemset([NumericItem("a", Interval(0.5, 1.0))]),
            conjunction_dataset,
        )
        sup = evaluate_itemset(
            Itemset(
                [
                    NumericItem("a", Interval(0.5, 1.0)),
                    NumericItem("b", Interval(0.5, 1.0)),
                ]
            ),
            conjunction_dataset,
        )
        flags = independently_productive_mask(
            [sub, sup], conjunction_dataset
        )
        assert flags == [False, True]

    def test_without_superset_in_list_subset_passes(
        self, conjunction_dataset
    ):
        sub = evaluate_itemset(
            Itemset([NumericItem("a", Interval(0.5, 1.0))]),
            conjunction_dataset,
        )
        flags = independently_productive_mask([sub], conjunction_dataset)
        assert flags == [True]

    def test_region_subsumption_handles_shifted_bins(
        self, conjunction_dataset
    ):
        """A specialisation with slightly different boundaries still
        explains its parent."""
        sub = evaluate_itemset(
            Itemset([NumericItem("a", Interval(0.5, 1.0))]),
            conjunction_dataset,
        )
        sup = evaluate_itemset(
            Itemset(
                [
                    NumericItem("a", Interval(0.52, 0.99)),
                    NumericItem("b", Interval(0.5, 1.0)),
                ]
            ),
            conjunction_dataset,
        )
        flags = independently_productive_mask(
            [sub, sup], conjunction_dataset
        )
        assert flags[0] is False


class TestClassifyAndFilter:
    def test_report_counts_add_up(self, conjunction_dataset):
        patterns = [
            evaluate_itemset(
                Itemset([NumericItem("a", Interval(0.5, 1.0))]),
                conjunction_dataset,
            ),
            evaluate_itemset(
                Itemset(
                    [
                        NumericItem("a", Interval(0.5, 1.0)),
                        NumericItem("b", Interval(0.5, 1.0)),
                    ]
                ),
                conjunction_dataset,
            ),
        ]
        report = classify_patterns(patterns, conjunction_dataset)
        assert report.n_meaningful + report.n_meaningless == len(patterns)
        assert len(report.meaningful) == len(patterns)

    def test_filter_returns_only_meaningful(self, conjunction_dataset):
        patterns = [
            evaluate_itemset(
                Itemset([NumericItem("a", Interval(0.5, 1.0))]),
                conjunction_dataset,
            ),
            evaluate_itemset(
                Itemset(
                    [
                        NumericItem("a", Interval(0.5, 1.0)),
                        NumericItem("b", Interval(0.5, 1.0)),
                    ]
                ),
                conjunction_dataset,
            ),
        ]
        kept = filter_meaningful(patterns, conjunction_dataset)
        assert len(kept) == 1
        assert len(kept[0].itemset) == 2

    def test_empty_input(self, conjunction_dataset):
        report = classify_patterns([], conjunction_dataset)
        assert report.n_meaningful == 0
        assert filter_meaningful([], conjunction_dataset) == []


# ---------------------------------------------------------------------------
# Packed covers against the dense reference
# ---------------------------------------------------------------------------


def _reference_report(patterns, dataset, alpha=0.05):
    """The filters as dense masks: every count is ``Itemset.cover`` plus
    ``Dataset.group_counts``, and independent productivity tests every
    ordered pair of patterns.  Returns the report's three flag lists."""

    def evaluate(itemset):
        counts = dataset.group_counts(itemset.cover(dataset))
        return ContrastPattern(
            itemset, tuple(int(c) for c in counts),
            dataset.group_sizes, dataset.group_labels,
        )

    def redundant(pattern):
        itemset = pattern.itemset
        return len(itemset) > 1 and any(
            redundant_against_subset(
                pattern, evaluate(itemset.without_attribute(name)), alpha
            )
            for name in itemset.attributes
        )

    def productive(pattern):
        itemset = pattern.itemset
        if len(itemset) <= 1:
            return True
        supports = pattern.supports
        order = sorted(
            range(len(supports)),
            key=lambda g: pattern.group_sizes[g],
            reverse=True,
        )
        x, y = order[0], order[1]
        if supports[x] < supports[y]:
            x, y = y, x
        n_x = dataset.group_sizes[x]
        for part_a, part_b in itemset.partitions():
            pat_a, pat_b = evaluate(part_a), evaluate(part_b)
            if supports[x] - supports[y] <= (
                pat_a.supports[x] * pat_b.supports[x]
                - pat_a.supports[y] * pat_b.supports[y]
            ):
                return False
            n_ab = evaluate(itemset).counts[x]
            n_a, n_b = pat_a.counts[x], pat_b.counts[x]
            table = np.array(
                [[n_ab, n_a - n_ab], [n_b - n_ab, n_x - n_a - n_b + n_ab]],
                dtype=np.float64,
            )
            if not (
                chi_square_independence(table).p_value < alpha
                and table[0, 0] * table[1, 1] > table[0, 1] * table[1, 0]
            ):
                return False
        return True

    def independently_productive(i):
        pattern = patterns[i]
        mine = pattern.itemset.cover(dataset)
        for j, other in enumerate(patterns):
            if i == j or pattern.itemset == other.itemset:
                continue
            if not pattern.itemset.region_subsumes(other.itemset):
                continue
            if other.itemset.region_subsumes(pattern.itemset):
                continue
            counts = dataset.group_counts(mine & ~other.itemset.cover(dataset))
            residual = ContrastPattern(
                pattern.itemset, tuple(int(c) for c in counts),
                dataset.group_sizes, dataset.group_labels,
            )
            table = contingency_from_counts(counts, dataset.group_sizes)
            if not (
                chi_square_independence(table).significant_at(alpha)
                and residual.dominant_group == pattern.dominant_group
            ):
                return False
        return True

    return (
        [redundant(p) for p in patterns],
        [not productive(p) for p in patterns],
        [not independently_productive(i) for i in range(len(patterns))],
    )


_MIXED_SCHEMA = Schema.of(
    [
        Attribute.continuous("a"),
        Attribute.continuous("b"),
        Attribute.categorical("c", ["p", "q", "r"]),
    ]
)

#: Few distinct values, so ties are everywhere and interval endpoints
#: land on data values.
_VALUES = (0.0, 1.0, 2.0, 3.0, 4.0)


@st.composite
def _interval(draw):
    """An interval over ``_VALUES``, sometimes unbounded on a side."""
    ends = _VALUES + (-math.inf, math.inf)
    lo, hi = sorted(draw(st.lists(st.sampled_from(ends), min_size=2,
                                  max_size=2)))
    if lo == hi:
        return Interval(lo, hi, True, True)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _mixed_case(draw):
    """A mixed dataset and a list of patterns over it.

    Continuous columns hold ties and NaN, one of two or three groups may
    have a single row, and the patterns pick, per attribute, nothing or
    one of a few items, so nested regions (specialisations), repeated
    itemsets and specialisations covering all of a pattern's rows (an
    empty residual) all occur.
    """
    n = draw(st.integers(7, 40))
    value = st.sampled_from(_VALUES + (math.nan,))
    columns = {
        "a": np.array(draw(st.lists(value, min_size=n, max_size=n))),
        "b": np.array(draw(st.lists(value, min_size=n, max_size=n))),
        "c": np.array(
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        ),
    }
    n_groups = draw(st.integers(2, 3))
    groups = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    groups[:2] = [0, 1]
    if n_groups == 3:
        groups[draw(st.integers(2, n - 1))] = 2
    dataset = Dataset(
        _MIXED_SCHEMA, columns, np.array(groups),
        ["g0", "g1", "g2"][:n_groups],
    )
    items = {
        "a": [NumericItem("a", iv) for iv in draw(
            st.lists(_interval(), min_size=1, max_size=3))],
        "b": [NumericItem("b", iv) for iv in draw(
            st.lists(_interval(), min_size=1, max_size=3))],
        "c": [CategoricalItem("c", v) for v in ("p", "q", "r")],
    }
    itemsets = []
    for _ in range(draw(st.integers(1, 10))):
        chosen = []
        for name, options in items.items():
            k = draw(st.integers(-1, len(options) - 1))
            if k >= 0:
                chosen.append(options[k])
        itemsets.append(Itemset(chosen))
    patterns = [evaluate_itemset(itemset, dataset) for itemset in itemsets]
    return dataset, patterns


@settings(max_examples=60, deadline=None)
@given(_mixed_case())
def test_packed_filters_match_dense_reference(case):
    """classify_patterns on packed covers gives the dense reference's
    verdicts, in memory and on views of 1, 3 and 7 chunks; the
    standalone filters agree with it too."""
    dataset, patterns = case
    expected = _reference_report(patterns, dataset)

    def verdicts(report):
        return (
            report.redundant,
            report.unproductive,
            report.not_independently_productive,
        )

    assert verdicts(classify_patterns(patterns, dataset)) == expected
    redundant, unproductive, not_independent = expected
    assert [is_redundant(p, dataset) for p in patterns] == redundant
    assert [not is_productive(p, dataset) for p in patterns] == unproductive
    assert [
        not ok for ok in independently_productive_mask(patterns, dataset)
    ] == not_independent
    with tempfile.TemporaryDirectory() as tmp:
        for n_chunks in (1, 3, 7):
            store = ChunkedDataset.pack(
                Path(tmp) / str(n_chunks),
                dataset,
                chunk_size=math.ceil(dataset.n_rows / n_chunks),
            )
            view = store.view()
            assert verdicts(classify_patterns(patterns, view)) == expected


@pytest.mark.parametrize("budget", [None, 0])
def test_classification_reads_each_attribute_once(
    mixed_dataset, tmp_path, monkeypatch, budget
):
    """On a 3-chunk view a classification fills each attribute at most
    once (through the view's two-column cache, or chunk files when the
    view is over the gather budget) and never gathers the view's
    ``int64`` group codes."""
    config = MinerConfig(max_tree_depth=3).no_pruning()
    patterns = ContrastSetMiner(config).mine(mixed_dataset).patterns
    names = {name for p in patterns for name in p.itemset.attributes}
    assert len(names) == 3 and max(len(p.itemset) for p in patterns) > 1
    store = ChunkedDataset.pack(
        tmp_path / "store",
        mixed_dataset,
        chunk_size=math.ceil(mixed_dataset.n_rows / 3),
    )
    view = store.view()
    assert view.n_chunks == 3
    if budget is not None:
        monkeypatch.setattr(partition, "MEDIAN_GATHER_BUDGET", budget)
    fills: dict[str, int] = {}
    original = ChunkedView.iter_chunk_columns

    def counting(self, name):
        fills[name] = fills.get(name, 0) + 1
        return original(self, name)

    monkeypatch.setattr(ChunkedView, "iter_chunk_columns", counting)
    report = classify_patterns(patterns, view)
    assert set(fills) == names
    assert all(count == 1 for count in fills.values()), fills
    assert view._resident_codes is None
    expected = classify_patterns(patterns, mixed_dataset)
    assert report.meaningful == expected.meaningful
