"""Tests for repro.core.pruning."""

import pytest

from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Itemset
from repro.core.pruning import (
    PruneReason,
    PruneTable,
    expected_count_prunes,
    is_pure_space,
    minimum_deviation_prunes,
    redundant_against_subset,
)


def _pattern(counts, sizes=(100, 100)):
    return ContrastPattern(
        itemset=Itemset([CategoricalItem("c", "v")]),
        counts=counts,
        group_sizes=sizes,
        group_labels=("A", "B"),
    )


class TestMinimumDeviation:
    def test_prunes_low_support_everywhere(self):
        assert minimum_deviation_prunes([5, 5], [100, 100], delta=0.1)

    def test_keeps_when_one_group_exceeds(self):
        assert not minimum_deviation_prunes([30, 5], [100, 100], delta=0.1)

    def test_boundary_is_inclusive(self):
        # support exactly delta cannot yield a difference > delta
        assert minimum_deviation_prunes([10, 10], [100, 100], delta=0.1)

    def test_empty_groups(self):
        assert minimum_deviation_prunes([0, 0], [0, 0], delta=0.1)


class TestExpectedCount:
    def test_prunes_tiny_cells(self):
        assert expected_count_prunes([2, 1], [1000, 1000])

    def test_keeps_healthy_cells(self):
        assert not expected_count_prunes([50, 40], [100, 100])

    def test_custom_minimum(self):
        assert expected_count_prunes([6, 6], [100, 100], minimum=7)
        assert not expected_count_prunes([6, 6], [100, 100], minimum=5)


class TestRedundancy:
    def test_identical_difference_is_redundant(self):
        subset = _pattern((60, 20))
        pattern = _pattern((59, 20))
        assert redundant_against_subset(pattern, subset, alpha=0.05)

    def test_pregnant_female_example(self):
        # 'female & pregnant' has the same supports as 'pregnant'
        subset = _pattern((40, 0))
        pattern = _pattern((40, 0))
        assert redundant_against_subset(pattern, subset, alpha=0.05)

    def test_genuinely_different_not_redundant(self):
        subset = _pattern((60, 50))
        pattern = _pattern((60, 5))
        assert not redundant_against_subset(pattern, subset, alpha=0.05)

    def test_tied_subset_uses_pattern_direction(self):
        # the root region has support 1 in both groups; a child with a
        # real difference must NOT be called redundant
        subset = _pattern((100, 100))
        pattern = _pattern((90, 10))
        assert not redundant_against_subset(pattern, subset, alpha=0.05)

    def test_tied_subset_and_tied_pattern(self):
        subset = _pattern((100, 100))
        pattern = _pattern((50, 50))
        assert redundant_against_subset(pattern, subset, alpha=0.05)


class TestPureSpace:
    def test_single_group_is_pure(self):
        assert is_pure_space([0, 10])
        assert is_pure_space([10, 0])

    def test_mixed_not_pure(self):
        assert not is_pure_space([1, 10])

    def test_empty_not_pure(self):
        assert not is_pure_space([0, 0])

    def test_min_count(self):
        assert not is_pure_space([0, 2], min_count=3)
        assert is_pure_space([0, 3], min_count=3)


class TestPruneTable:
    def test_add_contains(self):
        table = PruneTable()
        table.add("key", PruneReason.MIN_DEVIATION)
        assert table.contains("key")
        assert not table.contains("other")
        assert len(table) == 1

    def test_counts_checks_and_hits(self):
        table = PruneTable()
        table.add("key", PruneReason.EMPTY)
        table.contains("key")
        table.contains("nope")
        assert table.checks == 2
        assert table.hits == 1

    def test_reason_lookup(self):
        table = PruneTable()
        table.add("key", PruneReason.REDUNDANT)
        assert table.reason_for("key") is PruneReason.REDUNDANT
        assert table.reason_for("nope") is None

    def test_reason_counts(self):
        table = PruneTable()
        table.add("a", PruneReason.EMPTY)
        table.add("b", PruneReason.EMPTY)
        table.add("c", PruneReason.PURE_SPACE)
        counts = table.reason_counts()
        assert counts[PruneReason.EMPTY] == 2
        assert counts[PruneReason.PURE_SPACE] == 1
