"""MatcherPlan: the vectorized batch matcher is bit-identical to the scan.

The compiled plan (``repro.serve.plan.MatcherPlan``) is the serving hot
path; this suite pins it three ways against randomly generated pattern
sets and rows:

* ``plan.match_batch(rows)[i]`` == ``PatternIndex.match(rows[i])`` — the
  readable reference scan;
* both equal an independent brute-force re-implementation of item
  coverage written directly against ``Interval.contains`` / label
  equality (so a shared bug in index + plan cannot hide);
* error semantics agree: a non-numeric value for a numerically
  constrained attribute raises ``MatchError`` with an identical message
  from both paths, and never depends on pattern order.

Rows deliberately include missing attributes, interval boundary values
(closed and open endpoints, infinite ones included), bools (always a
``MatchError`` for numeric attributes — ``True`` must not pass as
``1.0``), integers at and beyond the float range, and category labels
no pattern mentions.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Interval, Itemset, NumericItem
from repro.serve.index import MatchError, PatternIndex
from repro.serve.plan import MatcherPlan

CAT_ATTRS = ("color", "shape")
CAT_LABELS = ("red", "green", "blue", "square")
NUM_ATTRS = ("x", "y")
BOUNDARIES = (-np.inf, -1.0, 0.0, 0.25, 0.5, 1.0, np.inf)
FLOAT_MAX_INT = 2**1024 - 2**971  # float() gives the largest float
BEYOND_FLOAT = (10**400, -(10**400), 2**1024 - 2**970)  # float() overflows


def _pattern(itemset: Itemset) -> ContrastPattern:
    return ContrastPattern(
        itemset=itemset,
        counts=(80, 20),
        group_sizes=(100, 100),
        group_labels=("A", "B"),
        level=max(1, len(itemset)),
    )


@st.composite
def itemsets(draw):
    """0-4 items, at most one per attribute (the Itemset invariant)."""
    items = []
    for attr in draw(
        st.sets(st.sampled_from(CAT_ATTRS + NUM_ATTRS), max_size=4)
    ):
        if attr in CAT_ATTRS:
            items.append(
                CategoricalItem(attr, draw(st.sampled_from(CAT_LABELS)))
            )
        else:
            lo, hi = sorted(
                draw(
                    st.lists(
                        st.sampled_from(BOUNDARIES),
                        min_size=2,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            items.append(
                NumericItem(
                    attr,
                    Interval(
                        lo, hi, draw(st.booleans()), draw(st.booleans())
                    ),
                )
            )
    return Itemset(items)


@st.composite
def indexes(draw):
    """A PatternIndex over 1-8 random (possibly duplicate) itemsets."""
    sets = draw(st.lists(itemsets(), min_size=1, max_size=8))
    return PatternIndex([_pattern(s) for s in sets])


def good_values():
    """Row values that are always matchable (strings and numbers)."""
    return st.one_of(
        st.sampled_from(CAT_LABELS + ("unseen-label",)),
        st.sampled_from(BOUNDARIES),  # exact endpoints: closure matters
        st.floats(-2.0, 2.0, allow_nan=False),
        st.integers(-2, 2),
        st.sampled_from((FLOAT_MAX_INT, -FLOAT_MAX_INT)),
    )


def rows(values=None):
    """Random rows; attributes are independently present or missing."""
    return st.dictionaries(
        st.sampled_from(CAT_ATTRS + NUM_ATTRS + ("ignored",)),
        good_values() if values is None else values,
        max_size=5,
    )


def brute_force_match(index: PatternIndex, row: dict) -> list[int]:
    """Independent coverage reimplementation; returns matching ranks."""
    matched = []
    for entry in index.entries:
        ok = True
        for item in entry.pattern.itemset:
            if item.attribute not in row:
                ok = False
                break
            value = row[item.attribute]
            if isinstance(item, CategoricalItem):
                if not (isinstance(value, str) and value == item.value):
                    ok = False
                    break
            else:
                if not item.interval.contains(float(value)):
                    ok = False
                    break
        if ok:
            matched.append(entry.rank)
    return matched


def _row_is_valid(index: PatternIndex, row: dict) -> bool:
    plan = index.plan
    return not any(
        attr in row
        and (
            isinstance(row[attr], bool)
            or not isinstance(row[attr], (int, float))
            or row[attr] in BEYOND_FLOAT
        )
        for attr in plan.numeric_attributes
    )


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(index=indexes(), batch=st.lists(rows(), max_size=6))
def test_plan_matches_scan_and_brute_force(index, batch):
    batch = [row for row in batch if _row_is_valid(index, row)]
    results = index.match_batch(batch)
    assert len(results) == len(batch)
    for row, from_plan in zip(batch, results):
        from_scan = index.match(row)
        assert from_plan == from_scan  # same IndexedPattern objects
        assert [e.rank for e in from_plan] == brute_force_match(index, row)


@_SETTINGS
@given(
    index=indexes(),
    batch=st.lists(
        rows(
            values=st.one_of(
                good_values(),
                st.booleans(),
                st.none(),
                st.lists(st.integers(), max_size=2),
                st.sampled_from(BEYOND_FLOAT),
                st.floats(allow_nan=True, allow_infinity=True),
            )
        ),
        max_size=6,
    ),
)
def test_error_semantics_agree_row_by_row(index, batch):
    """Plan and scan agree on *which* rows fail and with what message."""
    single_outcomes = []
    for row in batch:
        try:
            single_outcomes.append(("ok", index.match(row)))
        except MatchError as exc:
            single_outcomes.append(("error", str(exc)))
    first_bad = next(
        (i for i, (kind, _) in enumerate(single_outcomes) if kind == "error"),
        None,
    )
    if first_bad is None:
        assert [m for _, m in single_outcomes] == index.match_batch(batch)
    else:
        with pytest.raises(MatchError) as excinfo:
            index.match_batch(batch)
        expected = f"row {first_bad}: {single_outcomes[first_bad][1]}"
        assert str(excinfo.value) == expected


@_SETTINGS
@given(index=indexes(), row=rows(), seed=st.integers(0, 2**31 - 1))
def test_match_error_is_pattern_order_independent(index, row, seed):
    """Shuffling the pattern list never changes a row's outcome."""
    patterns = [e.pattern for e in index.entries]
    rng = np.random.default_rng(seed)
    shuffled = PatternIndex(
        [patterns[i] for i in rng.permutation(len(patterns))]
    )
    outcomes = []
    for idx in (index, shuffled):
        try:
            outcomes.append(
                ("ok", sorted(str(e.pattern.itemset) for e in idx.match(row)))
            )
        except MatchError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]


class TestKnownCases:
    """Hand-picked edges the random generators might under-sample."""

    def _index(self):
        return PatternIndex(
            [
                _pattern(
                    Itemset([NumericItem("x", Interval(0.0, 1.0, True, False))])
                ),
                _pattern(
                    Itemset([NumericItem("x", Interval(0.0, 1.0, False, True))])
                ),
                _pattern(Itemset([CategoricalItem("color", "red")])),
                _pattern(Itemset([])),  # empty itemset covers everything
            ]
        )

    def test_closure_at_endpoints(self):
        index = self._index()
        # x == 0.0: only the lo-closed interval; the empty itemset always
        lo = index.match({"x": 0.0})
        assert [e.rank for e in lo] == [0, 3]
        hi = index.match({"x": 1.0})
        assert [e.rank for e in hi] == [1, 3]
        assert index.match_batch([{"x": 0.0}, {"x": 1.0}]) == [lo, hi]

    def test_bool_is_rejected_not_coerced(self):
        index = self._index()
        # True would fall in [0, 1) if coerced to 1.0... and False to 0.0
        for bad in (True, False):
            with pytest.raises(MatchError):
                index.match({"x": bad})
            with pytest.raises(MatchError):
                index.match_batch([{"x": bad}])

    def test_unseen_label_and_non_string_no_match(self):
        index = self._index()
        assert [e.rank for e in index.match({"color": "chartreuse"})] == [3]
        # a number for a categorical-only attribute: no coverage, no error
        assert [e.rank for e in index.match({"color": 7})] == [3]

    def test_missing_attribute_no_match(self):
        index = self._index()
        assert [e.rank for e in index.match({})] == [3]

    def test_nan_never_matches_but_is_numeric(self):
        index = self._index()
        matched = index.match({"x": float("nan")})
        assert [e.rank for e in matched] == [3]

    def test_integer_beyond_float_range_is_a_match_error(self):
        index = self._index()
        message = (
            "attribute 'x' is continuous; "
            "row value is an integer beyond the float range"
        )
        for huge in BEYOND_FLOAT:
            with pytest.raises(MatchError) as excinfo:
                index.match({"x": huge})
            assert str(excinfo.value) == message
            with pytest.raises(MatchError) as excinfo:
                index.match_batch([{"x": 0.5}, {"x": huge}])
            assert str(excinfo.value) == f"row 1: {message}"
        # at the float range's edge the value still converts
        assert [e.rank for e in index.match({"x": FLOAT_MAX_INT})] == [3]
        # a categorical attribute never converts its value
        assert [e.rank for e in index.match({"color": 10**400})] == [3]

    def test_rows_other_than_dicts(self):
        """Any Mapping is a row; the validators' exact-type pass takes
        dicts only, so other mappings are validated row by row."""
        index = self._index()
        rows = [{"x": 0.0, "color": "red"}, {"x": 1.0}, {}]
        proxies = [MappingProxyType(row) for row in rows]
        assert index.match_batch(proxies) == index.match_batch(rows)
        assert index.plan.match(proxies[0]) == index.match(rows[0])
        with pytest.raises(MatchError) as excinfo:
            index.match_batch([proxies[0], MappingProxyType({"x": "hot"})])
        assert str(excinfo.value).startswith("row 1: ")
        with pytest.raises(MatchError) as excinfo:
            index.match_batch([rows[0], 7])
        assert str(excinfo.value) == "row 1: row must be a mapping, got int"

    def test_float_subclass_is_a_number(self):
        """The exact-type pass misses a float subclass; the isinstance
        loop behind it accepts it, as before."""
        index = self._index()
        matched = index.match_batch([{"x": np.float64(0.0)}])[0]
        assert [e.rank for e in matched] == [0, 3]

    def test_unhashable_label_never_matches(self):
        index = self._index()
        matched = index.match_batch([{"color": ["red"]}])[0]
        assert [e.rank for e in matched] == [3]

    def test_plan_is_cached_on_index(self):
        index = self._index()
        assert index.plan is index.plan
        assert isinstance(index.plan, MatcherPlan)
