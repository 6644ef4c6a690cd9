"""Batch-vs-scalar kernel equivalence suite (DESIGN.md §12).

Two layers of the vectorized evaluation engine are pinned here:

* ``group_counts_batch`` returns exactly the reference counts
  ``dataset.group_counts(itemset.cover(dataset))``, in memory and on a
  multi-chunk view (property-based);
* every vectorized kernel (chi-square, expected counts, the minimum
  deviation and expected count rules' closed forms, optimistic
  estimates, interest measures) matches its scalar counterpart element
  for element — bit-identical where the kernel docstring promises it,
  else to 1e-12;
* the redundancy rule's batch verdict over (candidate, subset) pairs
  equals the scalar redundancy test against any of each candidate's
  subsets, and the pure-space rule's verdict equals subsumption of the
  materialised itemset by a shorter pure one, in both phases.

End-to-end, the batch driver is pinned to patterns and per-rule prune
accounting frozen from the retired per-candidate driver
(``tests/data/golden_accounting.json``, checked by
``tests/test_golden_parity.py``).
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    CategoricalItem,
    ChunkedDataset,
    ContrastPattern,
    Dataset,
    Itemset,
    MinerConfig,
    Schema,
)
from repro.core import measures
from repro.core.items import Interval, NumericItem
from repro.core.partition import Space
from repro.core.pipeline import (
    PHASE_ITEMSET,
    PHASE_SPACE,
    EvaluationBatch,
    ExpectedCountRule,
    MinimumDeviationRule,
    PureSpaceRule,
    RedundancyRule,
)
from repro.core.optimistic import (
    chi_square_estimate,
    chi_square_estimate_batch,
    support_difference_estimate,
    support_difference_estimate_batch,
)
from repro.core.pruning import (
    expected_count_prunes,
    is_pure_space,
    is_pure_space_batch,
    minimum_deviation_prunes,
    redundant_against_subset,
)
from repro.core.stats import (
    chi_square_counts,
    chi_square_counts_batch,
    min_expected_count,
    min_expected_count_batch,
)
from repro.counting import CountingBackend

# ----------------------------------------------------------------------
# group_counts_batch == the reference counts, in memory and on a view
# ----------------------------------------------------------------------


def _layouts(dataset, path):
    """``dataset`` in memory and as a view of three chunks."""
    view = ChunkedDataset.pack(
        path, dataset, chunk_size=math.ceil(dataset.n_rows / 3)
    ).view()
    assert view.n_chunks == 3
    return dataset, view


@st.composite
def dataset_and_itemsets(draw):
    """A small mixed dataset plus a batch of random candidate itemsets.

    Two or three categorical attributes of cardinality 1-5, each wider
    one with a category no row takes, so the counter's
    contingency-table key spans several attributes and empty cells.  A
    batch mixes attribute sets, the empty itemset and numeric items.
    """
    n = draw(st.integers(20, 120))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    group = rng.integers(0, draw(st.integers(2, 3)), n)
    n_groups = int(group.max()) + 1
    cardinalities = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    categories = {
        f"c{j}": [f"v{v}" for v in range(card)]
        for j, card in enumerate(cardinalities)
    }
    columns = {"x": rng.uniform(0, 1, n), "y": rng.normal(0, 1, n)}
    for name, labels in categories.items():
        taken = list(range(len(labels)))
        if len(taken) > 1:
            taken.remove(draw(st.sampled_from(taken)))
        columns[name] = rng.choice(taken, n)
    schema = Schema.of(
        [Attribute.continuous("x"), Attribute.continuous("y")]
        + [
            Attribute.categorical(name, labels)
            for name, labels in categories.items()
        ]
    )
    dataset = Dataset(
        schema, columns, group, [f"G{i}" for i in range(n_groups)]
    )

    def interval_item(attr):
        lo, hi = sorted(
            draw(
                st.tuples(
                    st.floats(-2, 2, allow_nan=False),
                    st.floats(-2, 2, allow_nan=False),
                )
            )
        )
        if lo == hi:
            return NumericItem(attr, Interval(lo, hi, True, True))
        return NumericItem(
            attr, Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
        )

    itemsets = []
    for _ in range(draw(st.integers(0, 10))):
        items = [
            CategoricalItem(name, draw(st.sampled_from(labels)))
            for name, labels in categories.items()
            if draw(st.booleans())
        ]
        if draw(st.booleans()):
            items.append(interval_item("x"))
        if draw(st.booleans()):
            items.append(interval_item("y"))
        itemsets.append(Itemset(items))
    return dataset, itemsets


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=dataset_and_itemsets())
def test_group_counts_batch_matches_stacked_scalar(data):
    dataset, itemsets = data
    n = len(itemsets)
    # every categorical combination here fits the table bound, so only
    # itemsets with a numeric item take the per-candidate path
    with_numeric = sum(
        any(isinstance(item, NumericItem) for item in itemset)
        for itemset in itemsets
    )
    with tempfile.TemporaryDirectory() as tmp:
        for layout in _layouts(dataset, Path(tmp) / "store"):
            backend = CountingBackend(layout)
            before = backend.counters()
            batch = backend.group_counts_batch(itemsets)
            grown = backend.counters() - before
            assert grown.count_calls == n
            assert grown.batch_calls == 1
            assert grown.batched_candidates == n
            assert grown.batch_fallbacks == with_numeric
            assert batch.shape == (n, dataset.n_groups)
            assert batch.dtype == np.int64
            for i, itemset in enumerate(itemsets):
                assert np.array_equal(
                    batch[i], dataset.group_counts(itemset.cover(dataset))
                )


def test_mask_batch_bounds_table_cells(tmp_path):
    """Three 5,000-category attributes over a few hundred rows would
    need a ~2.5e11-cell table: those combinations are counted one by
    one instead, and a one-attribute set still gets its table.  The
    bound is ``max(largest chunk, 65_536)`` cells, so 65,536 both in
    memory and on a view of 100-row chunks."""
    n = 300
    rng = np.random.default_rng(7)
    labels = [f"v{v}" for v in range(5_000)]
    names = ("a", "b", "c")
    schema = Schema.of([Attribute.categorical(name, labels) for name in names])
    dataset = Dataset(
        schema,
        {name: rng.integers(0, 5_000, n) for name in names},
        rng.integers(0, 2, n),
        ["G0", "G1"],
    )
    rows = rng.integers(0, n, 4)
    wide = [
        Itemset(
            CategoricalItem(name, labels[dataset.column(name)[row]])
            for name in names
        )
        for row in rows
    ]
    pair = Itemset(
        CategoricalItem(name, labels[dataset.column(name)[rows[0]]])
        for name in names[:2]
    )
    single = Itemset([CategoricalItem("a", labels[0])])
    itemsets = [*wide, pair, single]
    for layout in _layouts(dataset, tmp_path / "store"):
        backend = CountingBackend(layout)
        batch = backend.group_counts_batch(itemsets)
        assert backend.batch_fallbacks == len(wide) + 1
        assert backend.count_calls == len(itemsets)
        for i, itemset in enumerate(itemsets):
            assert np.array_equal(
                batch[i], dataset.group_counts(itemset.cover(dataset))
            )
        assert batch[: len(wide)].sum() >= len(wide)


def test_group_counts_batch_matches_scalar_chunked(tmp_path, mixed_dataset):
    store = ChunkedDataset.pack(
        tmp_path / "store", mixed_dataset, chunk_size=97
    )
    backend = CountingBackend(store.view())
    itemsets = [
        Itemset(),
        Itemset([CategoricalItem("color", "red")]),
        Itemset([NumericItem("x", Interval(0.0, 0.5))]),
        Itemset(
            [
                CategoricalItem("color", "blue"),
                NumericItem("x", Interval(0.25, 0.75, True, False)),
            ]
        ),
    ]
    batch = backend.group_counts_batch(itemsets)
    for i, itemset in enumerate(itemsets):
        assert np.array_equal(
            batch[i], mixed_dataset.group_counts(itemset.cover(mixed_dataset))
        )


def test_group_counts_batch_empty_input(tmp_path, mixed_dataset):
    store = ChunkedDataset.pack(
        tmp_path / "store", mixed_dataset, chunk_size=97
    )
    for layout in (mixed_dataset, store.view()):
        backend = CountingBackend(layout)
        out = backend.group_counts_batch([])
        assert out.shape == (0, mixed_dataset.n_groups)
        assert out.dtype == np.int64


# ----------------------------------------------------------------------
# vectorized kernels == per-row scalar kernels
# ----------------------------------------------------------------------


@st.composite
def counts_matrices(draw):
    """Random ``(N, G)`` count rows with valid per-group sizes.

    Includes the degenerate rows the kernels special-case: all-zero
    rows, rows covering a whole group, and zero-size groups.
    """
    g = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    sizes = draw(
        st.lists(st.integers(0, 40), min_size=g, max_size=g).filter(
            lambda s: sum(s) > 0
        )
    )
    rows = [
        [draw(st.integers(0, size)) for size in sizes] for _ in range(n)
    ]
    return np.asarray(rows, dtype=np.int64), tuple(sizes)


_KERNEL_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_chi_square_batch_bit_identical(data):
    counts, sizes = data
    stat, p, dof = chi_square_counts_batch(counts, sizes)
    for i, row in enumerate(counts):
        scalar = chi_square_counts(row, sizes)
        # bit-identical, not merely close: the mining fingerprints and
        # the golden parity suite depend on it
        assert stat[i] == scalar.statistic
        assert p[i] == scalar.p_value
        assert dof[i] == scalar.dof


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_min_expected_count_batch_bit_identical(data):
    counts, sizes = data
    batch = min_expected_count_batch(counts, sizes)
    for i, row in enumerate(counts):
        assert batch[i] == min_expected_count(row, sizes)


@_KERNEL_SETTINGS
@given(data=counts_matrices(), delta=st.floats(0.0, 0.3))
def test_prune_predicates_batch_match_scalar(data, delta):
    counts, sizes = data
    batch = EvaluationBatch(
        keys=range(len(counts)),
        config=MinerConfig(delta=delta, min_expected_count=5.0),
        alpha=0.05,
        counts=counts,
        group_sizes=sizes,
    )
    idx = np.arange(len(counts))
    dev = MinimumDeviationRule().check_batch(batch, idx)
    exp = ExpectedCountRule().check_batch(batch, idx)
    pure = is_pure_space_batch(counts)
    for i, row in enumerate(counts):
        assert bool(dev[i]) == minimum_deviation_prunes(row, sizes, delta)
        assert bool(exp[i]) == expected_count_prunes(row, sizes, 5.0)
        assert bool(pure[i]) == is_pure_space(row)


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_optimistic_estimates_batch_bit_identical(data):
    counts, sizes = data
    chi = chi_square_estimate_batch(counts, sizes)
    db_size = int(sum(sizes))
    diff = support_difference_estimate_batch(counts, sizes, db_size, 1, 2)
    for i, row in enumerate(counts):
        assert chi[i] == chi_square_estimate(row, sizes)
        assert diff[i] == support_difference_estimate(
            row, sizes, db_size, 1, 2
        )


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_interest_measures_batch_match_scalar(data):
    counts, sizes = data
    labels = tuple(f"G{i}" for i in range(len(sizes)))
    item = Itemset([CategoricalItem("c", "u")])
    for name in ("support_difference", "purity_ratio", "surprising"):
        batch_fn = measures.get_batch(name)
        assert batch_fn is not None, f"no batch form registered for {name}"
        values = batch_fn(counts, sizes)
        scalar_fn = measures.get(name)
        for i, row in enumerate(counts):
            pattern = ContrastPattern(
                item, tuple(int(c) for c in row), sizes, labels
            )
            assert values[i] == pytest.approx(
                scalar_fn(pattern), abs=1e-12
            )


# ----------------------------------------------------------------------
# the redundancy rule's batch verdict == the scalar test per candidate
# ----------------------------------------------------------------------


_SUPPORT_KINDS = ("random", "random", "zero", "full", "half")


@st.composite
def redundancy_batches(draw):
    """Candidates of one batch, their subsets, and the alive rows.

    Group sizes come from a small even set, so empty groups and tied
    supports are common: a ``zero``, ``full`` or ``half`` row has the
    same support in every non-empty group.  Itemset-phase candidates
    have 1-3 attributes, and each leave-one-out subset is in the
    pattern map or missing; space-phase candidates are split into
    frames whose parent is a pattern or absent.
    """
    g = draw(st.integers(2, 4))
    sizes = tuple(
        draw(
            st.lists(
                st.sampled_from([0, 4, 10, 10, 24]), min_size=g, max_size=g
            ).filter(lambda s: sum(s) > 0)
        )
    )

    def counts_row():
        kind = draw(st.sampled_from(_SUPPORT_KINDS))
        if kind == "zero":
            return tuple(0 for _ in sizes)
        if kind == "full":
            return sizes
        if kind == "half":
            return tuple(size // 2 for size in sizes)
        return tuple(draw(st.integers(0, size)) for size in sizes)

    labels = tuple(f"G{k}" for k in range(g))

    def pattern(itemset):
        return ContrastPattern(itemset, counts_row(), sizes, labels)

    values = st.one_of(st.none(), st.sampled_from(["u", "v"]))
    shapes = draw(
        st.lists(
            st.tuples(values, values, values).filter(
                lambda t: any(v is not None for v in t)
            ),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    candidates = [
        Itemset(
            CategoricalItem(name, value)
            for name, value in zip("abc", shape)
            if value is not None
        )
        for shape in shapes
    ]
    counts = np.asarray([counts_row() for _ in candidates], dtype=np.int64)
    phase = draw(st.sampled_from([PHASE_ITEMSET, PHASE_SPACE]))
    subset_patterns: dict[Itemset, ContrastPattern] = {}
    frames: list[tuple[np.ndarray, ContrastPattern | None]] = []
    if phase == PHASE_ITEMSET:
        for itemset in candidates:
            for attribute in itemset.attributes:
                subset = itemset.without_attribute(attribute)
                if subset not in subset_patterns and draw(st.booleans()):
                    subset_patterns[subset] = pattern(subset)
    else:
        start = 0
        while start < len(candidates):
            stop = draw(st.integers(start + 1, len(candidates)))
            parent = pattern(Itemset()) if draw(st.booleans()) else None
            frames.append((np.arange(start, stop), parent))
            start = stop
    n = len(candidates)
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return {
        "sizes": sizes,
        "labels": labels,
        "candidates": candidates,
        "counts": counts,
        "phase": phase,
        "subset_patterns": subset_patterns,
        "frames": frames,
        "idx": np.flatnonzero(alive),
        "alpha": draw(st.sampled_from([0.001, 0.05, 0.5])),
    }


# More draws than the kernel tests: a wrong extreme pair only shows on
# three or more groups whose subset and candidate extremes differ.
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=redundancy_batches())
def test_redundancy_batch_matches_scalar_check(data):
    config = MinerConfig()
    sizes, candidates = data["sizes"], data["candidates"]
    patterns = data["subset_patterns"]
    frames = data["frames"]
    batch = EvaluationBatch(
        keys=candidates,
        config=config,
        alpha=data["alpha"],
        phase=data["phase"],
        counts=data["counts"],
        group_sizes=sizes,
        subset_patterns=patterns,
        shared_subset_groups=[
            (rows, lambda parent=parent: parent) for rows, parent in frames
        ],
    )
    idx = data["idx"]
    verdict = RedundancyRule().check_batch(batch, idx)
    assert verdict.shape == (len(idx),)
    for j, i in enumerate(idx):
        itemset = candidates[i]
        if data["phase"] == PHASE_ITEMSET:
            subsets = [
                patterns[subset]
                for subset in (
                    itemset.without_attribute(a) for a in itemset.attributes
                )
                if subset in patterns
            ]
        else:
            subsets = [
                parent
                for rows, parent in frames
                if i in rows and parent is not None
            ]
        pattern = ContrastPattern(
            itemset,
            tuple(int(c) for c in data["counts"][i]),
            sizes,
            data["labels"],
        )
        assert bool(verdict[j]) == any(
            redundant_against_subset(pattern, subset, data["alpha"])
            for subset in subsets
        )


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.sampled_from(["u", "v"]), min_size=1, max_size=4),
    other=st.lists(st.sampled_from(["u", "v"]), min_size=4, max_size=4),
)
def test_pure_space_never_fires_on_same_length(shape, other):
    """The premise that lets a run of combinations be one batch: a pure
    itemset never prunes a candidate of its own length — not even the
    candidate itself — while a shorter pure subset does."""
    names = "abcd"
    candidate = Itemset(
        CategoricalItem(name, value) for name, value in zip(names, shape)
    )
    same_length = [
        candidate,
        Itemset(
            CategoricalItem(name, value)
            for name, value in zip(names[::-1], other[: len(shape)])
        ),
    ]

    def check(known_pure):
        batch = EvaluationBatch(
            keys=[candidate],
            config=MinerConfig(),
            alpha=0.05,
            known_pure=known_pure,
        )
        return bool(PureSpaceRule().check_batch(batch, np.arange(1))[0])

    assert not check(same_length)
    if len(candidate) > 1:
        shorter = candidate.without_attribute(candidate.attributes[0])
        assert check([shorter])



# ----------------------------------------------------------------------
# the pure-space rule's batch verdict == subsumption of the itemset
# ----------------------------------------------------------------------

# A few endpoints, so that one interval often contains another.
_ENDPOINTS = (0.0, 1.0, 2.0, 3.0)


@st.composite
def _interval(draw):
    lo, hi = sorted(
        draw(
            st.lists(
                st.sampled_from(_ENDPOINTS), min_size=2, max_size=2,
                unique=True,
            )
        )
    )
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _itemset(draw, categorical=("a", "b"), numeric=("x", "y", "z")):
    """Items over some of ``categorical`` (values u/v) and ``numeric``."""
    items = [
        CategoricalItem(name, draw(st.sampled_from(["u", "v"])))
        for name in categorical
        if draw(st.booleans())
    ]
    items += [
        NumericItem(name, draw(_interval()))
        for name in numeric
        if draw(st.booleans())
    ]
    return Itemset(items)


@st.composite
def _near(draw, itemset):
    """Some of ``itemset``'s items, each kept or redrawn: an itemset
    that often subsumes ``itemset``, and often only just fails to."""
    items = []
    for item in itemset:
        if not draw(st.booleans()):
            continue
        if draw(st.booleans()):
            items.append(item)
        elif isinstance(item, NumericItem):
            items.append(NumericItem(item.attribute, draw(_interval())))
        else:
            items.append(
                CategoricalItem(
                    item.attribute, draw(st.sampled_from(["u", "v"]))
                )
            )
    return Itemset(items)


@st.composite
def pure_space_batches(draw):
    """Candidates, pure itemsets near them, and the alive rows.  The
    candidates are itemsets, or the boxes of one SDAD-CS frame: a
    context over ``a``, ``b`` and ``z`` and sibling boxes over a shared
    set of axes from ``x`` and ``y``."""
    phase = draw(st.sampled_from([PHASE_ITEMSET, PHASE_SPACE]))
    n = draw(st.integers(1, 6))
    spaces = context = None
    if phase == PHASE_ITEMSET:
        candidates = [draw(_itemset()) for _ in range(n)]
        keys = candidates
    else:
        context = draw(_itemset(numeric=("z",)))
        axes = draw(
            st.lists(
                st.sampled_from(["x", "y"]), min_size=1, max_size=2,
                unique=True,
            )
        )
        spaces = [
            Space(
                {axis: draw(_interval()) for axis in axes},
                np.zeros(1, dtype=bool),
                np.zeros(2, dtype=np.int64),
                {},
            )
            for _ in range(n)
        ]
        candidates = [space.itemset_with(context) for space in spaces]
        keys = [(context, space.key()) for space in spaces]
    known = draw(
        st.lists(
            st.one_of(_itemset(), st.sampled_from(candidates).flatmap(_near)),
            max_size=4,
        )
    )
    batch = EvaluationBatch(
        keys=keys,
        config=MinerConfig(),
        alpha=0.05,
        phase=phase,
        known_pure=known,
        spaces=spaces,
        categorical=context,
    )
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return batch, candidates, known, np.flatnonzero(alive)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=pure_space_batches())
def test_pure_space_batch_matches_subsumption(data):
    batch, candidates, known, idx = data
    expected = [
        any(
            len(candidates[i]) > len(pure)
            and pure.region_subsumes(candidates[i])
            for pure in known
        )
        for i in idx
    ]
    rule = PureSpaceRule()
    # the second call replays the space phase's per-run memo
    for _ in range(2):
        assert rule.check_batch(batch, idx).tolist() == expected
