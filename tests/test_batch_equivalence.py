"""Batch-vs-scalar kernel equivalence suite (DESIGN.md §12).

Two layers of the vectorized evaluation engine are pinned here:

* ``group_counts_batch`` returns exactly the stacked scalar
  ``group_counts`` rows, for every registered backend (property-based);
* every vectorized kernel (chi-square, expected counts, prune
  predicates, optimistic estimates, interest measures) matches its
  scalar counterpart element for element — bit-identical where the
  kernel docstring promises it, else to 1e-12;
* the redundancy rule's batch verdict over (candidate, subset) pairs
  equals its scalar ``check`` per candidate, in both phases.

End-to-end, the batch driver is pinned to patterns and per-rule prune
accounting frozen from the retired per-candidate driver
(``tests/data/golden_accounting.json``, checked by
``tests/test_golden_parity.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    CategoricalItem,
    ContrastPattern,
    Dataset,
    Itemset,
    MinerConfig,
    Schema,
)
from repro.core import measures
from repro.core.items import Interval, NumericItem
from repro.core.pipeline import (
    PHASE_ITEMSET,
    PHASE_SPACE,
    EvaluationBatch,
    EvaluationContext,
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
    expected_count_prunes_batch,
    is_pure_space,
    is_pure_space_batch,
    minimum_deviation_prunes,
    minimum_deviation_prunes_batch,
)
from repro.core.stats import (
    chi_square_counts,
    chi_square_counts_batch,
    min_expected_count,
    min_expected_count_batch,
)
from repro.counting import make_backend


# ----------------------------------------------------------------------
# group_counts_batch == stacked scalar group_counts, per backend
# ----------------------------------------------------------------------


@st.composite
def dataset_and_itemsets(draw):
    """A small mixed dataset plus a batch of random candidate itemsets.

    Two or three categorical attributes of cardinality 1-5, each wider
    one with a category no row takes, so the mask backend's
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
@given(data=dataset_and_itemsets(), backend_name=st.sampled_from(["mask", "bitmap"]))
def test_group_counts_batch_matches_stacked_scalar(data, backend_name):
    dataset, itemsets = data
    backend = make_backend(backend_name, dataset)
    before = backend.counters()
    batch = backend.group_counts_batch(itemsets)
    grown = backend.counters() - before
    n = len(itemsets)
    # every categorical combination here fits the table bound, so only
    # itemsets with a numeric item take the per-candidate path
    with_numeric = sum(
        any(isinstance(item, NumericItem) for item in itemset)
        for itemset in itemsets
    )
    assert grown.count_calls == n
    assert grown.batch_calls == 1
    assert grown.batched_candidates == n
    assert grown.batch_fallbacks == with_numeric
    assert batch.shape == (n, dataset.n_groups)
    assert batch.dtype == np.int64
    for i, itemset in enumerate(itemsets):
        assert np.array_equal(batch[i], backend.group_counts(itemset))


def test_mask_batch_bounds_table_cells():
    """Three 5,000-category attributes over a few hundred rows would
    need a ~2.5e11-cell table: those combinations are counted one by
    one instead, and a one-attribute set still gets its table."""
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
    backend = make_backend("mask", dataset)
    batch = backend.group_counts_batch(itemsets)
    assert backend.batch_fallbacks == len(wide) + 1
    assert backend.count_calls == len(itemsets)
    for i, itemset in enumerate(itemsets):
        assert np.array_equal(batch[i], backend.group_counts(itemset))
    assert batch[: len(wide)].sum() >= len(wide)


def test_group_counts_batch_matches_scalar_chunked(tmp_path, mixed_dataset):
    from repro.counting.chunked import ChunkedBackend
    from repro.dataset.chunked import ChunkedDataset

    store = ChunkedDataset.pack(
        tmp_path / "store", mixed_dataset, chunk_size=97
    )
    backend = ChunkedBackend(store.view(), inner="mask")
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
        assert np.array_equal(batch[i], backend.group_counts(itemset))


def test_group_counts_batch_empty_input(mixed_dataset):
    for name in ("mask", "bitmap"):
        backend = make_backend(name, mixed_dataset)
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
    dev = minimum_deviation_prunes_batch(counts, sizes, delta)
    exp = expected_count_prunes_batch(counts, sizes, 5.0)
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
# the redundancy rule's batch verdict == its scalar check per candidate
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
        ctx = EvaluationContext(
            key=itemset,
            config=config,
            alpha=data["alpha"],
            phase=data["phase"],
            itemset=itemset,
            pattern=ContrastPattern(
                itemset,
                tuple(int(c) for c in data["counts"][i]),
                sizes,
                data["labels"],
            ),
            subset_patterns=subsets,
        )
        assert bool(verdict[j]) == RedundancyRule().check(ctx)


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
        return PureSpaceRule().check(
            EvaluationContext(
                key=candidate,
                config=MinerConfig(),
                alpha=0.05,
                itemset=candidate,
                known_pure=known_pure,
            )
        )

    assert not check(same_length)
    if len(candidate) > 1:
        shorter = candidate.without_attribute(candidate.attributes[0])
        assert check([shorter])

