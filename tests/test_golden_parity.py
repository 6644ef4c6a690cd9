"""Golden-output parity: every execution path produces byte-identical
patterns and prune accounting.

``tests/data/golden_patterns.json`` holds serialised pattern lists
captured from the pre-pipeline serial miner (mask backend, depth 2) on
the paper's simulated datasets 1-4 and the Adult stand-in.  The shared
PruningPipeline must reproduce them exactly — same itemsets, same
counts, same order — for every combination of counting backend and
worker count.  Any drift between paths (the old parallel categorical
branch disagreed with serial on Adult) fails here.

``tests/data/golden_accounting.json`` freezes what each run *did*, not
just what it found: for the five golden datasets at depth 2 and the
``mixed_dataset`` fixture at depth 3, under eight configurations, it
records the pattern count, a sha256 of the serialised patterns, and
twelve search counters (per-rule prune checks and hits, lookup-table
probes, partitions evaluated, counting calls, ...).  It was generated
once from the per-candidate scalar driver of v1.5.0 and is never
regenerated: it pins verdict dispatch and prune accounting for the
batch driver that replaced it.

``tests/data/golden_meaningful.json`` freezes the meaningfulness
verdicts (paper Sec. 4.3, Table 6): for the five golden datasets at
depth 2, ``mixed_dataset`` at depth 3 and the Adult stand-in at depth 3
(so 3-item patterns are classified too), under the default config and
``no_pruning()``, it records the pattern count and the three per-pattern
flag lists of :func:`classify_patterns`.  It was generated once from
the filters of v1.6.0, which evaluated every subset and partition of
every pattern afresh, and is never regenerated.

``tests/data/golden_categorical.json`` freezes categorical-only mines at
depth 3, where level-3 candidates are tested for redundancy against
their level-2 subsets: the 28 categorical attributes of the census
stand-in and the 8 of the Adult stand-in, under the default config and
``no_pruning()``, with the same entry shape as the accounting grid.  It
was generated once by the engine that judged one attribute combination
per batch and is never regenerated.  Its ``stucco`` block is checked by
``tests/test_stucco.py``.

``tests/data/golden_chunked.json`` freezes mines of continuous columns
with missing values, where median splits drop NaN rows from their
sample and from both halves: a ``mixed_dataset``-style table with runs
of NaN that chunk boundaries cut, ``±inf`` and heavy ties at the
maximum (depth 3), and the manufacturing case study with 5% sensor
dropouts (depth 2), under the default config, ``no_pruning()`` and
``split_statistic="mean"``, with the entry shape of the accounting
grid.  Each entry is checked in memory and on 1-, 3- and 7-chunk
views, at the default gather budget and with the budget below the row
count, so the streaming selector runs and no split holds chunk columns.
A mine that raises is frozen as its error.  The file was generated once
by the engine whose combine step re-read every split column, and is
never regenerated.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import (
    Attribute,
    ChunkedDataset,
    ContrastSetMiner,
    Dataset,
    MinerConfig,
    Schema,
)
from repro.core import partition
from repro.core.meaningful import classify_patterns
from repro.core.serialize import patterns_to_dicts
from repro.dataset import synthetic, uci
from repro.dataset.manufacturing import manufacturing

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_patterns.json"
ACCOUNTING_PATH = Path(__file__).parent / "data" / "golden_accounting.json"
MEANINGFUL_PATH = Path(__file__).parent / "data" / "golden_meaningful.json"
CATEGORICAL_PATH = Path(__file__).parent / "data" / "golden_categorical.json"
CHUNKED_PATH = Path(__file__).parent / "data" / "golden_chunked.json"

LOADERS = {
    "simulated_dataset_1": synthetic.simulated_dataset_1,
    "simulated_dataset_2": synthetic.simulated_dataset_2,
    "simulated_dataset_3": synthetic.simulated_dataset_3,
    "simulated_dataset_4": synthetic.simulated_dataset_4,
    "adult": lambda: uci.adult(scale=0.15),
}

#: Search depth per accounting dataset; ``mixed`` is the conftest
#: ``mixed_dataset`` fixture.
ACCOUNTING_DEPTHS = {**{name: 2 for name in LOADERS}, "mixed": 3}

#: Configuration changes per accounting entry, applied on top of
#: ``MinerConfig(max_tree_depth=depth, counting_backend=backend)``.
ACCOUNTING_CONFIGS = {
    "default": lambda config: config,
    "no_pruning": lambda config: config.no_pruning(),
    "purity_ratio": lambda config: config.with_(
        interest_measure="purity_ratio"
    ),
    "surprising": lambda config: config.with_(interest_measure="surprising"),
    "wracc": lambda config: config.with_(interest_measure="wracc"),
    "split_mean": lambda config: config.with_(split_statistic="mean"),
    "no_merge": lambda config: config.with_(merge=False),
    "no_bonferroni": lambda config: config.with_(use_bonferroni=False),
}

#: The frozen ``MiningStats`` counters (timings and backend cache
#: counters are left out: they legitimately differ between runs and
#: backends).
ACCOUNTING_COUNTERS = (
    "prune_rule_checks",
    "prune_rule_hits",
    "prune_reasons",
    "partitions_evaluated",
    "spaces_pruned",
    "count_calls",
    "prune_table_checks",
    "prune_table_hits",
    "sdad_calls",
    "merges_performed",
    "candidates_generated",
    "nodes_expanded",
)


def _accounting_config(name: str, config_name: str, backend: str):
    base = MinerConfig(
        max_tree_depth=ACCOUNTING_DEPTHS[name], counting_backend=backend
    )
    return ACCOUNTING_CONFIGS[config_name](base)


def _accounting_entry(result) -> dict:
    """What one mining run is pinned by in ``golden_accounting.json``."""
    payload = json.dumps(patterns_to_dicts(result.patterns), sort_keys=True)
    entry = {
        "n_patterns": len(result.patterns),
        "patterns_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }
    for counter in ACCOUNTING_COUNTERS:
        value = getattr(result.stats, counter)
        entry[counter] = dict(value) if isinstance(value, dict) else value
    return entry


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_accounting():
    with ACCOUNTING_PATH.open() as handle:
        return json.load(handle)


def _accounting_dataset(name, request):
    if name == "mixed":
        return request.getfixturevalue("mixed_dataset")
    return LOADERS[name]()


@pytest.mark.parametrize("backend", ["mask", "bitmap"])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_patterns_match_golden(golden, name, backend, n_jobs):
    dataset = LOADERS[name]()
    config = MinerConfig(max_tree_depth=2, counting_backend=backend)
    result = ContrastSetMiner(config).mine(dataset, n_jobs=n_jobs)
    assert patterns_to_dicts(result.patterns) == golden[name], (
        f"{name} drifted from golden output "
        f"(backend={backend}, n_jobs={n_jobs})"
    )


@pytest.mark.parametrize("backend", ["mask", "bitmap"])
@pytest.mark.parametrize("config_name", sorted(ACCOUNTING_CONFIGS))
@pytest.mark.parametrize("name", sorted(ACCOUNTING_DEPTHS))
def test_accounting_matches_golden(
    golden_accounting, request, name, config_name, backend
):
    dataset = _accounting_dataset(name, request)
    config = _accounting_config(name, config_name, backend)
    result = ContrastSetMiner(config).mine(dataset)
    assert _accounting_entry(result) == golden_accounting[name][config_name]


@pytest.mark.parametrize("name", sorted(ACCOUNTING_DEPTHS))
def test_parallel_accounting_matches_golden(
    golden_accounting, request, name
):
    """The level-parallel scheduler reports the serial counters."""
    dataset = _accounting_dataset(name, request)
    config = _accounting_config(name, "default", "mask")
    result = ContrastSetMiner(config).mine(dataset, n_jobs=2)
    assert _accounting_entry(result) == golden_accounting[name]["default"]


#: Search depth per meaningfulness entry; ``adult_d3`` is the Adult
#: stand-in at depth 3.
MEANINGFUL_DEPTHS = {**ACCOUNTING_DEPTHS, "adult_d3": 3}


@pytest.fixture(scope="module")
def golden_meaningful():
    with MEANINGFUL_PATH.open() as handle:
        return json.load(handle)


def _meaningful_entry(report) -> dict:
    """What one classification is pinned by in ``golden_meaningful.json``."""
    return {
        "n_patterns": len(report.patterns),
        "redundant": report.redundant,
        "unproductive": report.unproductive,
        "not_independently_productive": report.not_independently_productive,
    }


@pytest.mark.parametrize("config_name", ["default", "no_pruning"])
@pytest.mark.parametrize("name", sorted(MEANINGFUL_DEPTHS))
def test_meaningfulness_matches_golden(
    golden_meaningful, request, tmp_path, name, config_name
):
    """Same verdicts in memory and on a 3-chunk out-of-core view."""
    dataset = _accounting_dataset(name.removesuffix("_d3"), request)
    config = ACCOUNTING_CONFIGS[config_name](
        MinerConfig(max_tree_depth=MEANINGFUL_DEPTHS[name])
    )
    patterns = ContrastSetMiner(config).mine(dataset).patterns
    expected = golden_meaningful[name][config_name]

    report = classify_patterns(patterns, dataset)
    assert _meaningful_entry(report) == expected

    store = ChunkedDataset.pack(
        tmp_path / "store",
        dataset,
        chunk_size=math.ceil(dataset.n_rows / 3),
    )
    view = store.view()
    assert view.n_chunks == 3
    assert _meaningful_entry(classify_patterns(patterns, view)) == expected


#: Categorical-only depth-3 datasets: every attribute combination of a
#: level is categorical, so candidates of a level are judged together.
CATEGORICAL_LOADERS = {
    "census": lambda: uci.census_income(scale=0.02),
    "adult": lambda: uci.adult(scale=0.15),
}


@pytest.fixture(scope="module")
def golden_categorical():
    with CATEGORICAL_PATH.open() as handle:
        return json.load(handle)


def _mine_categorical(name, config_name, backend, n_jobs):
    """One frozen categorical-only mine of ``golden_categorical.json``."""
    dataset = CATEGORICAL_LOADERS[name]()
    config = ACCOUNTING_CONFIGS[config_name](
        MinerConfig(max_tree_depth=3, counting_backend=backend)
    )
    attributes = [a.name for a in dataset.schema if a.is_categorical]
    return ContrastSetMiner(config).mine(
        dataset, attributes=attributes, n_jobs=n_jobs
    )


@pytest.mark.parametrize(
    "backend,n_jobs", [("mask", 1), ("bitmap", 1), ("mask", 2)]
)
@pytest.mark.parametrize("config_name", ["default", "no_pruning"])
@pytest.mark.parametrize("name", sorted(CATEGORICAL_LOADERS))
def test_categorical_depth3_matches_golden(
    golden_categorical, name, config_name, backend, n_jobs
):
    result = _mine_categorical(name, config_name, backend, n_jobs)
    expected = golden_categorical["miner"][name][config_name]
    assert _accounting_entry(result) == expected


def _mixed_with_gaps() -> Dataset:
    """``mixed_dataset`` with missing and infinite values and heavy ties.

    ``x`` loses three runs of rows to NaN, each cut by a boundary of the
    3- or 7-chunk layout; ``noise`` holds ``+inf`` and ``-inf``; about
    60% of ``load`` sits at its maximum, so its root split takes the
    heavy-ties fallback, and ``load`` misses three single rows.
    """
    rng = np.random.default_rng(12345)
    n = 600
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    noise = rng.uniform(0, 1, n)
    load = np.where(
        rng.uniform(0, 1, n) < np.where(group == 1, 0.7, 0.5),
        5.0,
        rng.uniform(0, 5, n),
    )
    color = rng.integers(0, 3, n)
    for lo, hi in ((80, 95), (195, 205), (425, 436)):
        x[lo:hi] = np.nan
    noise[[10, 300, 511]] = np.inf
    noise[[50, 420]] = -np.inf
    load[[3, 250, 599]] = np.nan
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.continuous("noise"),
            Attribute.continuous("load"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    return Dataset(
        schema,
        {"x": x, "noise": noise, "load": load, "color": color},
        group,
        ["A", "B"],
    )


#: Datasets of ``golden_chunked.json`` with their search depths.
CHUNKED_LOADERS = {
    "mixed_gaps": (_mixed_with_gaps, 3),
    "manufacturing": (
        lambda: manufacturing(
            n_noise_categorical=4, n_noise_continuous=2, missing_rate=0.05
        ),
        2,
    ),
}

CHUNKED_CONFIGS = ("default", "no_pruning", "split_mean")


@pytest.fixture(scope="module")
def golden_chunked():
    with CHUNKED_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def chunked_layouts(tmp_path_factory):
    """Each dataset in memory and on 1-, 3- and 7-chunk views."""
    layouts = {}
    for name, (loader, _) in CHUNKED_LOADERS.items():
        dataset = loader()
        layouts[name] = {"in memory": dataset}
        for n_chunks in (1, 3, 7):
            store = ChunkedDataset.pack(
                tmp_path_factory.mktemp(name) / "store",
                dataset,
                chunk_size=math.ceil(dataset.n_rows / n_chunks),
            )
            view = store.view()
            assert view.n_chunks == n_chunks
            layouts[name][f"{n_chunks} chunks"] = view
    return layouts


def _chunked_entry(dataset, name, config_name, backend, n_jobs=1) -> dict:
    """What one mine is pinned by in ``golden_chunked.json``."""
    config = ACCOUNTING_CONFIGS[config_name](
        MinerConfig(
            max_tree_depth=CHUNKED_LOADERS[name][1], counting_backend=backend
        )
    )
    try:
        result = ContrastSetMiner(config).mine(dataset, n_jobs=n_jobs)
    except ValueError as exc:
        # The mean of a sample holding +inf and -inf is NaN, which
        # Interval refuses as a split point.
        return {"error": str(exc)}
    return _accounting_entry(result)


@pytest.mark.parametrize("budget", ["default", "below_rows"])
@pytest.mark.parametrize("backend", ["mask", "bitmap"])
@pytest.mark.parametrize("config_name", CHUNKED_CONFIGS)
@pytest.mark.parametrize("name", sorted(CHUNKED_LOADERS))
def test_chunked_grid_matches_golden(
    golden_chunked, chunked_layouts, monkeypatch, name, config_name,
    backend, budget,
):
    layouts = chunked_layouts[name]
    if budget == "below_rows":
        # Multi-chunk spaces above a quarter of the rows stream, with a
        # pivot loop that narrows; every other split gathers without
        # holding its chunk columns.
        monkeypatch.setattr(
            partition,
            "MEDIAN_GATHER_BUDGET",
            layouts["in memory"].n_rows // 4,
        )
        monkeypatch.setattr(partition, "_STREAM_GATHER_FALLBACK", 16)
    expected = golden_chunked[name][config_name]
    for layout, dataset in layouts.items():
        assert _chunked_entry(dataset, name, config_name, backend) == (
            expected
        ), f"{name}/{config_name} drifted {layout}"


@pytest.mark.parametrize("name", sorted(CHUNKED_LOADERS))
def test_chunked_grid_parallel_matches_golden(
    golden_chunked, chunked_layouts, name
):
    """The level-parallel scheduler reports the serial entries."""
    for layout in ("in memory", "3 chunks"):
        dataset = chunked_layouts[name][layout]
        assert _chunked_entry(dataset, name, "default", "mask", n_jobs=2) == (
            golden_chunked[name]["default"]
        ), f"{name} drifted {layout}"
