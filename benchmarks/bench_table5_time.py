"""Table 5: wall time and number of partitions evaluated for SDAD-CS,
MVD, and SDAD-CS NP.

Shape expectations from the paper:

* SDAD-CS (with pruning) evaluates no more partitions than SDAD-CS NP —
  usually far fewer — and is generally the fastest of the three;
* MVD's cost per partition is higher (multivariate chi-square contexts),
  so it can be slower even when evaluating fewer partitions.

Each time cell is the median of :data:`TIMING_RUNS` runs, so the table,
and the per-partition orders read from it, repeat between runs of one
commit; one run per cell moved Adult's SDAD-CS time by a third.
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis import compare_algorithms, timing_table
from repro.core.config import MinerConfig

DATASETS = [
    "adult",
    "breast_cancer",
    "mammography",
    "transfusion",
    "shuttle",
    "ionosphere",
]

ALGORITHMS = ("sdad", "mvd", "sdad_np")
ATTRIBUTE_BUDGET = 12
#: Runs of every (dataset, algorithm); odd, so a median is one run's time.
TIMING_RUNS = 5


def _restrict(dataset):
    if len(dataset.schema) <= ATTRIBUTE_BUDGET:
        return dataset
    return dataset.project(dataset.schema.names[:ATTRIBUTE_BUDGET])


def _median_times(runs):
    """The first comparison, each row's time the median over ``runs``.

    Partition counts do not depend on timing, so every run must agree
    on them."""
    first = runs[0]
    for algorithm, row in first.rows.items():
        rows = [run.rows[algorithm] for run in runs]
        assert {r.partitions_evaluated for r in rows} == {
            row.partitions_evaluated
        }, algorithm
        row.elapsed_seconds = statistics.median(
            r.elapsed_seconds for r in rows
        )
    return first


@pytest.fixture(scope="module")
def comparisons(bench_dataset, bench_depth):
    out = {}
    for name in DATASETS:
        dataset = _restrict(bench_dataset(name))
        out[name] = _median_times(
            [
                compare_algorithms(
                    dataset,
                    name,
                    algorithms=ALGORITHMS,
                    config=MinerConfig(
                        k=100, max_tree_depth=bench_depth(name)
                    ),
                    reference="sdad",
                )
                for _ in range(TIMING_RUNS)
            ]
        )
    return out


def test_table5_time_and_partitions(benchmark, comparisons, report):
    from repro.dataset import uci
    from repro.analysis import run_algorithm

    benchmark.pedantic(
        lambda: run_algorithm(
            "sdad", uci.transfusion(), MinerConfig(k=100, max_tree_depth=2)
        ),
        rounds=1,
        iterations=1,
    )

    report(
        "table5_time",
        timing_table(list(comparisons.values()), ALGORITHMS),
    )

    fewer_partitions = 0
    for name, comp in comparisons.items():
        pruned = comp.rows["sdad"]
        unpruned = comp.rows["sdad_np"]
        assert (
            pruned.partitions_evaluated <= unpruned.partitions_evaluated
        ), name
        if pruned.partitions_evaluated < unpruned.partitions_evaluated:
            fewer_partitions += 1
    # pruning must actually bite on most datasets
    assert fewer_partitions >= len(DATASETS) - 2

    # and translate into time saved overall
    total_pruned = sum(
        c.rows["sdad"].elapsed_seconds for c in comparisons.values()
    )
    total_unpruned = sum(
        c.rows["sdad_np"].elapsed_seconds for c in comparisons.values()
    )
    assert total_pruned <= total_unpruned * 1.1
