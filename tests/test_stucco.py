"""Tests for the STUCCO categorical contrast-set miner.

Besides behavioural tests, STUCCO's patterns and per-rule prune counters
are pinned by the ``stucco`` block of ``tests/data/golden_categorical.json``:
on the categorical census and Adult stand-ins, and behind the MVD,
entropy and Srikant discretizers on the Adult stand-in and simulated
datasets 1-4.  The file was generated once and is never regenerated.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import MinerConfig
from repro.analysis.algorithms import run_entropy, run_mvd, run_srikant
from repro.baselines.stucco import StuccoConfig, stucco
from repro.core.serialize import patterns_to_dicts
from repro.dataset import synthetic, uci
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_categorical.json"

_DISCRETIZED = {"mvd": run_mvd, "entropy": run_entropy, "srikant": run_srikant}
_DISCRETIZED_INPUTS = {
    "adult": lambda: uci.adult(scale=0.15),
    **{
        f"simulated_dataset_{i}": getattr(synthetic, f"simulated_dataset_{i}")
        for i in range(1, 5)
    },
}


def _stucco_runs():
    """Name -> zero-argument run returning a result with ``patterns``
    and ``stats``."""
    runs = {
        "census": lambda: stucco(
            uci.census_income(scale=0.02), StuccoConfig(max_depth=2)
        ),
        "adult": lambda: stucco(
            uci.adult(scale=0.15), StuccoConfig(max_depth=3)
        ),
    }
    for method, run in _DISCRETIZED.items():
        for name, load in _DISCRETIZED_INPUTS.items():
            runs[f"{method}_{name}"] = (
                lambda run=run, load=load: run(
                    load(), MinerConfig(max_tree_depth=3)
                )
            )
    return runs


STUCCO_RUNS = _stucco_runs()


def _stucco_entry(result) -> dict:
    """What one STUCCO run is pinned by in ``golden_categorical.json``."""
    payload = json.dumps(patterns_to_dicts(result.patterns), sort_keys=True)
    return {
        "n_patterns": len(result.patterns),
        "patterns_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "prune_rule_checks": dict(result.stats.prune_rule_checks),
        "prune_rule_hits": dict(result.stats.prune_rule_hits),
    }


@pytest.fixture(scope="module")
def golden_stucco():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["stucco"]


@pytest.mark.parametrize("name", sorted(STUCCO_RUNS))
def test_stucco_matches_golden(golden_stucco, name):
    assert _stucco_entry(STUCCO_RUNS[name]()) == golden_stucco[name]


class TestStucco:
    def test_finds_planted_contrast(self, categorical_dataset):
        result = stucco(categorical_dataset)
        assert result.patterns
        best = result.patterns[0]
        assert "tool = T1" in str(best.itemset)

    def test_rejects_continuous(self, mixed_dataset):
        with pytest.raises(ValueError, match="categorical"):
            stucco(mixed_dataset, attributes=["x"])

    def test_defaults_to_categorical_attributes(self, mixed_dataset):
        # mixed dataset: continuous attrs are skipped automatically
        result = stucco(mixed_dataset)
        for pattern in result.patterns:
            assert pattern.itemset.attributes == ("color",) or all(
                a == "color" for a in pattern.itemset.attributes
            )

    def test_all_patterns_are_contrasts(self, categorical_dataset):
        config = StuccoConfig()
        result = stucco(categorical_dataset, config)
        for pattern in result.patterns:
            assert pattern.support_difference > config.delta

    def test_k_truncation(self, categorical_dataset):
        result = stucco(categorical_dataset, StuccoConfig(k=1))
        assert len(result.patterns) <= 1

    def test_sorted_by_difference(self, categorical_dataset):
        result = stucco(categorical_dataset)
        diffs = [p.support_difference for p in result.patterns]
        assert diffs == sorted(diffs, reverse=True)

    def test_max_depth_one(self, categorical_dataset):
        result = stucco(categorical_dataset, StuccoConfig(max_depth=1))
        assert all(len(p.itemset) == 1 for p in result.patterns)

    def test_no_contrast_in_noise(self):
        rng = np.random.default_rng(9)
        n = 500
        schema = Schema.of([Attribute.categorical("c", ["a", "b", "c"])])
        ds = Dataset(
            schema,
            {"c": rng.integers(0, 3, n)},
            rng.integers(0, 2, n),
            ["G1", "G2"],
        )
        result = stucco(ds)
        assert result.patterns == []

    def test_stats_recorded(self, categorical_dataset):
        result = stucco(categorical_dataset)
        assert result.stats.partitions_evaluated > 0
        assert result.stats.elapsed_seconds > 0

    def test_candidates_generated_once(self, categorical_dataset):
        """Level-2 candidates must pair attributes in order, no dupes."""
        result = stucco(categorical_dataset, StuccoConfig(max_depth=2))
        seen = set()
        for pattern in result.patterns:
            assert pattern.itemset not in seen
            seen.add(pattern.itemset)


class TestTop:
    def test_top_helper(self, categorical_dataset):
        result = stucco(categorical_dataset)
        assert len(result.top(1)) <= 1
        assert result.top() == result.patterns
