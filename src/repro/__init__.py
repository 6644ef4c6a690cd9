"""repro — SDAD-CS contrast pattern mining for quantitative data.

Reproduction of Khade, Lin & Patel, *Finding Meaningful Contrast Patterns
for Quantitative Data*, EDBT 2019.

Quickstart::

    from repro import ContrastSetMiner, MinerConfig
    from repro.dataset.synthetic import simulated_dataset_2

    data = simulated_dataset_2()
    miner = ContrastSetMiner(MinerConfig(interest_measure="surprising"))
    result = miner.mine(data)
    for pattern in result.top(10):
        print(pattern.describe())
"""

from .core.config import MinerConfig
from .core.contrast import ContrastPattern
from .core.items import CategoricalItem, Interval, Itemset, NumericItem
from .core.miner import ContrastSetMiner, MiningResult, MiningSummary
from .core.pipeline import EvaluationContext, PruneRule, PruningPipeline
from .core.sdad import sdad_cs
from .dataset.chunked import ChunkedDataset, ChunkedView
from .dataset.schema import Attribute, AttributeKind, Schema
from .dataset.table import Dataset
from .resilience import CheckpointError, ResiliencePolicy
from .serve import (
    PatternServer,
    PatternStore,
    Query,
    ServeConfig,
    StoreError,
)

__version__ = "1.6.0"

__all__ = [
    "MinerConfig",
    "ContrastPattern",
    "CategoricalItem",
    "Interval",
    "Itemset",
    "NumericItem",
    "ContrastSetMiner",
    "MiningResult",
    "MiningSummary",
    "EvaluationContext",
    "PruneRule",
    "PruningPipeline",
    "sdad_cs",
    "Attribute",
    "AttributeKind",
    "Schema",
    "Dataset",
    "ChunkedDataset",
    "ChunkedView",
    "CheckpointError",
    "ResiliencePolicy",
    "PatternStore",
    "PatternServer",
    "Query",
    "ServeConfig",
    "StoreError",
    "__version__",
]
