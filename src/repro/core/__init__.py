"""Core contrast-set mining machinery (the paper's contribution)."""

from .config import MinerConfig
from .contrast import ContrastPattern, evaluate_itemset
from .cover import Cover
from .items import CategoricalItem, Interval, Item, Itemset, NumericItem
from .pipeline import (
    PruneRule,
    PruningPipeline,
    default_rules,
    format_prune_report,
)
from .sdad import SDADResult, sdad_cs
from .topk import TopKList

__all__ = [
    "MinerConfig",
    "ContrastPattern",
    "Cover",
    "evaluate_itemset",
    "CategoricalItem",
    "Interval",
    "Item",
    "Itemset",
    "NumericItem",
    "PruneRule",
    "PruningPipeline",
    "default_rules",
    "format_prune_report",
    "SDADResult",
    "sdad_cs",
    "TopKList",
]
