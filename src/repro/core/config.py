"""Configuration shared by SDAD-CS and the surrounding search.

The defaults mirror the paper's experimental setup (Section 5): initial
``alpha = 0.05``, ``delta = 0.1``, search tree stunted at 5 levels, top-100
patterns.  ``MinerConfig.no_pruning()`` produces the SDAD-CS NP variant used
as the level playing field in the quantitative comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..resilience.policy import ResiliencePolicy

__all__ = ["MinerConfig"]


@dataclass(frozen=True)
class MinerConfig:
    """All knobs of the contrast-set miner.

    Attributes
    ----------
    delta:
        Minimum support difference for a contrast to be *large* (Eq. 2).
    alpha:
        Initial significance level; adjusted down the search tree via the
        Bonferroni ladder (Section 3).
    max_tree_depth:
        Maximum number of attributes in an itemset (the paper stunts the
        search tree at 5 levels).
    max_split_depth:
        Maximum recursion depth of the median splitting inside SDAD-CS
        (a safety bound; the optimistic estimate and the expected-count
        rule normally stop recursion much earlier).
    k:
        Size of the top-k pattern list.
    interest_measure:
        Registered name of the interest measure to optimise
        (``support_difference``, ``purity_ratio``, ``surprising``, ...).
    merge:
        Whether to run the bottom-up merge of contiguous similar spaces.
    merge_alpha:
        Significance level for the merge similarity test (chi-square between
        two spaces' group-count vectors); spaces merge when they are *not*
        significantly different.
    min_expected_count:
        Expected-cell-count floor for the chi-square approximation.
    prune_min_deviation / prune_expected_count / prune_optimistic /
    prune_redundant / prune_pure_space:
        Individual pruning strategies (Section 4.3).  ``no_pruning()``
        switches all five off.
    use_bonferroni:
        Whether to walk alpha down the Bonferroni ladder with search level.
    """

    delta: float = 0.1
    alpha: float = 0.05
    max_tree_depth: int = 5
    max_split_depth: int = 12
    k: int = 100
    interest_measure: str = "support_difference"
    split_statistic: str = "median"
    """Where to split a continuous attribute inside the current region:
    ``"median"`` (the paper's choice) or ``"mean"`` (Section 4.1 mentions
    both; the ablation bench compares them)."""
    merge: bool = True
    merge_alpha: float = 0.05
    min_expected_count: float = 5.0
    prune_min_deviation: bool = True
    prune_expected_count: bool = True
    prune_optimistic: bool = True
    prune_redundant: bool = True
    prune_pure_space: bool = True
    use_bonferroni: bool = True
    report_all_spaces: bool = False
    """When True, SDAD-CS reports *every* contrast space encountered
    during the recursion — parents, children, and deferred (Dtemp) spaces
    alike — instead of the consolidated merged list.  This is part of the
    SDAD-CS NP configuration: with the redundancy-oriented pruning off,
    the paper's comparison deliberately keeps the redundant high-interest
    variants in the top-k (Section 5, experimental setup)."""
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    """Fault-tolerance policy of the parallel scheduler (per-task retry
    count, timeout, backoff, and the serial-fallback switch).  Never
    changes mined patterns — only how failures are survived.  See
    :mod:`repro.resilience`."""

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must be in [0, 1)")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be >= 1")
        if self.max_split_depth < 1:
            raise ValueError("max_split_depth must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.split_statistic not in ("median", "mean"):
            raise ValueError("split_statistic must be 'median' or 'mean'")
        if not isinstance(self.resilience, ResiliencePolicy):
            raise TypeError("resilience must be a ResiliencePolicy")

    def no_pruning(self) -> "MinerConfig":
        """The SDAD-CS NP configuration: same engine, all novel pruning
        strategies disabled (Section 5, experimental setup)."""
        return replace(
            self,
            prune_optimistic=False,
            prune_redundant=False,
            prune_pure_space=False,
            report_all_spaces=True,
        )

    def with_(self, **changes) -> "MinerConfig":
        """Functional update helper (``config.with_(delta=0.05)``)."""
        return replace(self, **changes)
