"""Statistical machinery used throughout the miner.

Includes the chi-square independence test STUCCO and SDAD-CS rely on
(Eq. 3), Fisher's exact test for tiny tables, the Bonferroni-style alpha
ladder of Bay & Pazzani, the central-limit-theorem difference bound used by
the redundancy pruning rule (Eq. 14-16), and the Wilcoxon-Mann-Whitney test
used by the Table 4 comparison harness.

The miner's kernels come from ``scipy.special`` (``chdtrc`` for the
chi-square p-value, ``ndtri`` for the CLT quantile).  Only
:func:`fisher_exact_2x2` and :func:`mann_whitney_u` need ``scipy.stats``,
and they import it on first call: loading it costs most of a second and
about 45 MB per process, which a mine or a server that never runs either
test does not pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from functools import lru_cache

from scipy import special as _scipy_special

__all__ = [
    "ChiSquareResult",
    "chi_square_independence",
    "chi_square_counts",
    "chi_square_counts_batch",
    "contingency_from_counts",
    "fisher_exact_2x2",
    "expected_counts",
    "min_expected_count",
    "min_expected_count_batch",
    "AlphaLadder",
    "clt_difference_bound",
    "clt_difference_bound_batch",
    "difference_is_statistically_same",
    "mann_whitney_u",
]


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-square test of independence."""

    statistic: float
    p_value: float
    dof: int

    def significant_at(self, alpha: float) -> bool:
        return self.p_value < alpha


def contingency_from_counts(
    in_counts: Sequence[int] | np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Build the 2 x k contingency table (in-space vs out-of-space x group).

    Row 0 holds the per-group counts of rows covered by the itemset, row 1
    the per-group counts of rows not covered.  This is the table STUCCO's
    significance test is computed on.
    """
    in_counts = np.asarray(in_counts, dtype=np.float64)
    group_sizes = np.asarray(group_sizes, dtype=np.float64)
    if in_counts.shape != group_sizes.shape:
        raise ValueError("in_counts and group_sizes must align")
    if np.any(in_counts > group_sizes):
        raise ValueError("count exceeds group size")
    return np.vstack([in_counts, group_sizes - in_counts])


def expected_counts(table: np.ndarray) -> np.ndarray:
    """Expected cell counts under independence for a contingency table."""
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total <= 0:
        return np.zeros_like(table)
    return np.outer(table.sum(axis=1), table.sum(axis=0)) / total


def min_expected_count(
    in_counts: Sequence[int] | np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
) -> float:
    """Smallest expected cell count of the itemset's contingency table.

    The paper prunes itemsets whose expected occurrence is below 5 because
    the chi-square approximation is unreliable there (Section 3).
    """
    table = contingency_from_counts(in_counts, group_sizes)
    expected = expected_counts(table)
    return float(expected.min()) if expected.size else 0.0


def chi_square_independence(
    table: np.ndarray, yates: bool = False
) -> ChiSquareResult:
    """Pearson chi-square test of independence on a contingency table.

    Rows or columns whose marginal is zero are dropped (they carry no
    information and would produce 0/0 expected counts).  Returns a
    non-significant result (p = 1) when the reduced table is degenerate.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("contingency table must be 2-dimensional")
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return ChiSquareResult(0.0, 1.0, 0)
    expected = expected_counts(table)
    diff = np.abs(table - expected)
    if yates and table.shape == (2, 2):
        diff = np.maximum(diff - 0.5, 0.0)
    statistic = float((diff**2 / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    # chdtrc is the kernel chi2.sf dispatches to; calling it directly
    # skips scipy's distribution machinery (~170us per scalar call).
    p_value = float(_scipy_special.chdtrc(dof, statistic))
    return ChiSquareResult(statistic, p_value, dof)


def _batch_count_arrays(
    in_counts: np.ndarray, group_sizes: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and float-convert an ``(N, G)`` counts matrix + sizes."""
    counts = np.asarray(in_counts, dtype=np.float64)
    sizes = np.asarray(group_sizes, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError("batch counts must be 2-dimensional (N, n_groups)")
    if sizes.shape != (counts.shape[1],):
        raise ValueError("in_counts and group_sizes must align")
    if np.any(counts > sizes[None, :]):
        raise ValueError("count exceeds group size")
    return counts, sizes


def chi_square_counts_batch(
    in_counts: np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chi-square independence test for N contingency rows at once.

    Row ``i`` of ``in_counts`` is one itemset's per-group covered counts;
    the test is run on each implied ``2 x G`` table exactly as
    ``chi_square_independence(contingency_from_counts(row, sizes))`` would
    — every floating-point reduction mirrors the scalar op sequence
    (same pairwise summation over the same element order), so results are
    bit-identical, not merely close.  Returns ``(statistic, p_value,
    dof)`` vectors; degenerate rows get ``(0.0, 1.0, 0)``.
    """
    counts, sizes = _batch_count_arrays(in_counts, group_sizes)
    n = counts.shape[0]
    stat = np.zeros(n, dtype=np.float64)
    p = np.ones(n, dtype=np.float64)
    dof = np.zeros(n, dtype=np.int64)
    if n == 0:
        return stat, p, dof
    # A column's marginal is count + (size - count) == size exactly, so
    # the scalar path's column-drop mask is constant across the batch.
    col_keep = sizes > 0
    if not col_keep.all():
        counts = np.ascontiguousarray(counts[:, col_keep])
        sizes = sizes[col_keep]
    g = counts.shape[1]
    if g < 2:
        return stat, p, dof
    # Every intermediate marginal here is a sum of integer-valued
    # float64s, hence exact regardless of reduction order: the column
    # marginal ``count + (size - count)`` is ``size``, and the table
    # total is ``sizes.sum()`` — both constant across the batch — while
    # the row marginal r1 is ``total - r0``.  Using the closed forms
    # skips two (N, G) temporaries and the concatenated total reduction
    # while producing bit-identical expected counts.
    total = float(sizes.sum())
    r0 = counts.sum(axis=1)
    valid = (r0 > 0) & (r0 < total)
    if not valid.any():
        return stat, p, dof
    if not valid.all():
        counts = counts[valid]
        r0 = r0[valid]
    rest = sizes[None, :] - counts
    r1 = total - r0
    # On valid rows both row marginals are positive and every kept column
    # size is positive, so the expected counts are strictly positive —
    # no division guard needed.
    e0 = r0[:, None] * sizes[None, :] / total
    e1 = r1[:, None] * sizes[None, :] / total
    d0 = np.abs(counts - e0)
    d1 = np.abs(rest - e1)
    # Flattened (2, G) C-order is [row0..., row1...]; laying the terms
    # out contiguously in that order reproduces the element order of the
    # scalar ``(diff**2 / expected).sum()`` pairwise reduction.
    terms = np.empty((counts.shape[0], 2 * g), dtype=np.float64)
    terms[:, :g] = d0**2 / e0
    terms[:, g:] = d1**2 / e1
    s = terms.sum(axis=1)
    stat[valid] = s
    dof[valid] = g - 1
    p[valid] = _scipy_special.chdtrc(g - 1, s)
    return stat, p, dof


def chi_square_counts(
    in_counts: Sequence[int] | np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
) -> ChiSquareResult:
    """Scalar wrapper over :func:`chi_square_counts_batch` (N = 1)."""
    stat, p, dof = chi_square_counts_batch(
        np.asarray(in_counts, dtype=np.float64)[None, :], group_sizes
    )
    return ChiSquareResult(float(stat[0]), float(p[0]), int(dof[0]))


def min_expected_count_batch(
    in_counts: np.ndarray,
    group_sizes: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Smallest expected cell count for N contingency rows at once.

    Bit-identical to ``min_expected_count(row, sizes)`` per row: the
    expected counts are computed over the *full* (undropped) table, as the
    scalar path does.
    """
    counts, sizes = _batch_count_arrays(in_counts, group_sizes)
    n = counts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    # The full-table column marginal of column g is exactly ``sizes[g]``
    # and the table total is exactly ``sizes.sum()`` (sums of
    # integer-valued float64s are order-independent and exact), so the
    # expected counts are ``r * sizes[g] / total`` — monotone in
    # ``sizes[g]`` for either row marginal ``r >= 0``.  The smallest
    # expected cell is therefore ``min(r0, r1) * sizes.min() / total``,
    # computed with the same multiply-then-divide the full matrix would
    # apply to that cell: bit-identical, in O(N) instead of O(N x G).
    total = float(sizes.sum())
    if total <= 0:
        return np.zeros(n, dtype=np.float64)
    r0 = counts.sum(axis=1)
    r1 = total - r0
    return np.minimum(r0, r1) * float(sizes.min()) / total


def fisher_exact_2x2(table: np.ndarray) -> float:
    """Two-sided Fisher exact test p-value for a 2x2 table.

    Used as the small-sample fallback when expected counts drop under 5 and
    a caller still needs a significance decision (e.g. merging tiny spaces).
    """
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (2, 2):
        raise ValueError("fisher exact test needs a 2x2 table")
    from scipy import stats as _scipy_stats

    return float(_scipy_stats.fisher_exact(table)[1])


class AlphaLadder:
    """Bonferroni-style alpha adjustment over search-tree levels.

    Bay & Pazzani divide the overall significance budget across levels:
    level ``l`` receives at most ``alpha / 2^l`` which is then split across
    the candidates actually tested at that level, and the ladder is
    monotone non-increasing so deeper levels are never *easier* to pass.
    """

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._level_alphas: dict[int, float] = {}

    def alpha_for_level(self, level: int, n_candidates: int = 1) -> float:
        """Adjusted alpha for a 1-based search level with ``n_candidates``
        simultaneous tests."""
        if level < 1:
            raise ValueError("levels are 1-based")
        budget = self.alpha / (2**level) / max(1, n_candidates)
        previous = self._level_alphas.get(level - 1, self.alpha)
        adjusted = min(budget, previous)
        existing = self._level_alphas.get(level)
        if existing is None or adjusted < existing:
            self._level_alphas[level] = adjusted
        return self._level_alphas[level]


@lru_cache(maxsize=256)
def _z_quantile(alpha: float) -> float:
    """Normal ``1 - alpha/2`` quantile, memoized per alpha.

    ndtri is the kernel norm.ppf dispatches to; alpha is constant per
    search level, so the cache removes the scipy call from the hot path.
    """
    return float(_scipy_special.ndtri(1.0 - alpha / 2.0))


def clt_difference_bound(
    supp_x: float,
    supp_y: float,
    n_x: int,
    n_y: int,
    alpha: float = 0.05,
) -> float:
    """Half-width of the CLT confidence band on a support difference.

    Implements Eq. 14-16: the sampling variance of the support difference
    between two groups is ``p_x(1-p_x)/n_x + p_y(1-p_y)/n_y``; the band is
    the normal ``1 - alpha/2`` quantile times that standard error.  (The
    paper writes ``alpha * sqrt(a+b)`` — a significance level only makes
    sense here as its z-quantile, see DESIGN.md substitution #5.)
    """
    if n_x <= 0 or n_y <= 0:
        return math.inf
    a = supp_x * (1.0 - supp_x) / n_x
    b = supp_y * (1.0 - supp_y) / n_y
    return _z_quantile(alpha) * math.sqrt(a + b)


def clt_difference_bound_batch(
    supp_x: np.ndarray,
    supp_y: np.ndarray,
    n_x: np.ndarray,
    n_y: np.ndarray,
    alpha: float = 0.05,
) -> np.ndarray:
    """Vectorized :func:`clt_difference_bound` over aligned arrays.

    All inputs broadcast; elements with a non-positive sample size get an
    infinite bound, exactly like the scalar function.  IEEE-754 gives the
    same double result for the same op sequence, so each element is
    bit-identical to its scalar counterpart.
    """
    sx = np.asarray(supp_x, dtype=np.float64)
    sy = np.asarray(supp_y, dtype=np.float64)
    nx = np.asarray(n_x, dtype=np.float64)
    ny = np.asarray(n_y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sx * (1.0 - sx) / nx
        b = sy * (1.0 - sy) / ny
        out = _z_quantile(alpha) * np.sqrt(a + b)
    return np.where((nx <= 0) | (ny <= 0), math.inf, out)


def difference_is_statistically_same(
    diff_current: float,
    diff_subset: float,
    subset_supp_x: float,
    subset_supp_y: float,
    n_x: int,
    n_y: int,
    alpha: float = 0.05,
) -> bool:
    """Redundancy test of Section 4.3: is the current itemset's support
    difference within the CLT band around its subset's difference?

    If yes, the specialisation adds nothing over the subset and the
    itemset (and its supersets) are pruned as redundant.
    """
    bound = clt_difference_bound(
        subset_supp_x, subset_supp_y, n_x, n_y, alpha
    )
    return abs(diff_current - diff_subset) <= bound


def mann_whitney_u(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> float:
    """Two-sided Wilcoxon-Mann-Whitney p-value (Table 4's ``*`` marker).

    Returns 1.0 when either sample is empty or both samples are constant
    and identical (no evidence of a difference).
    """
    a = np.asarray(list(sample_a), dtype=np.float64)
    b = np.asarray(list(sample_b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return 1.0
    if np.all(a == a[0]) and np.all(b == b[0]) and a[0] == b[0]:
        return 1.0
    from scipy import stats as _scipy_stats

    try:
        return float(
            _scipy_stats.mannwhitneyu(a, b, alternative="two-sided").pvalue
        )
    except ValueError:
        return 1.0
