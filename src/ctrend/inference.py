"""Cluster-level inference: mean trends over age-year blocks and pairwise
F-tests between neighbouring blocks.

:func:`cluster_compare` returns a :class:`ClusterReport` of columns: one
row per block (its labels, mean, SE and cell count) and one row per test
(the two block rows, the direction, F and its tail probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solve import Solution

__all__ = [
    "prob_f",
    "f_tails",
    "ClusterReport",
    "cluster_compare",
]

# Stirling's series for ln Gamma: ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2
# + sum_k B_2k / (2k (2k - 1) z^(2k - 1)).  From z = 8 on, these eight terms
# leave an error below 1e-16.
STIRLING_FROM = 8.0
_STIRLING_TERMS = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400,
)
# The continued fraction stops for an entry when its last FRACTION_CHECK
# steps changed it by less than FRACTION_TOL, relative.
FRACTION_TOL = 1e-15
FRACTION_CHECK = 4
FRACTION_MAX_STEPS = 10_000


def prob_f(f_value: float, df1: float, df2: float) -> float:
    """Upper-tail probability of the F(df1, df2) distribution.

    Computed through the regularized incomplete beta function (:func:`f_tails`).
    """
    return float(f_tails([f_value], df1, df2)[0])


def f_tails(f_values, df1: float, df2: float) -> np.ndarray:
    """Upper-tail probabilities of F(df1, df2) at each of ``f_values``, in
    one numpy pass, for real degrees of freedom of at least 1 (not
    booleans).

    The tail is the regularized incomplete beta ``I_x(a, b)`` with
    ``x = df2 / (df2 + df1 F)``, ``a = df2 / 2`` and ``b = df1 / 2``
    (Abramowitz & Stegun 26.6.2): the prefactor ``x^a (1 - x)^b / B(a, b)``
    (:func:`_log_beta`) times a continued fraction (:func:`_beta_fraction`).
    For ``F >= 1`` the fraction is that of ``I_x(a, b)``; below, that of
    ``I_(1-x)(b, a) = 1 - I_x(a, b)``.  The terms near ``x = 1`` are
    formed from ``1 - x`` directly.
    """
    if any(isinstance(df, (bool, np.bool_)) or not (math.isfinite(df) and df >= 1) for df in (df1, df2)):
        raise ValueError(f"degrees of freedom must be finite numbers >= 1, got ({df1!r}, {df2!r})")
    f = np.asarray(f_values, dtype=float)
    bad = ~(np.isfinite(f) & (f >= 0))
    if bad.any():
        raise ValueError(f"F value must be finite and nonnegative, got {float(f[bad][0])!r}")
    a, b = df2 / 2.0, df1 / 2.0
    total = df2 + df1 * f
    x, y = df2 / total, df1 * f / total  # y = 1 - x, without the cancellation
    lam = df1 * df2 * (f - 1.0) / (2.0 * total)  # (a + b) y - b: below the mean, negative
    with np.errstate(divide="ignore"):  # F = 0: y = 0, so the prefactor is 0
        front = np.exp(-a * np.log1p(df1 * f / df2) + b * np.log(y) - _log_beta(a, b))
    out = np.empty_like(f)
    upper = lam >= 0
    out[upper] = front[upper] * _beta_fraction(a, b, x[upper], y[upper], lam[upper])
    below = ~upper
    out[below] = 1.0 - front[below] * _beta_fraction(b, a, y[below], x[below], -lam[below])
    return out


def _log_beta(a: float, b: float) -> float:
    """``ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)``.

    Where the larger argument ``g`` is at least ``STIRLING_FROM``, the rise
    ``ln Gamma(g + s) - ln Gamma(g)`` comes from Stirling's series as
    ``(g - 1/2) log1p(s / g) + s ln(g + s) - s`` plus the difference of
    the series' tails, terms of the size of ``s ln g``.  Two ``lgamma``
    values near ``g ln g`` would cancel instead, and lose ``g ln g``
    times the rounding unit (5e-10 at ``g = 5e5``).
    """
    g, s = max(a, b), min(a, b)
    if g < STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = (g - 0.5) * math.log1p(s / g) + s * math.log(g + s) - s
    rise += _stirling_tail(g + s) - _stirling_tail(g)
    return math.lgamma(s) - rise


def _stirling_tail(z: float) -> float:
    """The series part of Stirling's ``ln Gamma(z)``, for ``z >= STIRLING_FROM``."""
    w = 1.0 / (z * z)
    total = 0.0
    for term in reversed(_STIRLING_TERMS):
        total = total * w + term
    return total / z


def _beta_fraction(a: float, b: float, x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``I_x(a, b) / (x^a y^b / B(a, b))`` at each ``x`` (with ``y = 1 - x``
    and ``lam = (a + b) y - b >= 0``): the continued fraction of
    DiDonato & Morris (1992, ACM TOMS 708, routine BFRAC).

    Its terms take ``lam``, ``x`` and ``y`` as given, so no term cancels
    near the mean.  Every ``FRACTION_CHECK`` steps each entry is checked,
    and it keeps its value from the first check at which those steps moved
    it by less than ``FRACTION_TOL``, so it does not depend on the other
    entries.
    """
    c0, c1 = b / a, 1.0 + 1.0 / a
    xx = x * x
    an, bn = np.zeros_like(x), np.ones_like(x)
    anp1, bnp1 = np.ones_like(x), (1.0 + lam) / c1
    r = c1 / (1.0 + lam)
    result = r.copy()
    done = np.zeros(x.shape, dtype=bool)
    p, s = 1.0, a + 1.0
    for n in range(1, FRACTION_MAX_STEPS + 1):
        t, e = n / a, a / s
        alpha = (p * (p + c0) * e * e * n * (b - n)) * xx
        e = (1.0 + t) / (c1 + t + t)
        beta = (n + e + e * n) + (n * (b - n) / s) * x + e * lam + (e * n) * y
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        if n % FRACTION_CHECK:
            continue
        r, previous = anp1 / bnp1, r
        np.copyto(result, r, where=~done)
        done |= np.abs(r - previous) <= FRACTION_TOL * r
        if done.all():
            return result
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, np.ones_like(x)  # rescaled
    raise ArithmeticError(
        f"incomplete beta fraction did not converge in {FRACTION_MAX_STEPS} steps"
    )


@dataclass
class ClusterReport:
    """Cluster means and neighbour tests as columns.

    Row ``k`` of the block columns is block ``clusters[k]``, in scan order;
    row ``t`` of the test columns compares block row ``comparisons[t, 0]``
    with its neighbour's row ``comparisons[t, 1]``.
    """

    clusters: np.ndarray  # (n, 2): (year block, age block)
    year_start: np.ndarray  # absolute calendar year of each block's first row
    year_end: np.ndarray
    age_start: np.ndarray
    age_end: np.ndarray
    mean: np.ndarray  # mean trend over included cells, units per year
    se: np.ndarray
    n_cells: np.ndarray
    covariance: np.ndarray  # of the cluster means, in the order of ``clusters``
    comparisons: np.ndarray  # (m, 2): (block row, neighbour row)
    direction: np.ndarray  # "age": older-age neighbour; "period": next calendar period
    f_value: np.ndarray  # NaN where degenerate
    prob: np.ndarray  # NaN where degenerate
    degenerate: np.ndarray


def cluster_compare(solution: Solution, age_window: int = 5, year_window: int = 5) -> ClusterReport:
    """Mean trends over ``year_window x age_window`` blocks with pairwise tests.

    Block means average the estimated trends of the included cells only, so
    they are invariant to anything outside the domain.  Each block is
    compared against its older-age neighbour and its next-period neighbour
    (where those exist and are non-empty):

        F = (m_i - m_j)^2 / (c_ii - 2 c_ij + c_jj),  Pr = prob_f(F, 1, n - p)

    A comparison with a nonpositive variance of the difference is marked
    degenerate instead of producing a number.  With no two blocks adjacent,
    as when one block covers the domain, the report has no comparisons.
    """
    if age_window < 1 or year_window < 1:
        raise ValueError(f"cluster windows must be >= 1, got ({age_window}, {year_window})")
    domain = solution.domain
    frame = solution.frame

    # Included cells in scan order, their compact columns and their blocks.
    ii, jj = np.nonzero(domain.mask)
    columns = domain.full_to_compact()[frame.cohort_count :].reshape(domain.mask.shape)[ii, jj]
    age_blocks = -(-frame.age_cells // age_window)
    keys, block_rows, n_cells = np.unique(
        (ii // year_window) * age_blocks + jj // age_window, return_inverse=True, return_counts=True
    )
    gi, gj = np.divmod(keys, age_blocks)
    # Each block's mean is the exactly rounded sum of its cells' trends
    # (``math.fsum``) over their count, the same whatever the summation order
    # of a BLAS kernel; its covariance is sigma^2 A N^-1 A^T for the averaging
    # map A, 1/n at (block, column) for each of a block's n cells.
    values = solution.estimate[columns[np.argsort(block_rows, kind="stable")]].tolist()
    ends = np.cumsum(n_cells).tolist()
    means = np.array([math.fsum(values[a:b]) for a, b in zip([0, *ends], ends)]) / n_cells
    weights = 1.0 / n_cells[block_rows]
    block_cov = solution.sigma2 * solution.inverse.map_covariance(block_rows, columns, weights, len(keys))
    var = block_cov.diagonal()

    # Each block against its older-age and its next-period neighbour, where
    # that block holds cells, by block row with the age test first.  A
    # neighbour is found by its key among the sorted block keys; -1 (no key)
    # stands for the older-age neighbour of a block in the last age column.
    candidates = np.column_stack([np.where(gj + 1 < age_blocks, keys + 1, -1), keys + age_blocks])
    rows = np.minimum(np.searchsorted(keys, candidates), len(keys) - 1)
    here, side = np.nonzero(keys[rows] == candidates)
    there = rows[here, side]
    denom = block_cov[here, here] - 2.0 * block_cov[here, there] + block_cov[there, there]
    diff = means[here] - means[there]
    degenerate = ~((denom > 0) & np.isfinite(denom))
    f_values = np.full(here.size, math.nan)
    probs = np.full(here.size, math.nan)
    if not degenerate.all():
        tested = ~degenerate
        f_values[tested] = diff[tested] * diff[tested] / denom[tested]
        probs[tested] = f_tails(f_values[tested], 1, solution.dof)
    return ClusterReport(
        clusters=np.column_stack([gi, gj]),
        year_start=frame.year_of(gi * year_window),
        year_end=frame.year_of(np.minimum((gi + 1) * year_window, frame.year_cells) - 1),
        age_start=frame.age_of(gj * age_window),
        age_end=frame.age_of(np.minimum((gj + 1) * age_window, frame.age_cells) - 1),
        mean=means,
        se=np.sqrt(np.where(var > 0, var, 0.0)),
        n_cells=n_cells,
        covariance=block_cov,
        comparisons=np.column_stack([here, there]),
        direction=np.array(["age", "period"])[side],
        f_value=f_values,
        prob=probs,
        degenerate=degenerate,
    )

