"""Cluster-level inference: mean trends over age-year blocks and pairwise
F-tests between neighbouring blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .solve import Solution

__all__ = ["prob_f", "ClusterStat", "ClusterComparison", "ClusterReport", "cluster_compare"]

CI_FACTOR = 1.96  # normal-approximation 95% interval


def prob_f(f_value: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F(df1, df2) distribution.

    Computed through the regularized incomplete beta function.
    """
    if not (isinstance(df1, (int, np.integer)) and isinstance(df2, (int, np.integer))):
        raise ValueError(f"degrees of freedom must be integers, got ({df1!r}, {df2!r})")
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if not math.isfinite(f_value) or f_value < 0:
        raise ValueError(f"F value must be finite and nonnegative, got {f_value!r}")
    return float(special.fdtrc(df1, df2, f_value))


@dataclass(frozen=True)
class ClusterStat:
    block: tuple[int, int]  # (year block, age block)
    year_start: int  # absolute calendar year of the block's first row
    year_end: int
    age_start: int
    age_end: int
    mean: float  # mean trend over included cells, units per year
    se: float
    n_cells: int

    @property
    def ci_half(self) -> float:
        return CI_FACTOR * self.se


@dataclass(frozen=True)
class ClusterComparison:
    block: tuple[int, int]
    neighbour: tuple[int, int]
    direction: str  # "age": older-age neighbour; "period": next calendar period
    f_value: float
    prob: float
    degenerate: bool = False


@dataclass
class ClusterReport:
    age_window: int
    year_window: int
    df2: int
    clusters: list
    comparisons: list

    def cluster_at(self, block):
        for c in self.clusters:
            if c.block == block:
                return c
        return None


def cluster_compare(solution: Solution, age_window: int = 5, year_window: int = 5) -> ClusterReport:
    """Mean trends over ``year_window x age_window`` blocks with pairwise tests.

    Block means average the estimated trends of the included cells only, so
    they are invariant to anything outside the domain.  Each block is
    compared against its older-age neighbour and its next-period neighbour
    (where those exist and are non-empty):

        F = (m_i - m_j)^2 / (c_ii - 2 c_ij + c_jj),  Pr = prob_f(F, 1, n - p)

    A comparison with a nonpositive variance of the difference is marked
    degenerate instead of producing a number.
    """
    if age_window < 1 or year_window < 1:
        raise ValueError(f"cluster windows must be >= 1, got ({age_window}, {year_window})")
    domain = solution.domain
    frame = solution.frame

    members: dict[tuple[int, int], list[int]] = {}
    for cell in domain.trend_cells():
        block = (cell.i // year_window, cell.j // age_window)
        members.setdefault(block, []).append(domain.trend_index(cell))

    if not members:
        raise ValueError("no included trend cells to cluster")
    blocks = sorted(members)
    # The averaging map over compact columns: one banded solve per block.
    averaging = np.zeros((len(blocks), domain.compact_size))
    for row, block in enumerate(blocks):
        idx = members[block]
        averaging[row, idx] = 1.0 / len(idx)

    means = averaging @ solution.estimate
    block_cov = averaging @ (solution.cov @ averaging.T)

    clusters = []
    pos = {block: row for row, block in enumerate(blocks)}
    for row, (gi, gj) in enumerate(blocks):
        var = block_cov[row, row]
        clusters.append(
            ClusterStat(
                block=(gi, gj),
                year_start=frame.year_of(gi * year_window),
                year_end=frame.year_of(min((gi + 1) * year_window, frame.year_cells) - 1),
                age_start=frame.age_of(gj * age_window),
                age_end=frame.age_of(min((gj + 1) * age_window, frame.age_cells) - 1),
                mean=float(means[row]),
                se=math.sqrt(var) if var > 0 else 0.0,
                n_cells=len(members[(gi, gj)]),
            )
        )

    comparisons = []
    for row, (gi, gj) in enumerate(blocks):
        for neighbour, direction in (((gi, gj + 1), "age"), ((gi + 1, gj), "period")):
            other = pos.get(neighbour)
            if other is None:
                continue
            denom = block_cov[row, row] - 2.0 * block_cov[row, other] + block_cov[other, other]
            diff = means[row] - means[other]
            if denom <= 0 or not math.isfinite(denom):
                comparisons.append(
                    ClusterComparison((gi, gj), neighbour, direction, math.nan, math.nan, True)
                )
                continue
            f_value = float(diff * diff / denom)
            comparisons.append(
                ClusterComparison(
                    (gi, gj),
                    neighbour,
                    direction,
                    f_value,
                    prob_f(f_value, 1, solution.dof),
                )
            )
    if not comparisons:
        raise ValueError("no adjacent cluster pairs to compare")
    return ClusterReport(age_window, year_window, solution.dof, clusters, comparisons)
