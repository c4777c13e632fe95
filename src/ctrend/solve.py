"""Weighted least-squares solver and estimate diagnostics.

The point estimate minimizes the stacked weighted objective; the parameter
covariance is the residual variance times the inverse of the weighted
normal matrix.  Everything downstream (adjacent-estimate correlations,
goodness of fit, cluster inference) is derived from the compact estimate
and covariance held by :class:`Solution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .design import DesignSystem, objective_parts, stack
from .domain import AnalysisDomain
from .grid import ModelVector, forward_levels

__all__ = [
    "Solution",
    "CorrelationSummary",
    "SingularSystemError",
    "solve",
    "estimate_sigma2",
    "r_squared",
    "adjacent_correlations",
]

# Hard singularity threshold (exact condition number, small systems) and the
# soft ill-conditioning threshold that only attaches a warning.
SINGULAR_CONDITION = 1e14
ILL_CONDITION = 1e12
EXACT_CONDITION_MAX_SIZE = 256

IDENTIFIABILITY_HINT = (
    "the stacked system is singular: the data do not identify the model. "
    "A sufficient condition is four observation points with no three on a "
    "common straight line in the year-age plane, together with positive "
    "smoothing weights."
)


class SingularSystemError(RuntimeError):
    pass


class DegreesOfFreedomError(ValueError):
    pass


def estimate_sigma2(weighted_rss: float, n_total: int, param_count: int) -> float:
    """Residual variance: weighted residual sum of squares over (n - p).

    ``n`` counts all stacked rows (data plus both curvature blocks) and
    ``p`` the compact parameter count; the same convention feeds the
    F-test denominator degrees of freedom.
    """
    dof = n_total - param_count
    if dof <= 0:
        raise DegreesOfFreedomError(
            f"nonpositive degrees of freedom: {n_total} rows, {param_count} parameters"
        )
    return weighted_rss / dof


@dataclass
class CorrelationSummary:
    trend_smoothness: float  # mean correlation over adjacent trend pairs
    level_smoothness: float  # mean correlation over consecutive boundary slots
    n_trend_links: int
    n_level_links: int
    n_skipped_trend: int = 0
    n_skipped_level: int = 0


@dataclass
class Solution:
    """Point estimates with covariance over one analysis domain.

    ``estimate`` and ``cov`` are in compact ordering (boundary slots first,
    then included trend cells in scan order); full-scale views carry NaN
    for non-participating components.
    """

    domain: AnalysisDomain
    trend_weight: float
    level_weight: float
    estimate: np.ndarray
    cov: np.ndarray
    sigma2: float
    r2: float | None
    data_misfit: float  # weighted data RSS at the estimate
    trend_curvature: float  # squared trend second differences
    level_curvature: float  # squared boundary-level second differences
    n_rows: tuple[int, int, int]
    dof: int
    condition: float
    condition_exact: bool
    warnings: list = field(default_factory=list)

    # --- scattered views -----------------------------------------------------

    @property
    def frame(self):
        return self.domain.frame

    def full_vector(self) -> np.ndarray:
        return self.domain.scatter(self.estimate)

    def model(self) -> ModelVector:
        return ModelVector.from_flat(self.frame, self.full_vector())

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    def trend_grid(self) -> np.ndarray:
        return self.model().trends

    def trend_se_grid(self) -> np.ndarray:
        full = self.domain.scatter(self.standard_errors())
        return full[self.frame.cohort_count :].reshape(
            self.frame.year_cells, self.frame.age_cells
        )

    def boundary_levels(self) -> np.ndarray:
        return self.full_vector()[: self.frame.cohort_count]

    def boundary_level_se(self) -> np.ndarray:
        return self.domain.scatter(self.standard_errors())[: self.frame.cohort_count]

    def level_grid(self) -> np.ndarray:
        """Forward-evaluated mean levels wherever the cohort path is covered."""
        return forward_levels(self.model(), domain=self.domain)

    def full_corr(self) -> np.ndarray:
        sd = self.standard_errors()
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = self.cov / np.outer(sd, sd)
        p = self.frame.param_count
        out = np.full((p, p), np.nan)
        idx = self.domain.compact_to_full()
        out[np.ix_(idx, idx)] = corr
        return out

    def trend_cov(self) -> np.ndarray:
        """Covariance of the included trend components (compact trend block)."""
        s = self.domain.slot_count
        return self.cov[s:, s:]

    def trend_estimates(self) -> np.ndarray:
        return self.estimate[self.domain.slot_count :]


def _condition_from_cholesky(chol_diag: np.ndarray) -> float:
    lo = float(chol_diag.min())
    hi = float(chol_diag.max())
    if lo <= 0:
        return math.inf
    return (hi / lo) ** 2


def solve(system: DesignSystem, trend_weight: float, level_weight: float) -> Solution:
    """Minimize the stacked weighted objective and attach inference outputs.

    Assembles the weighted normal matrix from the sparse stacked system and
    factors it densely (Cholesky); the estimate gets two steps of iterative
    refinement.  The full inverse of the normal matrix gives the covariance,
    which the iteration loop needs at every size.

    Raises
    ------
    SingularSystemError
        When the factorization fails or (for small systems, where the exact
        condition number is affordable) the normal matrix is numerically
        singular.  The message cites the identifiability condition.
    DegreesOfFreedomError
        When the stacked row count does not exceed the parameter count.
    """
    stacked = stack(system, trend_weight, level_weight)
    p = stacked.param_count
    n_total = stacked.n_total
    if n_total < p:
        raise SingularSystemError(
            f"{n_total} stacked rows cannot determine {p} parameters; " + IDENTIFIABILITY_HINT
        )

    matrix = stacked.matrix
    weights = stacked.row_weights
    weighted = matrix.multiply(weights[:, None]).tocsr()
    normal = (matrix.T @ weighted).toarray()
    normal = 0.5 * (normal + normal.T)
    rhs = matrix.T @ (weights * stacked.target)

    try:
        chol = cho_factor(normal, lower=True, check_finite=False)
    except LinAlgError as err:
        raise SingularSystemError(f"{err}; {IDENTIFIABILITY_HINT}") from None

    if p <= EXACT_CONDITION_MAX_SIZE:
        condition = float(np.linalg.cond(normal))
        exact = True
    else:
        condition = _condition_from_cholesky(np.diag(chol[0]))
        exact = False
    if exact and (not math.isfinite(condition) or condition > SINGULAR_CONDITION):
        raise SingularSystemError(
            f"normal-matrix condition number {condition:.3g} exceeds "
            f"{SINGULAR_CONDITION:.0e}; " + IDENTIFIABILITY_HINT
        )
    notes = []
    if condition > ILL_CONDITION:
        notes.append(
            f"ill-conditioned normal matrix (condition {'=' if exact else '~'} {condition:.3g})"
        )

    z = cho_solve(chol, rhs, check_finite=False)
    for _ in range(2):  # iterative refinement sharpens near-consistent systems
        resid = rhs - normal @ z
        z = z + cho_solve(chol, resid, check_finite=False)

    cov_unit = cho_solve(chol, np.eye(p), check_finite=False)
    cov_unit = 0.5 * (cov_unit + cov_unit.T)

    s0, s1, s2 = objective_parts(system, z)
    total = s0 + trend_weight * s1 + level_weight * s2
    if n_total == p:
        # saturated system: unique interpolant, no residual information
        sigma2 = math.nan
        notes.append("saturated system: zero residual degrees of freedom, variance undefined")
    else:
        sigma2 = estimate_sigma2(total, n_total, p)
    cov = sigma2 * cov_unit

    return Solution(
        domain=system.domain,
        trend_weight=trend_weight,
        level_weight=level_weight,
        estimate=z,
        cov=cov,
        sigma2=sigma2,
        r2=r_squared(z, system),
        data_misfit=s0,
        trend_curvature=s1,
        level_curvature=s2,
        n_rows=(system.n_data, system.n_trend, system.n_level),
        dof=n_total - p,
        condition=condition,
        condition_exact=exact,
        warnings=notes,
    )


def r_squared(z: np.ndarray, system: DesignSystem) -> float | None:
    """Goodness of fit of the data block against the grand mean of the targets.

    Undefined (None) with fewer than two data rows or zero target variance.
    """
    x0 = system.target
    if x0.size < 2:
        return None
    resid = system.data_matrix @ np.asarray(z, dtype=float) - x0
    tss = float(np.sum((x0 - x0.mean()) ** 2))
    if tss == 0.0:
        return None
    return 1.0 - float(np.dot(resid, resid)) / tss


def adjacent_correlations(
    solution: Solution, literal_level_denominator: bool = False
) -> CorrelationSummary:
    """Average Pearson correlation between adjacent estimates.

    Trend links pair horizontally and vertically adjacent included cells;
    level links pair consecutive boundary slots in the estimated segment.
    Links touching a zero-variance component are skipped and counted.

    ``literal_level_denominator`` divides the boundary-level sum by the
    slot count instead of the link count (compatibility switch; the link
    count is the default since it matches the number of summed terms).
    """
    domain = solution.domain
    cov = solution.cov
    var = np.diag(cov)

    def links(pairs):
        """Sum of the link correlations, their count, and the skipped links.

        ``cumsum`` adds left to right, as a loop would; ``np.sum`` adds
        pairwise and can change the last digit.
        """
        a, b = pairs[:, 0], pairs[:, 1]
        keep = ~((var[a] <= 0.0) | (var[b] <= 0.0))
        a, b = a[keep], b[keep]
        r = cov[a, b] / np.sqrt(var[a] * var[b])
        total = float(np.cumsum(r)[-1]) if r.size else 0.0
        return total, int(r.size), int(keep.size - r.size)

    # Each cell's link to the right, then its link downwards, cells row-major.
    right, down = domain.runs(2)
    order = np.argsort(np.concatenate([2 * right[:, 0], 2 * down[:, 0] + 1]))
    trend_sum, n_trend, skipped_trend = links(np.concatenate([right, down])[order])
    level_sum, n_level, skipped_level = links(domain.slot_runs(2))

    trend_mean = trend_sum / n_trend if n_trend else math.nan
    if literal_level_denominator:
        level_mean = level_sum / domain.slot_count if domain.slot_count else math.nan
    else:
        level_mean = level_sum / n_level if n_level else math.nan
    return CorrelationSummary(
        trend_smoothness=trend_mean,
        level_smoothness=level_mean,
        n_trend_links=n_trend,
        n_level_links=n_level,
        n_skipped_trend=skipped_trend,
        n_skipped_level=skipped_level,
    )
