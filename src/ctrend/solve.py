"""Weighted least-squares solver and estimate diagnostics.

The point estimate minimizes the stacked weighted objective; the parameter
covariance is the residual variance times the inverse of the weighted
normal matrix.  Everything downstream (adjacent-estimate correlations,
goodness of fit, cluster inference) is derived from the compact estimate
and covariance held by :class:`Solution`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtrtri

from .design import DesignSystem, check_weights, lower_band, objective_parts
from .domain import AnalysisDomain
from .grid import ModelVector, forward_levels

__all__ = [
    "Solution",
    "BandedCovariance",
    "CorrelationSummary",
    "SingularSystemError",
    "solve",
    "estimate_sigma2",
    "r_squared",
    "adjacent_correlations",
]

# Hard singularity threshold and the soft ill-conditioning threshold that
# only attaches a warning, both on the estimated 1-norm condition number.
SINGULAR_CONDITION = 1e14
ILL_CONDITION = 1e12

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
    cov: BandedCovariance | np.ndarray  # consumers use only the interface both share
    sigma2: float
    r2: float | None
    data_misfit: float  # weighted data RSS at the estimate
    trend_curvature: float  # squared trend second differences
    level_curvature: float  # squared boundary-level second differences
    n_rows: tuple[int, int, int]
    dof: int
    condition: float  # estimated 1-norm condition number of the normal matrix
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
        return np.sqrt(np.clip(self.cov.diagonal(), 0.0, None))

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
            corr = np.asarray(self.cov) / np.outer(sd, sd)
        p = self.frame.param_count
        out = np.full((p, p), np.nan)
        idx = self.domain.compact_to_full()
        out[np.ix_(idx, idx)] = corr
        return out

    def trend_cov(self) -> np.ndarray:
        """Covariance of the included trend components (compact trend block)."""
        s = self.domain.slot_count
        return np.asarray(self.cov)[s:, s:]


class BandedCovariance:
    """The inverse of a sparse symmetric positive definite matrix, times
    ``scale`` (1, or the factor given to :meth:`scaled`).

    The matrix is held as its Cholesky factor in LAPACK lower band storage,
    ordered by ``order`` (``order[k]`` is the compact index at banded
    position ``k``; :meth:`AnalysisDomain.cohort_major`), in which its
    half-bandwidth is ``bandwidth``.  Factor and solves cost O(p b^2) and
    O(p b) instead of O(p^3), and the selected inverse supplies every entry
    of the inverse within the band.  The object offers the part of the
    ndarray interface that consumers use, in compact order:

    * ``cov.diagonal()``, from the selected inverse;
    * ``cov[a, b]`` for indices or index arrays inside the band
      (``IndexError`` for a pair outside it);
    * ``cov @ x``, a banded solve;
    * ``np.asarray(cov)``, the dense matrix, built only when asked for.

    Raises ``LinAlgError`` when the matrix is not positive definite.
    """

    def __init__(self, normal, order: np.ndarray, bandwidth: int):
        self._factor(lower_band(normal, np.argsort(order), bandwidth), order)

    @classmethod
    def from_band(cls, band: np.ndarray, order: np.ndarray) -> "BandedCovariance":
        """The inverse of the matrix whose lower band, in ``order``, is ``band``
        (LAPACK lower band storage, as :func:`ctrend.design.lower_band` gives)."""
        out = cls.__new__(cls)
        out._factor(band, order)
        return out

    def _factor(self, band: np.ndarray, order: np.ndarray) -> None:
        p = band.shape[1]
        position = np.empty(p, dtype=np.int64)
        position[order] = np.arange(p)
        self.chol = cholesky_banded(band, lower=True, check_finite=False)
        self.order = order
        self.position = position
        self.bandwidth = band.shape[0] - 1
        self.scale = 1.0
        self.shape = (p, p)
        self._blocks = _selected_inverse(self.chol)
        m = self._blocks.shape[1]
        self._diagonal = np.diagonal(self._blocks[:, :, :m], axis1=1, axis2=2).ravel()[position]

    def scaled(self, factor: float) -> "BandedCovariance":
        """The same factor with the scale multiplied by ``factor``."""
        out = copy.copy(self)
        out.scale = self.scale * factor
        return out

    def diagonal(self) -> np.ndarray:
        return self.scale * self._diagonal

    def __getitem__(self, key):
        a, b = key
        pa, pb = self.position[a], self.position[b]
        lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
        if np.any(hi - lo > self.bandwidth):
            raise IndexError(
                f"covariance entry outside the band (half-bandwidth {self.bandwidth})"
            )
        m = self._blocks.shape[1]
        k = lo // m
        return self.scale * self._blocks[k, lo - k * m, hi - k * m]

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        y = cho_solve_banded((self.chol, True), x[self.order], check_finite=False)
        out = np.empty_like(y)
        out[self.order] = y
        return self.scale * out

    def __array__(self, dtype=None, copy=None):
        dense = self @ np.eye(self.shape[0])
        return np.asarray(0.5 * (dense + dense.T), dtype=dtype)


def _selected_inverse(chol: np.ndarray) -> np.ndarray:
    """Entries of ``N^-1`` near the diagonal, from ``N = L L^T`` with ``L``
    in lower band storage (Takahashi, Fagan & Chin 1973).

    In blocks of ``m = max(b, 1)`` rows, a band-``b`` ``L`` is block lower
    bidiagonal, with diagonal blocks ``D_k`` and sub-diagonal blocks
    ``C_k``.  ``L^T S = L^-1``, read block row by block row from the last,
    gives with ``Y_k = D_k^-T C_k^T``::

        S[k, k+1] = -Y_k S[k+1, k+1]
        S[k, k]   = D_k^-T D_k^-1 - S[k, k+1] Y_k^T

    These blocks hold every entry within ``b`` of the diagonal.  Returns an
    array of shape ``(blocks, m, 2m)`` over the banded positions padded to
    a whole number of blocks: row ``x`` of block ``k`` is position
    ``k m + x``, and its column ``y`` is position ``k m + y``.
    """
    width, p = chol.shape
    m = max(width - 1, 1)
    n = -(-p // m)
    padded = np.zeros((n * m, m + 1))  # row c holds L[c, c], L[c+1, c], ..., L[c+m, c]
    padded[:p, :width] = chol.T
    padded[p:, 0] = 1.0  # unit diagonal on the padding keeps it apart
    # So L[r, c] sits at flat offset c m + r, and each block pair is one slice.
    rows = padded.reshape(n, m * (m + 1))
    diag_t = np.triu(rows[:, : m * m].reshape(n, m, m))  # D_k^T
    sub_t = np.tril(rows[:, m:].reshape(n, m, m))  # C_k^T

    # Only numpy's BLAS runs in the recursion: alternating with scipy's
    # (a second OpenBLAS thread pool) made it ten times slower at b = 120
    # on 2 cores.  So every LAPACK call comes first.
    d_inv_t = np.empty_like(diag_t)  # D_k^-T
    for k in range(n):
        d_inv_t[k], info = dtrtri(diag_t[k], lower=0)
        if info:
            raise LinAlgError(f"singular triangular block {k} of the Cholesky factor")
    own = d_inv_t @ d_inv_t.transpose(0, 2, 1)
    coupling = d_inv_t @ sub_t  # Y_k
    out = np.zeros((n, m, 2 * m))
    out[-1, :, :m] = own[-1]
    for k in range(n - 2, -1, -1):
        upper = -coupling[k] @ out[k + 1, :, :m]
        out[k, :, m:] = upper
        out[k, :, :m] = own[k] - upper @ coupling[k].T
    return out


def _one_norm(band: np.ndarray) -> float:
    """1-norm (largest column sum of moduli) of the symmetric matrix whose
    lower band is ``band``."""
    a = np.abs(band)
    sums = a.sum(axis=0)  # each column from the diagonal down
    for d in range(1, a.shape[0]):
        sums[d:] += a[d, :-d]  # and the same column above the diagonal
    return float(sums.max())


def _inverse_one_norm(inverse: BandedCovariance) -> float:
    """Estimate of ``||N^-1||_1`` from products ``inverse @ x``.

    Hager's estimator (Hager 1984) in Higham's form, the LAPACK ``xLACON``
    scheme (Higham 1988): at most five pairs of banded solves plus one
    with an alternating test vector.  ``N`` is symmetric, so the
    transposed solves are plain ones.  The result is a lower bound, and
    often the exact value.
    """
    p = inverse.shape[0]
    y = inverse @ np.full(p, 1.0 / p)
    if p == 1:
        return abs(float(y[0]))
    estimate = float(np.abs(y).sum())
    signs = np.where(y >= 0, 1.0, -1.0)
    z = inverse @ signs
    j = int(np.argmax(np.abs(z)))
    for _ in range(4):
        y = inverse @ np.eye(1, p, j).ravel()
        previous, estimate = estimate, float(np.abs(y).sum())
        new_signs = np.where(y >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or estimate <= previous:
            estimate = max(estimate, previous)
            break
        signs = new_signs
        z = inverse @ signs
        last, j = j, int(np.argmax(np.abs(z)))
        if z[last] == abs(z[j]):
            break
    alternating = (-1.0) ** np.arange(p) * (1.0 + np.arange(p) / (p - 1))
    return max(estimate, 2.0 * float(np.abs(inverse @ alternating).sum()) / (3.0 * p))


def solve(system: DesignSystem, trend_weight: float, level_weight: float) -> Solution:
    """Minimize the stacked weighted objective and attach inference outputs.

    The normal matrix is ``G0 + w1 G1 + w2 G2`` (:class:`DesignSystem`):
    its band, ordered cohort-major, is the weighted sum of the three bands
    the design computed once, and is factored (Cholesky).  The estimate
    gets two steps of iterative refinement against the sparse Gram
    matrices.  The covariance is a :class:`BandedCovariance`: the selected
    inverse gives the variances and the adjacent covariances the iteration
    loop reads, and banded solves give the rest on request.  ``condition``
    is the 1-norm condition number, ``||N||_1`` read from the band times
    Hager's estimate of ``||N^-1||_1``.

    Raises
    ------
    ValueError
        When a smoothing weight is negative.
    SingularSystemError
        When the factorization fails or the estimated condition number
        exceeds ``SINGULAR_CONDITION``.  The message cites the
        identifiability condition.
    DegreesOfFreedomError
        When the stacked row count does not exceed the parameter count.
    """
    check_weights(trend_weight, level_weight)
    p = system.param_count
    n_total = system.n_total
    if n_total < p:
        raise SingularSystemError(
            f"{n_total} stacked rows cannot determine {p} parameters; " + IDENTIFIABILITY_HINT
        )

    b0, b1, b2 = system.bands
    band = b0 + trend_weight * b1 + level_weight * b2
    try:
        inverse = BandedCovariance.from_band(band, system.order)
    except LinAlgError as err:
        raise SingularSystemError(f"{err}; {IDENTIFIABILITY_HINT}") from None

    condition = _one_norm(band) * _inverse_one_norm(inverse)
    if not math.isfinite(condition) or condition > SINGULAR_CONDITION:
        raise SingularSystemError(
            f"normal-matrix condition number {condition:.3g} exceeds "
            f"{SINGULAR_CONDITION:.0e}; " + IDENTIFIABILITY_HINT
        )
    notes = []
    if condition > ILL_CONDITION:
        notes.append(f"ill-conditioned normal matrix (1-norm condition ~ {condition:.3g})")

    g0, g1, g2 = system.grams
    rhs = system.data_rhs
    z = inverse @ rhs
    for _ in range(2):  # iterative refinement sharpens near-consistent systems
        z = z + inverse @ (rhs - (g0 @ z + trend_weight * (g1 @ z) + level_weight * (g2 @ z)))

    s0, s1, s2 = objective_parts(system, z)
    total = s0 + trend_weight * s1 + level_weight * s2
    if n_total == p:
        # saturated system: unique interpolant, no residual information
        sigma2 = math.nan
        notes.append("saturated system: zero residual degrees of freedom, variance undefined")
    else:
        sigma2 = estimate_sigma2(total, n_total, p)

    return Solution(
        domain=system.domain,
        trend_weight=trend_weight,
        level_weight=level_weight,
        estimate=z,
        cov=inverse.scaled(sigma2),
        sigma2=sigma2,
        r2=r_squared(z, system),
        data_misfit=s0,
        trend_curvature=s1,
        level_curvature=s2,
        n_rows=(system.n_data, system.n_trend, system.n_level),
        dof=n_total - p,
        condition=condition,
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
    var = cov.diagonal()

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
