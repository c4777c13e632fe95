"""Assembly of the stacked least-squares system.

Three row blocks over the compact parameter vector (boundary slots first,
then included trend cells in scan order):

* data rows: one per aggregated cell, the cell's cohort-path operator row
  (:func:`ctrend.grid.cohort_path_rows`) over compact columns: its cohort's
  initial level, one unit coefficient per prior trend cell on the cohort
  path, and the within-cell year offset on the current cell;
* trend-curvature rows: second differences (1, -2, 1) over horizontal and
  vertical trend triples fully inside the domain;
* level-curvature rows: second differences over consecutive boundary slots.

Weighting the curvature blocks by the square roots of the smoothing
weights turns the penalized objective into one ordinary least-squares
problem on the stacked matrix.  Its normal matrix is
``G0 + w1 G1 + w2 G2``, with the Gram matrices ``G0 = X0^T W X0``,
``G1 = B1^T B1`` and ``G2 = B2^T B2`` of the three blocks; only the two
smoothing weights change between iterations, so :class:`DesignSystem`
computes the Gram matrices and their bands once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .domain import AnalysisDomain
from .grid import CohortPathError, OutOfFrameError, check_paths, cohort_path_rows

__all__ = [
    "DesignSystem",
    "StackedSystem",
    "AssemblyError",
    "data_rows",
    "trend_curvature_rows",
    "level_curvature_rows",
    "stack",
    "objective_parts",
    "lower_band",
    "check_weights",
]


class AssemblyError(ValueError):
    """Raised when the data cannot be encoded over the given domain."""


def data_rows(cells, domain: AnalysisDomain):
    """Build the data block and its target vector.

    Row order follows cell scan order.  Each row is the cell's cohort-path
    operator row (:func:`~ctrend.grid.cohort_path_rows`, with the mean exam
    date's within-cell offset) mapped to compact columns.

    Returns
    -------
    (scipy.sparse.csr_matrix, numpy.ndarray)
    """
    frame = domain.frame
    ordered = sorted(cells, key=lambda s: s.cell)
    ci, cj = np.array([(s.cell.i, s.cell.j) for s in ordered], dtype=np.int64).reshape(-1, 2).T
    offsets = [s.offset(frame) for s in ordered]  # of the mean exam date
    compact = domain.full_to_compact()
    try:
        rows = cohort_path_rows(frame, ci, cj, offsets)
        check_paths(frame, rows, ci, cj, compact >= 0)
    except (OutOfFrameError, CohortPathError) as err:
        raise AssemblyError(str(err)) from None
    matrix = sparse.csr_matrix(
        (rows.data, compact[rows.indices], rows.indptr), shape=(len(ordered), domain.compact_size)
    )
    return matrix, np.array([s.x_mean for s in ordered], dtype=float)


def _second_differences(triples: np.ndarray, columns: int) -> sparse.csr_matrix:
    """One (1, -2, 1) row per triple of compact columns."""
    n = len(triples)
    return sparse.csr_matrix(
        (np.tile([1.0, -2.0, 1.0], n), triples.ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, columns),
    )


def trend_curvature_rows(domain: AnalysisDomain) -> sparse.csr_matrix:
    """Second-difference rows over trend triples.

    One row per triple of :meth:`AnalysisDomain.runs`: the triples along
    rows first, then those along columns, each in row-major order.  Empty
    matrices are legitimate for tiny domains.
    """
    return _second_differences(np.concatenate(domain.runs(3)), domain.compact_size)


def level_curvature_rows(domain: AnalysisDomain) -> sparse.csr_matrix:
    """Second-difference rows over interior boundary slots.

    A segment shorter than three slots has no interior and yields an empty
    block (with a warning, since the level smoothness then goes unmeasured).
    """
    n = domain.slot_count
    if n < 3:
        warnings.warn(
            f"boundary-level segment has only {n} slot(s); no curvature rows emitted",
            stacklevel=2,
        )
    return _second_differences(domain.slot_runs(3), domain.compact_size)


def _half_bandwidth(position: np.ndarray, rows: sparse.spmatrix, pairs: np.ndarray) -> int:
    """Half-bandwidth, with compact index ``i`` at ``position[i]``, of the
    normal matrix of ``rows``, widened to hold ``pairs``.

    Two columns meet in the normal matrix when they share a row, so the
    widest span of positions within a row bounds it.  The adjacent pairs
    are added because the correlation loop reads their covariances, which
    the selected inverse gives only within the band.
    """
    rows = rows.tocoo()
    hi = np.full(rows.shape[0], -1)
    lo = np.full(rows.shape[0], position.size)
    np.maximum.at(hi, rows.row, position[rows.col])
    np.minimum.at(lo, rows.row, position[rows.col])
    spans = np.concatenate([(hi - lo)[hi >= 0], np.abs(np.diff(position[pairs], axis=1)).ravel()])
    return int(spans.max(initial=0))


def lower_band(
    matrix: sparse.spmatrix, position: np.ndarray, bandwidth: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The lower band of the symmetric ``matrix`` in LAPACK lower band storage.

    Compact index ``i`` moves to banded position ``position[i]``; entry
    ``[r - c, c]`` of the result holds the matrix at positions ``(r, c)``,
    ``r >= c``.  Every nonzero must lie within ``bandwidth`` of the diagonal.
    The band is written into ``out``, a zeroed ``(bandwidth + 1, p)`` array,
    when one is given.
    """
    entries = sparse.coo_matrix(matrix)
    entries.sum_duplicates()
    r, c = position[entries.row], position[entries.col]
    lower = r >= c
    band = np.zeros((bandwidth + 1, matrix.shape[0])) if out is None else out
    band[r[lower] - c[lower], c[lower]] = entries.data[lower]
    return band


def _gram(rows: sparse.csr_matrix, weights: np.ndarray | None = None) -> sparse.csr_matrix:
    """``rows^T diag(weights) rows``, made exactly symmetric."""
    weighted = rows if weights is None else rows.multiply(weights[:, None]).tocsr()
    gram = (rows.T @ weighted).tocsr()
    return (0.5 * (gram + gram.T)).tocsr()


@dataclass
class DesignSystem:
    """The three assembled blocks over one analysis domain, with their
    weight-independent parts of the normal equations.

    ``grams`` holds ``(G0, G1, G2)`` in compact order and ``bands`` their
    lower bands in cohort-major order (shape ``(3, bandwidth + 1, p)``,
    each band column-major), so the normal matrix at weights ``(w1, w2)``
    is ``G0 + w1 G1 + w2 G2`` and its band ``bands[0] + w1 bands[1] +
    w2 bands[2]``.  ``data_rhs`` is ``X0^T W x0``, the right-hand side at
    any weights, since the curvature rows have zero targets.
    """

    domain: AnalysisDomain
    data_matrix: sparse.csr_matrix
    target: np.ndarray
    trend_penalty: sparse.csr_matrix
    level_penalty: sparse.csr_matrix
    data_row_weights: np.ndarray
    order: np.ndarray  # compact indices in cohort-major order (AnalysisDomain.cohort_major)
    bandwidth: int  # half-bandwidth of the normal matrix in that order
    grams: tuple  # (G0, G1, G2), sparse, compact order
    bands: np.ndarray  # their lower bands, cohort-major
    data_rhs: np.ndarray  # X0^T W x0, compact order

    @classmethod
    def build(cls, cells, domain: AnalysisDomain, weight_by_count: bool = False) -> "DesignSystem":
        """Assemble all blocks.

        ``weight_by_count`` weights each data row by its cell's record count
        instead of treating aggregated cells as unit-weight observations
        (the default, which matches the aggregated formulation).
        """
        ordered = sorted(cells, key=lambda s: s.cell)
        matrix, target = data_rows(ordered, domain)
        weights = (
            np.array([float(s.n) for s in ordered])
            if weight_by_count
            else np.ones(len(ordered))
        )
        trend_penalty = trend_curvature_rows(domain)
        level_penalty = level_curvature_rows(domain)
        order = domain.cohort_major()
        position = np.argsort(order)
        bandwidth = _half_bandwidth(
            position,
            sparse.vstack([matrix, trend_penalty, level_penalty]),
            np.concatenate([*domain.runs(2), domain.slot_runs(2)]),
        )
        grams = (_gram(matrix, weights), _gram(trend_penalty), _gram(level_penalty))
        # Each band is written in place into one array, and each is
        # column-major, the layout of the band that solve sums and LAPACK
        # factors, so the sum reads them without a transposing copy.
        bands = np.zeros((len(grams), domain.compact_size, bandwidth + 1)).transpose(0, 2, 1)
        for gram, band in zip(grams, bands):
            lower_band(gram, position, bandwidth, out=band)
        return cls(
            domain=domain,
            data_matrix=matrix,
            target=target,
            trend_penalty=trend_penalty,
            level_penalty=level_penalty,
            data_row_weights=weights,
            order=order,
            bandwidth=bandwidth,
            grams=grams,
            bands=bands,
            data_rhs=matrix.T @ (weights * target),
        )

    @property
    def n_data(self) -> int:
        return self.data_matrix.shape[0]

    @property
    def n_trend(self) -> int:
        return self.trend_penalty.shape[0]

    @property
    def n_level(self) -> int:
        return self.level_penalty.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_data + self.n_trend + self.n_level

    @property
    def param_count(self) -> int:
        return self.domain.compact_size


@dataclass
class StackedSystem:
    """Weighted stacked system: rows [data; trend curvature; level curvature]."""

    design: DesignSystem
    matrix: sparse.csr_matrix
    target: np.ndarray
    row_weights: np.ndarray
    trend_weight: float
    level_weight: float

    @property
    def n_total(self) -> int:
        return self.matrix.shape[0]

    @property
    def param_count(self) -> int:
        return self.matrix.shape[1]

    def weighted_rss(self, z: np.ndarray) -> float:
        resid = self.matrix @ z - self.target
        return float(np.dot(self.row_weights * resid, resid))


def check_weights(trend_weight: float, level_weight: float) -> None:
    """Raise ``ValueError`` unless both smoothing weights are nonnegative."""
    if trend_weight < 0 or level_weight < 0:
        raise ValueError(
            f"smoothing weights must be nonnegative, got ({trend_weight}, {level_weight})"
        )


def stack(system: DesignSystem, trend_weight: float, level_weight: float) -> StackedSystem:
    """Stack the blocks with nonnegative smoothing weights on the penalties."""
    check_weights(trend_weight, level_weight)
    matrix = sparse.vstack(
        [system.data_matrix, system.trend_penalty, system.level_penalty], format="csr"
    )
    target = np.concatenate(
        [system.target, np.zeros(system.n_trend), np.zeros(system.n_level)]
    )
    row_weights = np.concatenate(
        [
            system.data_row_weights,
            np.full(system.n_trend, trend_weight),
            np.full(system.n_level, level_weight),
        ]
    )
    return StackedSystem(system, matrix, target, row_weights, trend_weight, level_weight)


def objective_parts(system: DesignSystem, z: np.ndarray) -> tuple[float, float, float]:
    """Evaluate the three quadratic components at ``z``.

    The total objective for weights (w1, w2) is
    ``parts[0] + w1 * parts[1] + w2 * parts[2]``.
    """
    z = np.asarray(z, dtype=float)
    resid = system.data_matrix @ z - system.target
    s0 = float(np.dot(system.data_row_weights * resid, resid))
    t1 = system.trend_penalty @ z
    s1 = float(np.dot(t1, t1))
    t2 = system.level_penalty @ z
    s2 = float(np.dot(t2, t2))
    return s0, s1, s2
