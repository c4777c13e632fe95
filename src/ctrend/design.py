"""Assembly of the stacked least-squares system.

Three row blocks over the compact parameter vector (cohort-major: each
boundary slot, then its cohort's included trend cells in year order;
:class:`~ctrend.domain.AnalysisDomain`):

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
computes the bands of the Gram matrices once; the compact order keeps
them banded, with a compact index as the banded position.  The blocks are
:class:`~ctrend.grid.SparseRows`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .domain import AnalysisDomain
from .grid import CohortPathError, OutOfFrameError, SparseRows, check_paths, cohort_path_rows

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "DesignSystem",
    "StackedSystem",
    "AssemblyError",
    "data_rows",
    "trend_curvature_rows",
    "level_curvature_rows",
    "stack",
    "band_one_norm",
    "check_weights",
]


class AssemblyError(ValueError):
    """Raised when the data cannot be encoded over the given domain."""


def data_rows(cells, domain: AnalysisDomain):
    """Build the data block and its target vector.

    Row ``k`` is cell ``k`` of the :class:`~ctrend.ingest.CellTable`: the
    cell's cohort-path operator row (:func:`~ctrend.grid.cohort_path_rows`,
    with the mean exam date's within-cell offset) over compact columns.

    Returns
    -------
    (SparseRows, numpy.ndarray)
    """
    frame = domain.frame
    ci, cj = cells.i, cells.j
    offsets = cells.y_mean - frame.year_of(ci)  # of the mean exam date
    compact = domain.full_to_compact()
    try:
        rows = cohort_path_rows(frame, ci, cj, offsets)
        check_paths(frame, rows, ci, cj, compact >= 0)
    except (OutOfFrameError, CohortPathError) as err:
        raise AssemblyError(str(err)) from None
    matrix = SparseRows(rows.data, compact[rows.indices], rows.indptr, domain.compact_size)
    return matrix, cells.x_mean.copy()


def _second_differences(triples: np.ndarray, columns: int) -> SparseRows:
    """One (1, -2, 1) row per triple of compact columns."""
    n = len(triples)
    return SparseRows(
        np.tile([1.0, -2.0, 1.0], n), triples.ravel(), np.arange(0, 3 * n + 1, 3), columns
    )


def trend_curvature_rows(domain: AnalysisDomain) -> SparseRows:
    """Second-difference rows over trend triples.

    One row per triple of :meth:`AnalysisDomain.runs`: the triples along
    rows first, then those along columns, each in row-major order.  Empty
    matrices are legitimate for tiny domains.
    """
    return _second_differences(np.concatenate(domain.runs(3)), domain.compact_size)


def level_curvature_rows(domain: AnalysisDomain) -> SparseRows:
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


def _half_bandwidth(blocks, pairs: np.ndarray) -> int:
    """Half-bandwidth of the normal matrix of the row ``blocks``, widened
    to hold ``pairs``.

    Two columns meet in the normal matrix when they share a row, so the
    widest span of columns within a row bounds it.  The adjacent pairs
    are added because the correlation loop reads their covariances, which
    the selected inverse gives only within the band.
    """
    spans = [np.abs(np.diff(pairs, axis=1)).ravel()]
    for rows in blocks:
        hi = np.full(rows.shape[0], -1)
        lo = np.full(rows.shape[0], rows.shape[1])
        np.maximum.at(hi, rows.entry_rows, rows.indices)
        np.minimum.at(lo, rows.entry_rows, rows.indices)
        spans.append((hi - lo)[hi >= 0])
    return int(np.concatenate(spans).max(initial=0))


def band_one_norm(row_moduli, width: int) -> float:
    """1-norm (largest column sum of moduli) of a symmetric band matrix
    from ``row_moduli(d)``, a new array of the moduli of row ``d`` of its
    lower band (LAPACK lower band storage, ``width`` rows), read one band
    row at a time, so no band-sized array is made."""
    sums = row_moduli(0)
    for d in range(1, width):
        sums += row_moduli(d)  # each column from the diagonal down
    for d in range(1, width):
        sums[d:] += row_moduli(d)[:-d]  # and the same column above the diagonal
    return float(sums.max())


# Row-pair products scattered at once by _add_gram_band: about 0.4 MB of
# index and value arrays.
GRAM_CHUNK = 4096


def _add_gram_band(band: np.ndarray, rows: SparseRows, weights=None) -> None:
    """Add the lower band of ``rows^T diag(weights) rows`` to ``band``.

    ``band`` is column-major in LAPACK lower band storage: entry
    ``[r - c, c]`` holds the matrix at ``(r, c)``, ``r >= c``.  Each row
    adds the products of its entry pairs, one per pair on or below the
    diagonal.  The rows go in order, a chunk of about ``GRAM_CHUNK``
    products at a time, and ``np.add.at`` adds in index order, so each band
    entry sums its terms in row order, as a sparse product ``rows^T @ rows``
    does.
    """
    lengths = np.diff(rows.indptr)
    pairs = lengths * (lengths + 1) // 2  # per row, pairs (a, b) of its entries with b <= a
    ends = np.cumsum(pairs)
    flat = band.T.reshape(-1)  # a view: entry [d, c] of the band is flat[c * width + d]
    width = band.shape[0]
    first = 0
    while first < len(pairs):
        # the rows whose products end within GRAM_CHUNK of the chunk's start, at least one
        last = int(np.searchsorted(ends, ends[first] - pairs[first] + GRAM_CHUNK, "right"))
        last = max(last, first + 1)
        counts = pairs[first:last]
        row = np.repeat(np.arange(first, last), counts)
        t = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        a = ((np.sqrt(8.0 * t + 1.0) - 1.0) // 2).astype(np.int64)  # t = a (a + 1) / 2 + b
        b = t - a * (a + 1) // 2
        ea, eb = rows.indptr[row] + a, rows.indptr[row] + b
        pa, pb = rows.indices[ea], rows.indices[eb]
        lo = np.minimum(pa, pb)
        right = rows.data[eb] if weights is None else rows.data[eb] * weights[row]
        values = rows.data[ea] * right
        np.add.at(flat, lo * width + np.abs(pa - pb), values)
        first = last


@dataclass
class DesignSystem:
    """The three assembled blocks over one analysis domain, with their
    weight-independent parts of the normal equations.

    ``bands`` holds the lower bands of the Gram matrices ``(G0, G1, G2)``
    (shape ``(3, bandwidth + 1, p)``, each band column-major), so the band
    of the normal matrix at weights ``(w1, w2)`` is
    ``bands[0] + w1 bands[1] + w2 bands[2]``.
    ``data_rhs`` is ``X0^T W x0``, the right-hand side at any weights,
    since the curvature rows have zero targets.  ``band_norms`` holds the
    1-norms of ``G0``, ``G1`` and ``G2``, so ``||N||_1 <= band_norms[0] +
    w1 band_norms[1] + w2 band_norms[2]`` at any weights.
    """

    domain: AnalysisDomain
    data_matrix: SparseRows
    target: np.ndarray
    trend_penalty: SparseRows
    level_penalty: SparseRows
    data_row_weights: np.ndarray
    bandwidth: int  # half-bandwidth of the normal matrix
    bands: np.ndarray  # lower bands of G0, G1, G2
    data_rhs: np.ndarray  # X0^T W x0
    band_norms: tuple[float, float, float]  # 1-norms of G0, G1, G2

    @classmethod
    def build(cls, cells, domain: AnalysisDomain, weight_by_count: bool = False) -> "DesignSystem":
        """Assemble all blocks.

        ``weight_by_count`` weights each data row by its cell's record count
        instead of treating aggregated cells as unit-weight observations
        (the default, which matches the aggregated formulation).
        """
        matrix, target = data_rows(cells, domain)
        weights = cells.n.astype(float) if weight_by_count else np.ones(len(cells))
        trend_penalty = trend_curvature_rows(domain)
        level_penalty = level_curvature_rows(domain)
        blocks = (matrix, trend_penalty, level_penalty)
        bandwidth = _half_bandwidth(blocks, np.concatenate([*domain.runs(2), domain.slot_runs(2)]))
        # Each band is written in place into one array, and each is
        # column-major, the layout of the band that solve sums and LAPACK
        # factors, so the sum reads them without a transposing copy.
        bands = np.zeros((len(blocks), domain.compact_size, bandwidth + 1)).transpose(0, 2, 1)
        for rows, band, row_weights in zip(blocks, bands, (weights, None, None)):
            _add_gram_band(band, rows, row_weights)
        return cls(
            domain=domain,
            data_matrix=matrix,
            target=target,
            trend_penalty=trend_penalty,
            level_penalty=level_penalty,
            data_row_weights=weights,
            bandwidth=bandwidth,
            bands=bands,
            data_rhs=matrix.rmatvec(weights * target),
            band_norms=tuple(
                band_one_norm(lambda d, band=band: np.abs(band[d]), bandwidth + 1) for band in bands
            ),
        )

    def normal_product(self, z: np.ndarray, trend_weight: float, level_weight: float) -> np.ndarray:
        """``(G0 + w1 G1 + w2 G2) z``, as ``X0^T W (X0 z) + w1 B1^T (B1 z) +
        w2 B2^T (B2 z)`` through the row blocks."""
        x0, b1, b2 = self.data_matrix, self.trend_penalty, self.level_penalty
        return (
            x0.rmatvec(self.data_row_weights * (x0 @ z))
            + trend_weight * b1.rmatvec(b1 @ z)
            + level_weight * b2.rmatvec(b2 @ z)
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


def check_weights(trend_weight: float, level_weight: float) -> None:
    """Raise ``ValueError`` unless both smoothing weights are nonnegative."""
    if trend_weight < 0 or level_weight < 0:
        raise ValueError(
            f"smoothing weights must be nonnegative, got ({trend_weight}, {level_weight})"
        )


def stack(system: DesignSystem, trend_weight: float, level_weight: float) -> StackedSystem:
    """Stack the blocks with nonnegative smoothing weights on the penalties.

    The stacked matrix is a ``scipy.sparse`` matrix: the stacked system is
    a reference for checks, and no fit builds it.
    """
    from scipy import sparse

    check_weights(trend_weight, level_weight)
    matrix = sparse.vstack(
        [system.data_matrix.csr, system.trend_penalty.csr, system.level_penalty.csr], format="csr"
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


def residual_parts(system: DesignSystem, z: np.ndarray, resid: np.ndarray) -> tuple[float, float, float]:
    """The three quadratic components of the objective at ``z``, from its
    data residual ``resid = X0 z - x0``: the weighted data misfit and the
    two curvatures.  The total objective for weights (w1, w2) is
    ``parts[0] + w1 * parts[1] + w2 * parts[2]``."""
    s0 = float(np.dot(system.data_row_weights * resid, resid))
    t1 = system.trend_penalty @ z
    s1 = float(np.dot(t1, t1))
    t2 = system.level_penalty @ z
    s2 = float(np.dot(t2, t2))
    return s0, s1, s2
