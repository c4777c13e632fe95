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

The two curvature blocks are the penalties ``(B1, B2)``, and the smoothing
weights ``(w1, w2)`` go with them in that order wherever a function takes
weights.  Weighting each penalty by the square root of its weight turns the
penalized objective into one ordinary least-squares problem on the stacked
matrix.  Its normal matrix is ``G0 + w1 G1 + w2 G2``, with the Gram matrices
``G0 = X0^T W X0`` and ``Gk = Bk^T Bk`` of the blocks; only the weights
change between iterations, so :class:`DesignSystem` computes the bands of
the Gram matrices once; the compact order keeps them banded, with a compact
index as the banded position.  Every weighted sum of a data part and its
penalty parts is :func:`weighted_sum`.  The blocks are
:class:`~ctrend.grid.SparseRows`.
"""

from __future__ import annotations

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
    "weighted_sum",
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
    block.  Its domain spans at most two adjacent cohort diagonals, so it
    has no trend curvature row either, and fewer data rows than parameters:
    a fit over it is singular at its first solve.
    """
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


def weighted_sum(parts, weights):
    """``parts[0] + w1 parts[1] + w2 parts[2] + ...``: a data part plus its
    penalty parts at the smoothing weights, one weight per penalty, added
    left to right into a new column-major array (0-d for numbers)."""
    first, *penalty_parts = parts
    total = np.array(first, order="F")
    for weight, part in zip(weights, penalty_parts, strict=True):
        total += weight * part
    return total


@dataclass
class DesignSystem:
    """The assembled blocks over one analysis domain, with their
    weight-independent parts of the normal equations.

    ``penalties`` holds the curvature blocks ``(B1, B2)``, trend then
    level, and every method and function that takes smoothing weights takes
    one per penalty, in that order.  ``bands`` holds the lower bands of the
    Gram matrices ``(G0, G1, G2)`` (shape ``(3, bandwidth + 1, p)``, each
    band column-major), so the band of the normal matrix at weights
    ``(w1, w2)`` is ``weighted_sum(bands, (w1, w2))``.  ``data_rhs`` is
    ``X0^T W x0``, the right-hand side at any weights, since the curvature
    rows have zero targets.  ``band_norms`` holds the 1-norms of the Gram
    matrices, so ``||N||_1 <= weighted_sum(band_norms, weights)``.
    """

    domain: AnalysisDomain
    data_matrix: SparseRows
    target: np.ndarray
    penalties: tuple[SparseRows, ...]  # B1 (trend curvature), B2 (level curvature)
    data_row_weights: np.ndarray
    bandwidth: int  # half-bandwidth of the normal matrix
    bands: np.ndarray  # lower bands of G0, G1, G2
    data_rhs: np.ndarray  # X0^T W x0
    band_norms: tuple[float, ...]  # 1-norms of G0, G1, G2

    @classmethod
    def build(cls, cells, domain: AnalysisDomain, weight_by_count: bool = False) -> "DesignSystem":
        """Assemble all blocks.

        ``weight_by_count`` weights each data row by its cell's record count
        instead of treating aggregated cells as unit-weight observations
        (the default, which matches the aggregated formulation).
        """
        matrix, target = data_rows(cells, domain)
        weights = cells.n.astype(float) if weight_by_count else np.ones(len(cells))
        penalties = (trend_curvature_rows(domain), level_curvature_rows(domain))
        blocks = (matrix, *penalties)
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
            penalties=penalties,
            data_row_weights=weights,
            bandwidth=bandwidth,
            bands=bands,
            data_rhs=matrix.rmatvec(weights * target),
            band_norms=tuple(
                band_one_norm(lambda d, band=band: np.abs(band[d]), bandwidth + 1) for band in bands
            ),
        )

    def normal_product(self, z: np.ndarray, *weights: float) -> np.ndarray:
        """``(G0 + w1 G1 + w2 G2) z``, as ``X0^T W (X0 z) + w1 B1^T (B1 z) +
        w2 B2^T (B2 z)`` through the row blocks."""
        x0 = self.data_matrix
        data = x0.rmatvec(self.data_row_weights * (x0 @ z))
        return weighted_sum([data, *(rows.rmatvec(rows @ z) for rows in self.penalties)], weights)

    @property
    def n_data(self) -> int:
        return self.data_matrix.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_data + sum(rows.shape[0] for rows in self.penalties)

    @property
    def param_count(self) -> int:
        return self.domain.compact_size


@dataclass
class StackedSystem:
    """Weighted stacked system: rows [data; trend curvature; level curvature]."""

    matrix: sparse.csr_matrix
    target: np.ndarray
    row_weights: np.ndarray

    @property
    def n_total(self) -> int:
        return self.matrix.shape[0]

    @property
    def param_count(self) -> int:
        return self.matrix.shape[1]


def check_weights(*weights: float) -> None:
    """Raise ``ValueError`` unless every smoothing weight is nonnegative."""
    if any(weight < 0 for weight in weights):
        raise ValueError(f"smoothing weights must be nonnegative, got ({', '.join(map(str, weights))})")


def stack(system: DesignSystem, *weights: float) -> StackedSystem:
    """Stack the blocks with nonnegative smoothing weights on the penalties.

    The stacked matrix is a ``scipy.sparse`` matrix: the stacked system is
    a reference for checks, and no fit builds it.
    """
    from scipy import sparse

    check_weights(*weights)
    blocks = (system.data_matrix, *system.penalties)
    matrix = sparse.vstack([rows.csr for rows in blocks], format="csr")
    target = np.concatenate([system.target, np.zeros(system.n_total - system.n_data)])
    row_weights = np.concatenate(
        [
            system.data_row_weights,
            *(np.full(rows.shape[0], w) for w, rows in zip(weights, system.penalties, strict=True)),
        ]
    )
    return StackedSystem(matrix, target, row_weights)


def residual_parts(system: DesignSystem, z: np.ndarray, resid: np.ndarray) -> tuple[float, ...]:
    """The quadratic components of the objective at ``z``, from its data
    residual ``resid = X0 z - x0``: the weighted data misfit, then each
    penalty's curvature ``|Bk z|^2``.  The total objective at the weights
    is ``weighted_sum(parts, weights)``."""
    s0 = float(np.dot(system.data_row_weights * resid, resid))
    return (s0, *(float(np.dot(t, t)) for t in (rows @ z for rows in system.penalties)))
