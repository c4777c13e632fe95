"""Grid geometry for the year-age plane.

The analysis lives on a rectangular observational frame in calendar time
``y`` (years, vertical axis by convention) and age ``a`` (years).  The frame
is tiled by unit parallelogram cells: cell ``(i, j)`` covers
``y in [i, i+1)`` and ``a - (y - i) in (j-1, j]``, so a birth cohort moves
along the diagonal ``(i+m, j+m)``.  Within a cell the trend ``u(i, j)`` is
constant and the mean level is linear in ``y`` with slope ``u(i, j)``.

All indices in this package are *relative*: cell ``(0, 0)`` is the cell
containing the frame's lower-left corner.  Conversion back to calendar
years and ages happens only when writing outputs.

The level in a cell is its cohort's initial level plus the trends of the
earlier cells on its diagonal; an observation adds its within-cell year
offset times the cell's own trend.  :func:`cohort_path_rows` writes this
rule once, as sparse rows over the parameter vector; every level,
prediction, data row and domain path in the package comes from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservationalFrame",
    "ModelVector",
    "OutOfFrameError",
    "CohortPathError",
    "SparseRows",
    "cohort_path_rows",
    "check_paths",
    "forward_levels",
    "predict_observation",
]


class OutOfFrameError(ValueError):
    """Raised when a (year, age) point falls outside the observational frame."""


class CohortPathError(ValueError):
    """Raised when a level is requested for a cell whose cohort path is not
    fully covered by the analysis domain."""


@dataclass(frozen=True)
class ObservationalFrame:
    """Rectangular (year, age) analysis window.

    Parameters
    ----------
    y_min, y_max : float
        Calendar-time bounds in whole years, ``y_min < y_max``; the frame
        holds the years ``[y_min, y_max)``.
    a_min, a_max : float
        Age bounds in whole years, ``a_min < a_max``; the frame holds the
        ages ``[a_min, a_max]``.

    Notes
    -----
    Bounds must be whole numbers.  The cells are unit parallelograms on the
    integer lattice, so a fractional bound cuts through cells: the cell grid
    then disagrees with the in-frame mask of :meth:`locate`, and an in-frame
    point can land off the grid or the grid can have no age column at all.
    The upper year bound is open so that every trend row can hold data: a
    row ``[y_max, y_max + 1)`` could only ever receive the single instant
    ``y == y_max``.  The trend grid has ``year_cells x age_cells`` unit
    cells, one row per calendar year that meets ``[y_min, y_max)``; the
    level grid extends one extra year row and one extra age column.
    Each birth cohort is identified by the slot where its diagonal meets
    the lower-left boundary of the level grid; slots are numbered 0
    (latest year, youngest age corner of the left edge) through
    ``cohort_count - 1``.
    """

    y_min: float
    y_max: float
    a_min: float
    a_max: float

    def __post_init__(self):
        for name in ("y_min", "y_max", "a_min", "a_max"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"frame bound {name} = {value!r} is not a whole number")
        if not (self.y_min < self.y_max):
            raise ValueError(f"need y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if not (self.a_min < self.a_max):
            raise ValueError(f"need a_min < a_max, got [{self.a_min}, {self.a_max}]")

    # --- derived geometry -------------------------------------------------

    @property
    def year_base(self) -> int:
        """Absolute year index of relative cell row 0."""
        return int(self.y_min)

    @property
    def age_base(self) -> int:
        """Absolute age index of relative cell column 0."""
        return int(self.a_min)

    @property
    def year_cells(self) -> int:
        """Number of unit year rows in the trend grid: the calendar years
        that meet ``[y_min, y_max)``."""
        return int(self.y_max) - self.year_base

    @property
    def age_cells(self) -> int:
        """Number of unit age columns in the trend grid (J + 1)."""
        return int(self.a_max) - self.age_base + 1

    @property
    def cohort_count(self) -> int:
        """Number of boundary slots: one per cohort diagonal crossing the
        lower-left boundary of the level grid."""
        return self.year_cells + self.age_cells + 1

    @property
    def trend_size(self) -> int:
        return self.year_cells * self.age_cells

    @property
    def param_count(self) -> int:
        """Length of the full parameter vector (boundary levels + trends)."""
        return self.cohort_count + self.trend_size

    # --- cell addressing ----------------------------------------------------

    def locate(self, y, a):
        """The cells of the points ``(y, a)``, equal-length arrays.

        Returns ``(inside, i, j)``: the in-frame mask, and the relative cell
        indices of the points inside the frame, in input order
        (``i.size == inside.sum()``).  A cell is half-open: its left
        (earlier-year) and upper (older-age) boundaries are excluded, so a
        diagonal coordinate landing exactly on an integer belongs to the
        cell below it.  Points with ``a == a_max`` are inside and assigned
        by the same rule; points with ``y == y_max`` are outside.
        """
        y = np.asarray(y, dtype=float)
        a = np.asarray(a, dtype=float)
        inside = (self.y_min <= y) & (y < self.y_max) & (self.a_min <= a) & (a <= self.a_max)
        y, a = y[inside], a[inside]
        i_abs = np.floor(y)
        i = i_abs.astype(np.int64) - self.year_base
        j = np.ceil(a - (y - i_abs)).astype(np.int64) - self.age_base
        return inside, i, j

    def cohort_slots(self, i, j):
        """Boundary slot of the cohort whose diagonal passes through each cell
        ``(i, j)`` (integers or arrays): ``year_cells - i + j``, constant
        along a diagonal ``(i+m, j+m)`` and injective across diagonals."""
        return self.year_cells - i + j

    def birth_year(self, slot):
        """Birth year of the cohort in ``slot`` (integers or arrays); the map
        is its own inverse, so it also gives the slot of a birth year."""
        return self.year_base - self.age_base + self.year_cells - slot

    def diagonal(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Trend cells ``(i, j)`` the cohort in ``slot`` crosses, in year
        order, from the level-grid cell where it enters the frame: row
        ``year_cells - slot`` of column 0, or column ``slot - year_cells``
        of row 0."""
        if not 0 <= slot < self.cohort_count:
            raise ValueError(f"slot {slot} outside [0, {self.cohort_count})")
        i0, j0 = max(self.year_cells - slot, 0), max(slot - self.year_cells, 0)
        steps = np.arange(min(self.year_cells - i0, self.age_cells - j0))
        return i0 + steps, j0 + steps

    # --- output labelling ---------------------------------------------------

    def year_of(self, i: int) -> int:
        """Calendar year labelling trend row ``i``."""
        return self.year_base + i

    def age_of(self, j: int) -> int:
        """Age (full years) labelling trend column ``j``."""
        return self.age_base + j

    @classmethod
    def from_integer_bounds(cls, y_min: int, y_max: int, a_min: int, a_max: int) -> "ObservationalFrame":
        return cls(float(y_min), float(y_max), float(a_min), float(a_max))


@dataclass(frozen=True)
class ModelVector:
    """Model parameters: cohort initial levels plus the trend field.

    ``initial_levels[k]`` is the mean level where cohort ``k`` enters the
    frame (slot ordering runs down the left edge from the latest year to the
    frame corner, then along the bottom edge towards older ages).
    ``trends[i, j]`` is the per-year rate of change of the cohort mean while
    it crosses cell ``(i, j)``.
    """

    frame: ObservationalFrame
    initial_levels: np.ndarray
    trends: np.ndarray

    def __post_init__(self):
        v0 = np.asarray(self.initial_levels, dtype=float)
        u = np.asarray(self.trends, dtype=float)
        if v0.shape != (self.frame.cohort_count,):
            raise ValueError(
                f"initial_levels must have length {self.frame.cohort_count}, got {v0.shape}"
            )
        if u.shape != (self.frame.year_cells, self.frame.age_cells):
            raise ValueError(
                f"trends must have shape ({self.frame.year_cells}, {self.frame.age_cells}), got {u.shape}"
            )
        object.__setattr__(self, "initial_levels", v0)
        object.__setattr__(self, "trends", u)

    def flat(self) -> np.ndarray:
        """Canonical parameter ordering: boundary slots, then trends row-major."""
        return np.concatenate([self.initial_levels, self.trends.ravel()])

    @classmethod
    def from_flat(cls, frame: ObservationalFrame, vec: np.ndarray) -> "ModelVector":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (frame.param_count,):
            raise ValueError(f"expected length {frame.param_count}, got {vec.shape}")
        nb = frame.cohort_count
        return cls(frame, vec[:nb], vec[nb:].reshape(frame.year_cells, frame.age_cells))


class SparseRows:
    """Rows of a sparse matrix in compressed sparse row (CSR) form: row
    ``k``'s column ``indices`` and values ``data`` are the entries
    ``indptr[k]`` to ``indptr[k + 1]``.

    Both products are one weighted ``bincount``, which adds its terms in
    entry order.  So ``rows @ x`` sums each row left to right and
    :meth:`rmatvec` adds each column's terms in row order, as scipy's CSR
    products do, and both give scipy's bits.  ``csr`` is a
    ``scipy.sparse`` view, built on first use, for the stacked reference
    system (:func:`ctrend.design.stack`).
    """

    def __init__(self, data, indices, indptr, columns: int):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (self.indptr.size - 1, int(columns))

    @functools.cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        """``A x`` for a vector ``x``."""
        terms = self.data * np.asarray(x, dtype=float)[self.indices]
        return np.bincount(self.entry_rows, weights=terms, minlength=self.shape[0])

    def rmatvec(self, y) -> np.ndarray:
        """``A^T y`` for a vector ``y``."""
        terms = self.data * np.asarray(y, dtype=float)[self.entry_rows]
        return np.bincount(self.indices, weights=terms, minlength=self.shape[1])

    @functools.cached_property
    def csr(self):
        """The rows as a ``scipy.sparse.csr_matrix`` (imports scipy)."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def cohort_path_rows(frame: ObservationalFrame, ci, cj, offsets=None) -> SparseRows:
    """The cohort-path operator: rows mapping ``ModelVector.flat()`` to cells.

    Row ``k`` evaluates the level at level-grid cell ``(ci[k], cj[k])``: a
    one on the cohort's boundary slot plus a one on each earlier trend cell
    of its diagonal.  With ``offsets``, the row instead evaluates a point
    ``offsets[k]`` years into trend cell ``(ci[k], cj[k])``, carrying that
    offset on the cell's own trend column (stored even when zero, so the
    sparsity pattern depends only on geometry).  Columns are sorted within
    each row, so a product sums the initial level and then the trends in
    diagonal order.  A cell off its grid, or an offset outside [0, 1),
    raises :class:`OutOfFrameError`.
    """
    ci = np.asarray(ci, dtype=np.int64)
    cj = np.asarray(cj, dtype=np.int64)
    extra = 1 if offsets is None else 0  # the level grid has one more row and column
    bad = (ci < 0) | (cj < 0) | (ci >= frame.year_cells + extra) | (cj >= frame.age_cells + extra)
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=float)
        bad |= ~((offsets >= 0.0) & (offsets < 1.0))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        where = "level cell" if extra else f"offset {float(offsets[k])!r} into trend cell"
        raise OutOfFrameError(f"{where} ({ci[k]}, {cj[k]}) is off the grid")
    depth = np.minimum(ci, cj)
    lengths = depth + (1 if offsets is None else 2)
    indptr = np.zeros(ci.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    row = np.repeat(np.arange(ci.size), lengths)
    # Entry k of a row is the trend cell m = depth + 1 - k steps back along
    # the diagonal; k = 0 is overwritten by the slot, m = 0 is the own cell.
    steps = depth[row] + 1 - (np.arange(indptr[-1]) - indptr[row])
    nj = frame.age_cells
    indices = frame.cohort_count + (ci * nj + cj)[row] - steps * (nj + 1)
    indices[indptr[:-1]] = frame.cohort_slots(ci, cj)
    data = np.ones(indptr[-1])
    if offsets is not None:
        data[indptr[1:] - 1] = offsets
    return SparseRows(data, indices, indptr, frame.param_count)


def check_paths(frame: ObservationalFrame, rows: SparseRows, ci, cj, inside) -> None:
    """Raise :class:`CohortPathError` if a row of :func:`cohort_path_rows`
    uses a component that ``inside`` (a boolean mask over the full parameter
    vector) excludes, naming the first such cell and the component."""
    bad = np.flatnonzero(~np.asarray(inside)[rows.indices])
    if bad.size == 0:
        return
    k = int(np.searchsorted(rows.indptr, bad[0], side="right")) - 1
    col = int(rows.indices[bad[0]])
    i, j = divmod(col - frame.cohort_count, frame.age_cells)
    where = f"cohort slot {col}" if col < frame.cohort_count else f"trend cell ({i}, {j})"
    raise CohortPathError(
        f"cohort path of cell ({ci[k]}, {cj[k]}) leaves the analysis domain at {where}"
    )


def forward_levels(model: ModelVector, domain=None) -> np.ndarray:
    """Evaluate mean levels on the level grid with the cohort-path operator.

    Along each cohort diagonal the level satisfies
    ``v(i+1, j+1) = v(i, j) + u(i, j)`` exactly, starting from the cohort's
    initial level at the boundary.

    Parameters
    ----------
    model : ModelVector
    domain : AnalysisDomain, optional
        When given, only cells whose full cohort path lies inside the domain
        (and whose slot is in the estimated segment) receive a value; other
        entries are NaN.

    Returns
    -------
    numpy.ndarray
        Shape ``(year_cells + 1, age_cells + 1)``.
    """
    frame = model.frame
    shape = (frame.year_cells + 1, frame.age_cells + 1)
    ci, cj = (axis.ravel() for axis in np.indices(shape))
    params = model.flat()
    if domain is not None:
        params[domain.full_to_compact() < 0] = np.nan  # a broken path then sums to NaN
    return (cohort_path_rows(frame, ci, cj) @ params).reshape(shape)


def predict_observation(model: ModelVector, y, a):
    """Model prediction for observations at ``(y, a)``.

    Equals the cell's level plus the within-cell year offset times the
    cell's trend; constant in age within the cell.  Scalar ``y`` and ``a``
    give a float; equal-length arrays give an array from one product.
    The first point outside the frame raises :class:`OutOfFrameError`,
    naming the offending coordinate.
    """
    frame = model.frame
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    ages = np.atleast_1d(np.asarray(a, dtype=float))
    if ys.shape != ages.shape:
        raise ValueError(f"year and age arrays differ in length: {ys.size} != {ages.size}")
    inside, ci, cj = frame.locate(ys, ages)
    if not inside.all():
        k = int(np.flatnonzero(~inside)[0])
        y0, a0 = float(ys[k]), float(ages[k])
        if not frame.y_min <= y0 < frame.y_max:
            raise OutOfFrameError(f"year {y0!r} outside frame [{frame.y_min}, {frame.y_max})")
        raise OutOfFrameError(f"age {a0!r} outside frame [{frame.a_min}, {frame.a_max}]")
    values = cohort_path_rows(frame, ci, cj, ys - frame.year_of(ci)) @ model.flat()
    return float(values[0]) if np.ndim(y) == 0 else values
