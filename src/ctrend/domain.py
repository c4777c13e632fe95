"""Analysis-domain construction.

Only trend cells that are reachable from the data are estimated: every
populated cell pulls in its whole cohort path back to the frame boundary,
optionally cohorts carrying a single data cell are dropped, and internal
gaps in rows and columns are filled so that the included cells form
contiguous horizontal and vertical runs.  The boundary-level segment is the
slot range spanned by the included cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import CellIndex, ObservationalFrame, cohort_path_rows

__all__ = ["AnalysisDomain", "build_domain", "DomainError"]


class DomainError(ValueError):
    """Raised when no estimable domain can be built from the data."""


@dataclass(frozen=True)
class AnalysisDomain:
    """Included trend cells plus the estimated boundary-level segment.

    ``mask[i, j]`` flags trend cells entering the analysis.  Boundary slots
    ``first_slot .. last_slot`` (inclusive) are estimated.  Compact parameter
    ordering: boundary slots first, then included trend cells row-major.
    """

    frame: ObservationalFrame
    mask: np.ndarray
    first_slot: int
    last_slot: int
    _compact: np.ndarray = field(init=False, repr=False, compare=False)
    _trend_compact: np.ndarray = field(init=False, repr=False, compare=False)
    _trend_cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        expected = (self.frame.year_cells, self.frame.age_cells)
        if mask.shape != expected:
            raise ValueError(f"mask shape {mask.shape} != trend grid {expected}")
        if not mask.any():
            raise DomainError("empty analysis domain")
        if not 0 <= self.first_slot <= self.last_slot < self.frame.cohort_count:
            raise ValueError(
                f"bad slot segment [{self.first_slot}, {self.last_slot}] "
                f"for {self.frame.cohort_count} slots"
            )
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

        inside = np.zeros(self.frame.param_count, dtype=bool)
        inside[self.first_slot : self.last_slot + 1] = True
        inside[self.frame.cohort_count :] = mask.ravel()
        compact = np.where(inside, np.cumsum(inside) - 1, -1)
        compact.setflags(write=False)
        object.__setattr__(self, "_compact", compact)
        object.__setattr__(self, "_trend_compact", compact[self.frame.cohort_count :])
        order = np.flatnonzero(mask.ravel())
        nj = self.frame.age_cells
        cells = tuple(CellIndex(int(f) // nj, int(f) % nj) for f in order)
        object.__setattr__(self, "_trend_cells", cells)
        for cell in cells:
            slot = self.frame.cohort_slot(cell)
            if not self.first_slot <= slot <= self.last_slot:
                raise ValueError(
                    f"included cell ({cell.i}, {cell.j}) has slot {slot} outside "
                    f"segment [{self.first_slot}, {self.last_slot}]"
                )

    # --- sizes ---------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def trend_count(self) -> int:
        return len(self._trend_cells)

    @property
    def compact_size(self) -> int:
        return self.slot_count + self.trend_count

    # --- index maps ------------------------------------------------------------

    def trend_cells(self) -> tuple:
        """Included trend cells in row-major scan order."""
        return self._trend_cells

    def contains(self, cell: CellIndex) -> bool:
        return bool(self.mask[cell.i, cell.j])

    def trend_index(self, cell: CellIndex) -> int:
        """Compact index of a trend cell, or -1 when excluded."""
        return int(self._trend_compact[cell.i * self.frame.age_cells + cell.j])

    def trend_index_at(self, i: int, j: int) -> int:
        return int(self._trend_compact[i * self.frame.age_cells + j])

    def runs(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Compact indices of every ``length`` consecutive included trend cells.

        Returns ``(along_rows, along_columns)``, each of shape ``(n, length)``:
        runs that step to the next age within a year row, and runs that step
        to the next year within an age column.  Both are ordered row-major by
        their first cell.  This is the neighbour structure of the domain: the
        curvature penalties take its triples and the adjacent-estimate
        correlations its pairs.
        """
        # Pad with excluded cells so that runs leaving the grid drop out like gaps.
        grid = np.pad(
            self._trend_compact.reshape(self.mask.shape), (0, length - 1), constant_values=-1
        )

        def complete(axis):
            windows = sliding_window_view(grid, length, axis=axis)
            return windows[(windows >= 0).all(axis=-1)]

        return complete(1), complete(0)

    def slot_runs(self, length: int) -> np.ndarray:
        """Compact indices of every ``length`` consecutive estimated boundary slots."""
        return np.arange(self.slot_count - length + 1)[:, None] + np.arange(length)

    def cohort_major(self) -> np.ndarray:
        """Compact indices in cohort-major order: each boundary slot, then the
        trend cells of its cohort in year order.

        Sorted by ``(slot, -1)`` for slots and ``(year_cells - i + j, i)`` for
        cells.  A cohort's data rows stay within its run, and the curvature
        triples reach two cohorts either way, so this order keeps the normal
        matrix banded.
        """
        ii, jj = np.nonzero(self.mask)  # row-major, the compact trend order
        slots = np.concatenate(
            [np.arange(self.first_slot, self.last_slot + 1), self.frame.year_cells - ii + jj]
        )
        years = np.concatenate([np.full(self.slot_count, -1), ii])
        return np.lexsort((years, slots))

    def slot_index(self, slot: int) -> int:
        """Compact index of a boundary slot, or -1 when outside the segment."""
        if self.first_slot <= slot <= self.last_slot:
            return slot - self.first_slot
        return -1

    def full_to_compact(self) -> np.ndarray:
        """Compact position of each full-vector component; -1 if it does not participate."""
        return self._compact

    def compact_to_full(self) -> np.ndarray:
        """Full-vector position of each compact component."""
        return np.flatnonzero(self._compact >= 0)

    def scatter(self, compact: np.ndarray, fill=np.nan) -> np.ndarray:
        """Embed a compact vector into the full parameter vector.

        Non-participating components are marked missing (``fill``), never
        zero; the round trip full -> compact -> full is the identity on
        participating components.
        """
        compact = np.asarray(compact, dtype=float)
        if compact.shape != (self.compact_size,):
            raise ValueError(f"expected compact length {self.compact_size}, got {compact.shape}")
        full = np.full(self.frame.param_count, fill)
        full[self.compact_to_full()] = compact
        return full

    def gather(self, full: np.ndarray) -> np.ndarray:
        full = np.asarray(full, dtype=float)
        if full.shape != (self.frame.param_count,):
            raise ValueError(f"expected full length {self.frame.param_count}, got {full.shape}")
        return full[self.compact_to_full()]

    def filter_cells(self, cells):
        """Split cell statistics into (inside domain, outside domain)."""
        inside, outside = [], []
        for stat in cells:
            (inside if self.contains(stat.cell) else outside).append(stat)
        return inside, outside

    def summary(self) -> dict:
        return {
            "trend_cells": self.trend_count,
            "slot_segment": [self.first_slot, self.last_slot],
            "compact_size": self.compact_size,
            "grid": [self.frame.year_cells, self.frame.age_cells],
        }


def _fill_runs(mask: np.ndarray) -> bool:
    """One pass of row-then-column gap filling; returns True when cells were added."""
    changed = False
    for axis_mask in (mask, mask.T):
        for line in axis_mask:
            hits = np.flatnonzero(line)
            if hits.size >= 2:
                lo, hi = hits[0], hits[-1]
                if hi - lo + 1 > hits.size:
                    line[lo : hi + 1] = True
                    changed = True
    return changed


def build_domain(cells, frame: ObservationalFrame, mode: int = 1) -> AnalysisDomain:
    """Build the analysis domain from populated cells.

    Parameters
    ----------
    cells : iterable of CellStat
        Kept cells (already thresholded by the ingest step).
    frame : ObservationalFrame
    mode : {1, 2}
        1 keeps every cohort segment; 2 keeps only cohorts carrying at
        least two data cells.

    Notes
    -----
    Gap filling alternates row fills and column fills until a fixed point:
    a single pass is not always confluent, the fixed point is
    order-independent, monotone (only adds cells) and idempotent.
    """
    if mode not in (1, 2):
        raise ValueError(f"domain mode must be 1 or 2, got {mode}")
    data_cells = sorted({stat.cell for stat in cells})
    if not data_cells:
        raise DomainError("no populated cells")
    for cell in data_cells:
        if cell.i >= frame.year_cells or cell.j >= frame.age_cells:
            raise ValueError(f"data cell ({cell.i}, {cell.j}) outside the trend grid")

    if mode == 2:
        per_cohort: dict[int, int] = {}
        for cell in data_cells:
            slot = frame.cohort_slot(cell)
            per_cohort[slot] = per_cohort.get(slot, 0) + 1
        data_cells = [c for c in data_cells if per_cohort[frame.cohort_slot(c)] >= 2]
        if not data_cells:
            raise DomainError(
                "domain mode 2 removed every cohort: no cohort carries two or more data cells"
            )

    # Each data cell pulls in its path: its operator row's trend columns, own cell included.
    ci, cj = np.array([(c.i, c.j) for c in data_cells]).T
    trend_cols = cohort_path_rows(frame, ci, cj, np.zeros(ci.size)).indices - frame.cohort_count
    mask = np.zeros(frame.trend_size, dtype=bool)
    mask[trend_cols[trend_cols >= 0]] = True
    mask = mask.reshape(frame.year_cells, frame.age_cells)

    while _fill_runs(mask):
        pass

    ii, jj = np.nonzero(mask)
    slots = frame.year_cells - ii + jj
    return AnalysisDomain(frame, mask, int(slots.min()), int(slots.max()))
