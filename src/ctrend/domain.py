"""Analysis-domain construction.

Only trend cells that are reachable from the data are estimated: every
populated cell pulls in its whole cohort path back to the frame boundary,
optionally cohorts carrying a single data cell are dropped, and internal
gaps in rows and columns are filled so that the included cells form
contiguous horizontal and vertical runs.  The boundary-level segment is the
slot range spanned by the included cells.  The populated cells come in as a
:class:`~ctrend.ingest.CellTable`; the included cells are a boolean ``mask``.
The domain also fixes the one compact parameter order, cohort-major, that
the design, the banded solver and the covariance share.
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
    ``first_slot .. last_slot`` (inclusive) are estimated.  The compact
    parameter order is cohort-major: each estimated boundary slot, then its
    cohort's included trend cells in year order.  A cohort's data rows stay
    within its run, and the curvature triples reach two cohorts either way,
    so this order keeps the normal matrix banded (a bandwidth-reducing
    ordering, George & Liu 1981), and a compact index is a banded position.
    """

    frame: ObservationalFrame
    mask: np.ndarray
    first_slot: int
    last_slot: int
    _full: np.ndarray = field(init=False, repr=False, compare=False)
    _compact: np.ndarray = field(init=False, repr=False, compare=False)
    _trend_compact: np.ndarray = field(init=False, repr=False, compare=False)
    _links: tuple = field(init=False, repr=False, compare=False)
    _edge: np.ndarray = field(init=False, repr=False, compare=False)

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

        ii, jj = np.nonzero(mask)  # row-major
        slots = self.frame.cohort_slots(ii, jj)
        bad = np.flatnonzero((slots < self.first_slot) | (slots > self.last_slot))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"included cell ({ii[k]}, {jj[k]}) has slot {slots[k]} outside "
                f"segment [{self.first_slot}, {self.last_slot}]"
            )
        # Sorted by (slot, -1) for slots and (cohort slot, year) for cells.
        segment = np.arange(self.first_slot, self.last_slot + 1)
        years = np.append(np.full(segment.size, -1), ii)
        full = np.append(segment, self.frame.cohort_count + np.flatnonzero(mask))
        full = full[np.lexsort((years, np.append(segment, slots)))]
        compact = np.full(self.frame.param_count, -1)
        compact[full] = np.arange(full.size)
        for array in (full, compact):
            array.setflags(write=False)
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_compact", compact)
        object.__setattr__(self, "_trend_compact", compact[self.frame.cohort_count :])
        # The trend links go row-major by their first cell's full index, the
        # next-age link first: the correlation sums add in this order.
        right, down = self.runs(2)
        order = np.argsort(np.concatenate([2 * full[right[:, 0]], 2 * full[down[:, 0]] + 1]))
        links = (np.concatenate([right, down])[order], self.slot_runs(2))
        for pairs in links:
            pairs.setflags(write=False)
        object.__setattr__(self, "_links", links)
        padded = np.pad(mask, 1)
        inner = padded[1:-1, :-2] & padded[1:-1, 2:] & padded[:-2, 1:-1] & padded[2:, 1:-1]
        edge = mask & ~inner
        edge.setflags(write=False)
        object.__setattr__(self, "_edge", edge)

    # --- sizes ---------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def trend_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def compact_size(self) -> int:
        return self.slot_count + self.trend_count

    # --- index maps ------------------------------------------------------------

    def trend_index(self, cell: CellIndex) -> int:
        """Compact index of a trend cell, or -1 when excluded."""
        return int(self._trend_compact[cell.i * self.frame.age_cells + cell.j])

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
        """Compact indices of every ``length`` consecutive estimated boundary
        slots, in slot order; shape ``(0, length)`` for a shorter segment."""
        slots = self._compact[self.first_slot : self.last_slot + 1]
        return slots[np.arange(self.slot_count - length + 1)[:, None] + np.arange(length)]

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacent pairs whose correlations the weight loop reads, as
        ``(trend, level)`` arrays of shape ``(n, 2)``, computed once: each
        included cell's link to the next age, then to the next year, cells
        row-major; and each boundary slot's link to the next."""
        return self._links

    def edge(self) -> np.ndarray:
        """The domain boundary as a grid flag, computed once: the included
        trend cells missing one of their four neighbours, which are those
        that are not the middle of both a row triple and a column triple."""
        return self._edge

    def full_to_compact(self) -> np.ndarray:
        """Compact position of each full-vector component; -1 if it does not participate."""
        return self._compact

    def compact_to_full(self) -> np.ndarray:
        """Full-vector position of each compact component, sorted by
        (cohort slot, year) with each slot before its cells."""
        return self._full

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
        """Split a :class:`~ctrend.ingest.CellTable` into the cells inside
        the domain and those outside it, each in scan order."""
        inside = self.mask[cells.i, cells.j]
        return cells.take(inside), cells.take(~inside)

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
    cells : CellTable
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
    if not len(cells):
        raise DomainError("no populated cells")
    ci, cj = cells.i, cells.j
    off = np.flatnonzero((ci >= frame.year_cells) | (cj >= frame.age_cells))
    if off.size:
        raise ValueError(f"data cell ({ci[off[0]]}, {cj[off[0]]}) outside the trend grid")

    if mode == 2:
        slots = frame.cohort_slots(ci, cj)
        shared = np.bincount(slots)[slots] >= 2
        if not shared.any():
            raise DomainError(
                "domain mode 2 removed every cohort: no cohort carries two or more data cells"
            )
        ci, cj = ci[shared], cj[shared]

    # Each data cell pulls in its path: its operator row's trend columns, own cell included.
    trend_cols = cohort_path_rows(frame, ci, cj, np.zeros(ci.size)).indices - frame.cohort_count
    mask = np.zeros(frame.trend_size, dtype=bool)
    mask[trend_cols[trend_cols >= 0]] = True
    mask = mask.reshape(frame.year_cells, frame.age_cells)

    while _fill_runs(mask):
        pass

    ii, jj = np.nonzero(mask)
    slots = frame.cohort_slots(ii, jj)
    return AnalysisDomain(frame, mask, int(slots.min()), int(slots.max()))
