import ctypes
import importlib
import sys
from dataclasses import fields

import numpy as np
import pytest

from ctrend.domain import AnalysisDomain
from ctrend.grid import ObservationalFrame
from ctrend.ingest import CellTable


def make_cell(frame, i, j, x_mean, offset=0.0, n=1, a_off=0.0):
    """One-row CellTable at relative cell (i, j) with a chosen within-cell year offset."""
    return CellTable(
        i=[i],
        j=[j],
        x_mean=[x_mean],
        y_mean=[frame.year_base + i + offset],
        a_mean=[frame.age_base + j + a_off],
        n=[n],
    )


def trend_column(domain, i, j):
    """Compact index of trend cell ``(i, j)``, or -1 when the domain excludes it."""
    frame = domain.frame
    return int(domain.full_to_compact()[frame.cohort_count + i * frame.age_cells + j])


def lower_band(matrix, bandwidth):
    """The lower band of the dense symmetric ``matrix`` in LAPACK lower band
    storage: entry ``[r - c, c]`` holds ``matrix[r, c]``, ``r >= c``."""
    p = len(matrix)
    band = np.zeros((bandwidth + 1, p))
    for d in range(min(bandwidth + 1, p)):
        band[d, : p - d] = np.diagonal(matrix, -d)
    return band


def cell_table(tables):
    """The rows of several CellTables (such as ``make_cell``'s) as one table,
    sorted into scan order."""
    columns = [np.concatenate([[], *(getattr(t, f.name) for t in tables)]) for f in fields(CellTable)]
    order = np.lexsort((columns[1], columns[0]))
    return CellTable(*(column[order] for column in columns))


@pytest.fixture
def simple_domain():
    """Hand-built domain where trend cell (1, 0) is excluded, so the cohort
    path of level cell (2, 1) is broken at (1, 0)."""
    frame = ObservationalFrame.from_integer_bounds(0, 3, 0, 3)
    included = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
    for i, j in included:
        mask[i, j] = True
    slots = [frame.cohort_slots(i, j) for i, j in included]
    domain = AnalysisDomain(frame, mask, min(slots), max(slots))
    return domain, frame


@pytest.fixture
def no_lapack(monkeypatch):
    """A process whose numpy exports none of the LAPACK names and where
    scipy is not installed: every ``import scipy...`` fails until the test
    ends, and the LAPACK binding is made afresh before and after it."""
    solve = importlib.import_module("ctrend.solve")
    monkeypatch.setattr(solve, "_LAPACK_SYMBOLS", (("no_such_{}_", ctypes.c_int64),))
    for name in [n for n in sys.modules if n.split(".")[0] == "scipy"] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    solve._lapack.cache_clear()
    yield
    solve._lapack.cache_clear()
