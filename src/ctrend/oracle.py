"""Independent dense reference fit.

This module re-derives the whole estimation problem with textbook dense
linear algebra and its own cell/cohort arithmetic.  It shares no code with
the sparse assembly or the production solver, so agreement between the two
is evidence for both.  Its parameter order is the full vector's
(:meth:`ctrend.grid.ModelVector.flat`) restricted to the domain: estimated
boundary slots first (ascending), then included trend cells in row-major
scan order.  The production fit orders its compact vector cohort-major, so
callers map between the two through
:meth:`ctrend.domain.AnalysisDomain.compact_to_full`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OracleFit", "OracleSingular", "brute_force_fit"]

MAX_PARAMS = 200


class OracleSingular(RuntimeError):
    pass


@dataclass
class OracleFit:
    estimate: np.ndarray
    cov: np.ndarray
    sigma2: float
    r2: float
    param_count: int
    slot_range: tuple[int, int]


def _cell_of(y: float, a: float) -> tuple[int, int]:
    i = math.floor(y)
    return i, math.ceil(a - (y - i))


def brute_force_fit(
    records,
    trend_weight: float,
    level_weight: float,
    frame=None,
    domain=None,
    cell_min_count: int = 0,
) -> OracleFit:
    """Dense normal-equations fit, assembled from scratch.

    Parameters
    ----------
    records : iterable
        Objects with ``exam_date``, ``age`` and a value (``bmi``).
    trend_weight, level_weight : float
        Smoothing weights on the two curvature blocks.
    frame : optional
        Anything exposing ``y_min/y_max/a_min/a_max``, with years
        ``[y_min, y_max)`` and ages ``[a_min, a_max]``.  When omitted, the
        rows run from the earliest to the latest exam year and the columns
        from the floor of the youngest age to the ceiling of the oldest.
    domain : optional
        Anything exposing ``mask`` (bool grid over trend cells),
        ``first_slot`` and ``last_slot``; defaults to the full grid.
    """
    records = list(records)
    if not records:
        raise ValueError("no records")
    # Row i holds the years [i, i+1), so the rows meeting a year span
    # [lo, hi) are floor(lo) .. ceil(hi) - 1.
    if frame is None:
        ys = [r.exam_date for r in records]
        as_ = [r.age for r in records]
        i_base, i_end = math.floor(min(ys)), math.floor(max(ys)) + 1
        j_base, j_top = math.floor(min(as_)), math.ceil(max(as_))
    else:
        i_base, i_end = math.floor(frame.y_min), math.ceil(frame.y_max)
        j_base = math.ceil(frame.a_min - (frame.y_min - i_base))
        j_top = math.ceil(frame.a_max - (frame.y_max - math.floor(frame.y_max)))
    n_year = i_end - i_base
    n_age = j_top - j_base + 1

    # own aggregation: arithmetic means per unit cell
    groups: dict[tuple[int, int], list] = {}
    for r in records:
        i_abs, j_abs = _cell_of(r.exam_date, r.age)
        i, j = i_abs - i_base, j_abs - j_base
        if not (0 <= i < n_year and 0 <= j < n_age):
            continue
        groups.setdefault((i, j), []).append(r)
    stats = []
    for (i, j), members in sorted(groups.items()):
        if len(members) <= cell_min_count:
            continue
        n = len(members)
        stats.append(
            (
                i,
                j,
                sum(m.bmi for m in members) / n,
                sum(m.exam_date for m in members) / n,
                n,
            )
        )
    if not stats:
        raise ValueError("no populated cells")

    if domain is None:
        mask = np.ones((n_year, n_age), dtype=bool)
        first_slot, last_slot = 0, n_year + n_age
    else:
        mask = np.asarray(domain.mask, dtype=bool)
        first_slot, last_slot = domain.first_slot, domain.last_slot

    n_slots = last_slot - first_slot + 1
    trend_col = {}
    col = n_slots
    for i in range(n_year):
        for j in range(n_age):
            if mask[i, j]:
                trend_col[(i, j)] = col
                col += 1
    p = col
    if p > MAX_PARAMS:
        raise ValueError(f"oracle limited to {MAX_PARAMS} parameters, got {p}")

    data = []
    target = []
    for i, j, x_mean, y_mean, _n in stats:
        row = np.zeros(p)
        slot = n_year - i + j
        if not (first_slot <= slot <= last_slot) or (i, j) not in trend_col:
            raise ValueError(f"data cell ({i}, {j}) outside the provided domain")
        row[slot - first_slot] = 1.0
        for m in range(1, min(i, j) + 1):
            key = (i - m, j - m)
            if key not in trend_col:
                raise ValueError(f"cohort path broken at {key} for data cell ({i}, {j})")
            row[trend_col[key]] = 1.0
        row[trend_col[(i, j)]] += y_mean - (i_base + i)
        data.append(row)
        target.append(x_mean)
    b0 = np.array(data)
    x0 = np.array(target)

    trend_rows = []
    for i in range(n_year):
        for j in range(1, n_age - 1):
            if mask[i, j - 1] and mask[i, j] and mask[i, j + 1]:
                row = np.zeros(p)
                row[trend_col[(i, j - 1)]] = 1.0
                row[trend_col[(i, j)]] = -2.0
                row[trend_col[(i, j + 1)]] = 1.0
                trend_rows.append(row)
    for i in range(1, n_year - 1):
        for j in range(n_age):
            if mask[i - 1, j] and mask[i, j] and mask[i + 1, j]:
                row = np.zeros(p)
                row[trend_col[(i - 1, j)]] = 1.0
                row[trend_col[(i, j)]] = -2.0
                row[trend_col[(i + 1, j)]] = 1.0
                trend_rows.append(row)
    b1 = np.array(trend_rows) if trend_rows else np.zeros((0, p))

    level_rows = []
    for k in range(1, n_slots - 1):
        row = np.zeros(p)
        row[k - 1], row[k], row[k + 1] = 1.0, -2.0, 1.0
        level_rows.append(row)
    b2 = np.array(level_rows) if level_rows else np.zeros((0, p))

    b = np.vstack([b0, b1, b2])
    x = np.concatenate([x0, np.zeros(b1.shape[0]), np.zeros(b2.shape[0])])
    w = np.concatenate(
        [
            np.ones(b0.shape[0]),
            np.full(b1.shape[0], trend_weight),
            np.full(b2.shape[0], level_weight),
        ]
    )

    normal = b.T @ (w[:, None] * b)
    rhs = b.T @ (w * x)
    if np.linalg.matrix_rank(normal, tol=None) < p:
        raise OracleSingular(f"normal matrix rank below {p}")
    try:
        z = np.linalg.solve(normal, rhs)
        inv = np.linalg.inv(normal)
    except np.linalg.LinAlgError as err:
        raise OracleSingular(str(err)) from None

    resid = b @ z - x
    total = float(np.dot(w * resid, resid))
    dof = b.shape[0] - p
    if dof < 0:
        raise ValueError(f"nonpositive degrees of freedom: {b.shape[0]} rows, {p} parameters")
    sigma2 = total / dof if dof > 0 else math.nan  # saturated system, no variance info
    fit_resid = b0 @ z - x0
    tss = float(np.sum((x0 - x0.mean()) ** 2))
    r2 = 1.0 - float(np.dot(fit_resid, fit_resid)) / tss if tss > 0 else math.nan
    return OracleFit(
        estimate=z,
        cov=sigma2 * inv,
        sigma2=sigma2,
        r2=r2,
        param_count=p,
        slot_range=(first_slot, last_slot),
    )
