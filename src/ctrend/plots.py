"""Self-contained SVG emitters.

Every plot is a pure function of tabular data (the same columns that go into
the CSV outputs), so figures can be regenerated from the CSVs at any time.
No plotting dependencies; deterministic output.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["svg_heatmap", "svg_series_panels", "PALETTE"]

PALETTE = ["#3b6fb6", "#d1495b", "#2e8b57", "#e2a72e", "#7d5ba6", "#4cc1bd", "#8a6d3b"]

_VIRIDIS_KNOTS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_VIRIDIS_RGB = np.array(
    [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)], dtype=float
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _viridis(t) -> list:
    """``#rrggbb`` viridis colours of the values ``t``, clipped to [0, 1] (NaN
    counts as 1).  Each value interpolates in the first segment whose upper
    knot it does not exceed, and each channel is rounded half to even."""
    t = np.clip(np.nan_to_num(np.asarray(t, dtype=float), nan=1.0), 0.0, 1.0)
    k = np.searchsorted(_VIRIDIS_KNOTS[1:], t)
    f = (t - _VIRIDIS_KNOTS[k]) / (_VIRIDIS_KNOTS[k + 1] - _VIRIDIS_KNOTS[k])
    c0 = _VIRIDIS_RGB[k]
    rgb = np.rint(c0 + f[:, None] * (_VIRIDIS_RGB[k + 1] - c0))
    hexes = rgb.astype(np.uint8).tobytes().hex()  # six digits per value
    return ["#" + hexes[s : s + 6] for s in range(0, len(hexes), 6)]


def _cohort_color(diagonal: int, t: float) -> str:
    hue = (diagonal * 137) % 360  # golden-angle hue walk per cohort
    light = 80 - 45 * min(max(t, 0.0), 1.0)
    return f"hsl({hue}, 55%, {light:.0f}%)"


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _doc(width, height, body, title, manifest=None):
    desc = f"<desc>manifest: {manifest}</desc>" if manifest else ""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">'
        f"{desc}"
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<text x="{width / 2}" y="22" text-anchor="middle" font-size="15">{_esc(title)}</text>'
        + body
        + "</svg>"
    )


def _tick_step(n: int) -> int:
    return max(1, n // 8)


def svg_heatmap(
    grid,
    year_labels,
    age_labels,
    title,
    value_label,
    cohort_shading: bool = False,
    manifest: str | None = None,
    annotations=None,
) -> str:
    """Cell heatmap of a year x age grid (years increase upward).

    ``grid`` holds one row per year of floats; NaN (or None) marks a cell
    without a value.  With ``cohort_shading`` each cohort diagonal gets its
    own hue and the value drives lightness, making along-cohort movement
    visible.  ``annotations`` marks cells with a dot: a list of
    (year_index, age_index).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("empty grid")
    ni, nj = grid.shape
    margin_l, margin_b, margin_t, margin_r = 70, 55, 40, 110
    cell = max(6, min(22, int(640 / max(ni, nj))))
    width = margin_l + nj * cell + margin_r
    height = margin_t + ni * cell + margin_b

    finite = np.isfinite(grid)
    if not finite.any():
        raise ValueError("no finite values to plot")
    lo, hi = float(grid[finite].min()), float(grid[finite].max())
    span = hi - lo if hi > lo else 1.0

    fills = np.full(grid.shape, "#eeeeee", dtype=object)
    t = (grid[finite] - lo) / span
    if cohort_shading:
        ii, jj = np.nonzero(finite)
        fills[ii, jj] = [
            _cohort_color(j - i, tv) for i, j, tv in zip(ii.tolist(), jj.tolist(), t.tolist())
        ]
    else:
        fills[finite] = _viridis(t)
    # One <rect> per cell, row by row: its text up to the fill is made from
    # the cell's column and row texts, then joined with the fills.
    columns = [f'<rect x="{margin_l + j * cell}" y="' for j in range(nj)]
    rows = [f'{margin_t + (ni - 1 - i) * cell}" width="{cell}" height="{cell}" fill="' for i in range(ni)]
    rects = [None] * (2 * grid.size)
    rects[0::2] = [x + y for y in rows for x in columns]
    rects[1::2] = [fill + '"/>' for fill in fills.ravel().tolist()]
    parts = ["".join(rects)]
    if annotations:
        for i, j in annotations:
            cx = margin_l + j * cell + cell / 2
            cy = margin_t + (ni - 1 - i) * cell + cell / 2
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{cell / 5:.1f}" fill="black"/>')

    for j in range(0, nj, _tick_step(nj)):
        x = margin_l + j * cell + cell / 2
        parts.append(
            f'<text x="{x}" y="{margin_t + ni * cell + 16}" text-anchor="middle" '
            f'font-size="10">{_esc(age_labels[j])}</text>'
        )
    for i in range(0, ni, _tick_step(ni)):
        y = margin_t + (ni - 1 - i) * cell + cell / 2 + 3
        parts.append(
            f'<text x="{margin_l - 6}" y="{y}" text-anchor="end" font-size="10">'
            f"{_esc(year_labels[i])}</text>"
        )
    parts.append(
        f'<text x="{margin_l + nj * cell / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">age</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + ni * cell / 2}" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + ni * cell / 2})" text-anchor="middle">year</text>'
    )

    # colour key
    bar_x = margin_l + nj * cell + 24
    bar_h = ni * cell * 0.7
    bar_y = margin_t + (ni * cell - bar_h) / 2
    steps = 24
    key = [1.0 - s / (steps - 1) for s in range(steps)]
    key_fills = [_cohort_color(0, t) for t in key] if cohort_shading else _viridis(key)
    for s, fill in enumerate(key_fills):
        parts.append(
            f'<rect x="{bar_x}" y="{bar_y + s * bar_h / steps:.1f}" width="14" '
            f'height="{bar_h / steps + 0.5:.1f}" fill="{fill}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 18}" y="{bar_y + 8:.1f}" font-size="10">{_fmt(hi)}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 18}" y="{bar_y + bar_h:.1f}" font-size="10">{_fmt(lo)}</text>'
    )
    parts.append(
        f'<text x="{bar_x}" y="{bar_y - 8:.1f}" font-size="10">{_esc(value_label)}</text>'
    )
    return _doc(width, height, "".join(parts), title, manifest)


def svg_series_panels(panels, title, manifest: str | None = None) -> str:
    """Stacked line/point panels with optional confidence bars.

    ``panels``: list of dicts with keys ``ylabel``, ``xlabel`` and
    ``series``: list of dicts with ``label`` and ``points`` as
    (x, y, lo, hi) where lo/hi may be None for no interval.
    """
    if not panels:
        raise ValueError("no panels")
    width, panel_h, margin_l, margin_r = 760, 240, 70, 170
    margin_t, gap = 40, 30
    height = margin_t + len(panels) * (panel_h + gap)
    parts = []
    for idx, panel in enumerate(panels):
        top = margin_t + idx * (panel_h + gap)
        plot_w = width - margin_l - margin_r
        plot_h = panel_h - 50
        xs, ys = [], []
        for series in panel["series"]:
            for x, y, lo, hi in series["points"]:
                if y is None or not math.isfinite(y):
                    continue
                xs.append(x)
                ys.extend(v for v in (y, lo, hi) if v is not None and math.isfinite(v))
        if not xs:
            parts.append(
                f'<text x="{width / 2}" y="{top + panel_h / 2}" text-anchor="middle" '
                f'font-size="12">(no data)</text>'
            )
            continue
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1
        if y_hi == y_lo:
            y_hi = y_lo + 1
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def px(x):
            return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y):
            return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        parts.append(
            f'<rect x="{margin_l}" y="{top}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#999"/>'
        )
        n_ticks = 5
        for k in range(n_ticks + 1):
            xv = x_lo + k * (x_hi - x_lo) / n_ticks
            parts.append(
                f'<text x="{px(xv):.1f}" y="{top + plot_h + 14}" text-anchor="middle" '
                f'font-size="10">{_fmt(xv)}</text>'
            )
            yv = y_lo + k * (y_hi - y_lo) / n_ticks
            parts.append(
                f'<text x="{margin_l - 5}" y="{py(yv):.1f}" text-anchor="end" '
                f'font-size="10">{_fmt(yv)}</text>'
            )
        parts.append(
            f'<text x="{margin_l + plot_w / 2}" y="{top + plot_h + 30}" '
            f'text-anchor="middle" font-size="11">{_esc(panel.get("xlabel", ""))}</text>'
        )
        parts.append(
            f'<text x="20" y="{top + plot_h / 2}" font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 20 {top + plot_h / 2})">{_esc(panel.get("ylabel", ""))}</text>'
        )
        for s_idx, series in enumerate(panel["series"]):
            color = series.get("color") or PALETTE[s_idx % len(PALETTE)]
            pts = [
                (x, y, lo, hi)
                for x, y, lo, hi in series["points"]
                if y is not None and math.isfinite(y)
            ]
            pts.sort(key=lambda q: q[0])
            line = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y, _, _ in pts)
            if len(pts) > 1 and not series.get("points_only"):
                parts.append(
                    f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            for x, y, lo, hi in pts:
                if lo is not None and hi is not None and math.isfinite(lo) and math.isfinite(hi):
                    parts.append(
                        f'<line x1="{px(x):.1f}" y1="{py(lo):.1f}" x2="{px(x):.1f}" '
                        f'y2="{py(hi):.1f}" stroke="{color}" stroke-width="1"/>'
                    )
                parts.append(
                    f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4" fill="{color}"/>'
                )
            parts.append(
                f'<rect x="{width - margin_r + 10}" y="{top + 14 * s_idx + 4}" width="10" '
                f'height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{width - margin_r + 24}" y="{top + 14 * s_idx + 13}" '
                f'font-size="10">{_esc(series["label"])}</text>'
            )
    return _doc(width, height, "".join(parts), title, manifest)
