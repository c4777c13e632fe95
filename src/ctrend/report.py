"""Run outputs: CSV tables, JSON manifest, and SVG rendering from tables.

All files are written atomically (temp file + rename).  Every table and
figure carries the manifest digest, a hash of the effective inputs and
configuration, so outputs can be traced back to the run that produced
them.  SVGs are derived from the CSV rows alone and can be regenerated
from a run directory at any time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np

from . import plots

__all__ = [
    "atomic_write_text",
    "read_table",
    "manifest_digest",
    "write_fit_bundle",
    "render_bundle_svgs",
    "write_comparison_sheet",
]


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # includes numpy scalars; normalize first
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def csv_text(header, rows, digest: str | None = None) -> str:
    buf = io.StringIO()
    if digest:
        buf.write(f"# manifest: {digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell_text(v) for v in row])
    return buf.getvalue()


def read_table(path):
    """Read one of our CSVs back: (header, rows-of-strings), comments skipped."""
    header, rows = None, []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = record
            else:
                rows.append(record)
    if header is None:
        raise ValueError(f"{path}: no header row")
    return header, rows


def _f(cell: str):
    return float(cell) if cell not in ("", None) else None


def manifest_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- table builders -------------------------------------------------------------


def observed_rows(cells, frame):
    return [
        (frame.year_of(s.cell.i), frame.age_of(s.cell.j), s.x_mean, s.n)
        for s in sorted(cells, key=lambda s: s.cell)
    ]


def levels_rows(solution):
    frame = solution.frame
    grid = solution.level_grid()
    rows = []
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            if math.isfinite(grid[i, j]):
                rows.append((frame.year_of(i), frame.age_of(j), float(grid[i, j])))
    return rows


def _domain_boundary(domain):
    """Included trend cells missing one of their four neighbours: those that
    are not the middle of both a row triple and a column triple."""
    along_rows, along_columns = domain.runs(3)
    interior = np.intersect1d(along_rows[:, 1], along_columns[:, 1])
    trend_compact = domain.full_to_compact()[domain.frame.cohort_count :]
    return domain.mask & ~np.isin(trend_compact, interior).reshape(domain.mask.shape)


def trends_rows(solution):
    frame = solution.frame
    grid = solution.trend_grid()
    se = solution.trend_se_grid()
    edge = _domain_boundary(solution.domain)
    rows = []
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            value = grid[i, j]
            if not math.isfinite(value):
                continue
            s = se[i, j]
            s = float(s) if math.isfinite(s) else None
            lo = value - 1.96 * s if s is not None else None
            hi = value + 1.96 * s if s is not None else None
            rows.append(
                (
                    frame.year_of(i),
                    frame.age_of(j),
                    float(value),
                    s,
                    lo,
                    hi,
                    int(edge[i, j]),
                )
            )
    return rows


def boundary_levels_rows(solution):
    frame = solution.frame
    levels = solution.boundary_levels()
    se = solution.boundary_level_se()
    rows = []
    for slot in range(frame.cohort_count):
        if not math.isfinite(levels[slot]):
            continue
        origin = frame.slot_origin(slot)
        s = float(se[slot]) if math.isfinite(se[slot]) else None
        rows.append(
            (
                slot,
                frame.year_of(origin.i) - frame.age_of(origin.j),  # birth year label
                float(levels[slot]),
                s,
            )
        )
    return rows


def clusters_rows(report):
    rows = []
    for c in report.clusters:
        rows.append(
            (
                c.year_start,
                c.year_end,
                c.age_start,
                c.age_end,
                c.mean,
                c.se,
                c.mean - c.ci_half,
                c.mean + c.ci_half,
                c.n_cells,
            )
        )
    return rows


def cluster_tests_rows(report, clusters_by_block):
    rows = []
    for comp in report.comparisons:
        a = clusters_by_block[comp.block]
        b = clusters_by_block[comp.neighbour]
        rows.append(
            (
                a.year_start,
                a.age_start,
                comp.direction,
                b.year_start,
                b.age_start,
                comp.f_value if not comp.degenerate else None,
                comp.prob if not comp.degenerate else None,
                1 if comp.degenerate else 0,
            )
        )
    return rows


def trace_rows(trace):
    return [
        (
            r.iteration,
            r.trend_weight,
            r.level_weight,
            r.trend_smoothness,
            r.level_smoothness,
            r.data_misfit,
            r.trend_curvature,
            r.level_curvature,
            r.r2,
            1 if r.converged else 0,
            r.note,
        )
        for r in trace
    ]


def domain_rows(domain):
    frame = domain.frame
    rows = []
    for i in range(frame.year_cells):
        for j in range(frame.age_cells):
            rows.append(
                (
                    frame.year_of(i),
                    frame.age_of(j),
                    1 if domain.mask[i, j] else 0,
                )
            )
    return rows


def cohort_track_rows(run):
    """Along one cohort diagonal: observed mean with CI, fitted level, trend with CI."""
    solution = run.solution
    frame = solution.frame
    slot = run.track_slot
    origin = frame.slot_origin(slot)
    levels = solution.level_grid()
    trends = solution.trend_grid()
    trend_se = solution.trend_se_grid()
    by_cell = {s.cell: s for s in run.cells}
    sigma = math.sqrt(solution.sigma2) if math.isfinite(solution.sigma2) else None
    rows = []
    i, j = origin.i, origin.j
    birth = frame.year_of(i) - frame.age_of(j)
    while i < frame.year_cells and j < frame.age_cells:
        year, age = frame.year_of(i), frame.age_of(j)
        stat = by_cell.get(type(origin)(i, j))
        data = stat.x_mean if stat is not None else None
        half = 1.96 * sigma if (stat is not None and sigma is not None) else None
        level = levels[i, j] if math.isfinite(levels[i, j]) else None
        trend = trends[i, j] if math.isfinite(trends[i, j]) else None
        tse = trend_se[i, j] if math.isfinite(trend_se[i, j]) else None
        rows.append(
            (
                birth,
                year,
                age,
                data,
                data - half if (data is not None and half is not None) else None,
                data + half if (data is not None and half is not None) else None,
                level,
                trend,
                trend - 1.96 * tse if (trend is not None and tse is not None) else None,
                trend + 1.96 * tse if (trend is not None and tse is not None) else None,
            )
        )
        i += 1
        j += 1
    return rows


# --- SVG renderers from tables ---------------------------------------------------

def _grid_from_rows(rows, year_col, age_col, value_col):
    years = sorted({int(float(r[year_col])) for r in rows})
    ages = sorted({int(float(r[age_col])) for r in rows})
    yi = {y: k for k, y in enumerate(years)}
    ai = {a: k for k, a in enumerate(ages)}
    grid = [[None] * len(ages) for _ in years]
    for r in rows:
        value = _f(r[value_col])
        grid[yi[int(float(r[year_col]))]][ai[int(float(r[age_col]))]] = value
    return grid, years, ages


def svg_from_observed(header, rows, digest=None):
    grid, years, ages = _grid_from_rows(rows, 0, 1, 2)
    return plots.svg_heatmap(
        grid, years, ages,
        "Observed cell means (cohort shading)",
        "mean value",
        cohort_shading=True,
        manifest=digest,
    )


def svg_from_levels(header, rows, digest=None):
    grid, years, ages = _grid_from_rows(rows, 0, 1, 2)
    return plots.svg_heatmap(
        grid, years, ages, "Estimated mean levels", "level", manifest=digest
    )


def svg_from_trends(header, rows, digest=None):
    grid, years, ages = _grid_from_rows(rows, 0, 1, 2)
    yi = {y: k for k, y in enumerate(years)}
    ai = {a: k for k, a in enumerate(ages)}
    marks = [
        (yi[int(float(r[0]))], ai[int(float(r[1]))])
        for r in rows
        if r[6] == "1" or r[6] == 1
    ]
    return plots.svg_heatmap(
        grid, years, ages,
        "Cohort trends (domain boundary marked; intervals in the table)",
        "units/yr",
        manifest=digest,
        annotations=marks,
    )


def svg_from_clusters(header, rows, digest=None):
    groups = {}
    for r in rows:
        label = f"{int(float(r[0]))}-{int(float(r[1]))}"
        mid_age = 0.5 * (float(r[2]) + float(r[3]))
        groups.setdefault(label, []).append(
            (mid_age, _f(r[4]), _f(r[6]), _f(r[7]))
        )
    series = [
        {"label": label, "points": pts} for label, pts in sorted(groups.items())
    ]
    panel = {
        "ylabel": "mean trend, units/yr",
        "xlabel": "age (cluster midpoint)",
        "series": series,
    }
    return plots.svg_series_panels(
        [panel], "Cluster mean trends with 95% intervals", manifest=digest
    )


def svg_from_cluster_chart(cluster_header, cluster_rows, test_rows, digest=None):
    grid, years, ages = _grid_from_rows(cluster_rows, 0, 2, 4)
    yi = {y: k for k, y in enumerate(years)}
    ai = {a: k for k, a in enumerate(ages)}
    marks = []
    for r in test_rows:
        prob = _f(r[6])
        if prob is not None and prob < 0.05:
            marks.append((yi[int(float(r[0]))], ai[int(float(r[1]))]))
    return plots.svg_heatmap(
        grid, years, ages,
        "Cluster mean trends (dot: differs from a neighbour, p < 0.05)",
        "units/yr",
        manifest=digest,
        annotations=marks,
    )


def svg_from_cohort_track(header, rows, digest=None):
    birth = rows[0][0] if rows else "?"
    level_panel = {
        "ylabel": "level",
        "xlabel": "age",
        "series": [
            {
                "label": "observed mean",
                "points": [(float(r[2]), _f(r[3]), _f(r[4]), _f(r[5])) for r in rows],
                "points_only": True,
            },
            {
                "label": "fitted level",
                "points": [(float(r[2]), _f(r[6]), None, None) for r in rows],
            },
        ],
    }
    trend_panel = {
        "ylabel": "trend, units/yr",
        "xlabel": "age",
        "series": [
            {
                "label": "trend (95% CI)",
                "points": [(float(r[2]), _f(r[7]), _f(r[8]), _f(r[9])) for r in rows],
            }
        ],
    }
    return plots.svg_series_panels(
        [level_panel, trend_panel],
        f"Cohort born {birth}: data, levels, trend",
        manifest=digest,
    )


TABLE_HEADERS = {
    "observed.csv": ["year", "age", "value", "count"],
    "levels.csv": ["year", "age", "level"],
    "trends.csv": ["year", "age", "trend", "se", "ci_low", "ci_high", "boundary"],
    "boundary_levels.csv": ["slot", "birth_year", "level", "se"],
    "clusters.csv": [
        "year_start", "year_end", "age_start", "age_end",
        "mean", "se", "ci_low", "ci_high", "n_cells",
    ],
    "cluster_tests.csv": [
        "year_start", "age_start", "direction",
        "neighbour_year_start", "neighbour_age_start", "f_value", "prob", "degenerate",
    ],
    "trace.csv": [
        "iteration", "trend_weight", "level_weight", "trend_smoothness",
        "level_smoothness", "data_misfit", "trend_curvature", "level_curvature",
        "r2", "converged", "note",
    ],
    "domain.csv": ["year", "age", "included"],
    "cohort_track.csv": [
        "birth_year", "year", "age", "data_mean", "data_lo", "data_hi",
        "level", "trend", "trend_lo", "trend_hi",
    ],
}


def write_fit_bundle(outdir: str, run, manifest: dict) -> list:
    """Write every artifact for one fit run; returns the paths written."""
    digest = manifest["digest"]
    written = []

    def emit(name, text):
        path = os.path.join(outdir, name)
        atomic_write_text(path, text)
        written.append(path)

    frame = run.solution.frame
    tables = {
        "observed.csv": observed_rows(run.cells, frame),
        "levels.csv": levels_rows(run.solution),
        "trends.csv": trends_rows(run.solution),
        "boundary_levels.csv": boundary_levels_rows(run.solution),
        "clusters.csv": clusters_rows(run.clusters),
        "cluster_tests.csv": cluster_tests_rows(
            run.clusters, {c.block: c for c in run.clusters.clusters}
        ),
        "trace.csv": trace_rows(run.trace),
        "domain.csv": domain_rows(run.solution.domain),
        "cohort_track.csv": cohort_track_rows(run),
    }
    for name, rows in tables.items():
        emit(name, csv_text(TABLE_HEADERS[name], rows, digest))

    emit("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if run.ingest_report is not None:
        stamped = dict(run.ingest_report, manifest=digest)
        emit("ingest_report.json", json.dumps(stamped, indent=2, sort_keys=True) + "\n")

    for name, text in render_svg_texts(outdir, digest).items():
        emit(name, text)
    return written


def render_svg_texts(outdir: str, digest: str | None = None) -> dict:
    """Build every SVG from the CSV files present in ``outdir``."""
    out = {}

    def table(name):
        path = os.path.join(outdir, name)
        return read_table(path) if os.path.exists(path) else (None, None)

    header, rows = table("observed.csv")
    if rows:
        out["observed.svg"] = svg_from_observed(header, rows, digest)
    header, rows = table("levels.csv")
    if rows:
        out["levels.svg"] = svg_from_levels(header, rows, digest)
    header, rows = table("trends.csv")
    if rows:
        out["trends.svg"] = svg_from_trends(header, rows, digest)
    header, rows = table("clusters.csv")
    if rows:
        out["cluster_ci.svg"] = svg_from_clusters(header, rows, digest)
        _, test_rows = table("cluster_tests.csv")
        if test_rows is not None:
            out["cluster_chart.svg"] = svg_from_cluster_chart(header, rows, test_rows, digest)
    header, rows = table("cohort_track.csv")
    if rows:
        out["cohort_track.svg"] = svg_from_cohort_track(header, rows, digest)
    return out


def render_bundle_svgs(outdir: str, digest: str | None = None) -> list:
    if digest is None:
        manifest_path = os.path.join(outdir, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path) as fh:
                digest = json.load(fh).get("digest")
    written = []
    for name, text in render_svg_texts(outdir, digest).items():
        path = os.path.join(outdir, name)
        atomic_write_text(path, text)
        written.append(path)
    return written


def write_comparison_sheet(outdir: str, runs: dict, digest: str | None = None) -> list:
    """Batch summary: one row per reference pair plus a panel figure."""
    header = [
        "level_target", "trend_target", "converged", "iterations",
        "trend_weight", "level_weight", "r2", "trend_smoothness", "level_smoothness",
    ]
    rows = []
    panels = []
    for (level_target, trend_target), run in sorted(runs.items()):
        last = run.trace[-1]
        rows.append(
            (
                level_target,
                trend_target,
                1 if run.iteration.converged else 0,
                len(run.trace),
                run.solution.trend_weight,
                run.solution.level_weight,
                run.solution.r2,
                last.trend_smoothness,
                last.level_smoothness,
            )
        )
        groups = {}
        for c in run.clusters.clusters:
            label = f"{c.year_start}-{c.year_end}"
            groups.setdefault(label, []).append(
                (0.5 * (c.age_start + c.age_end), c.mean, c.mean - c.ci_half, c.mean + c.ci_half)
            )
        panels.append(
            {
                "ylabel": f"R({level_target}, {trend_target}) trend",
                "xlabel": "age (cluster midpoint)",
                "series": [
                    {"label": label, "points": pts} for label, pts in sorted(groups.items())
                ],
            }
        )
    paths = []
    csv_path = os.path.join(outdir, "comparison.csv")
    atomic_write_text(csv_path, csv_text(header, rows, digest))
    paths.append(csv_path)
    svg_path = os.path.join(outdir, "comparison.svg")
    atomic_write_text(
        svg_path,
        plots.svg_series_panels(panels, "Reference-pair comparison", manifest=digest),
    )
    paths.append(svg_path)
    return paths
