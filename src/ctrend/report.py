"""Run outputs: CSV tables, JSON manifest, and SVG rendering from tables.

All files are written atomically (temp file + rename) with the mode a plain
``open`` would give, so the umask applies.  Every table and figure carries
the manifest digest, a hash of the effective inputs and configuration, so
outputs can be traced back to the run that produced them.  A table is one
ordered mapping from column name to column, the header its keys.  SVGs are
drawn from the tables' numeric columns alone, read by name:
:class:`BundleWriter` draws them from the tables it has just made, and
``render_bundle_svgs`` from the tables it parses back from the files of a
run directory (:func:`read_columns`).  A number's cell text (a float's
``repr``, an integer's digits) parses back to the same number, so both draw
the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import fields

import numpy as np

from . import plots
from .iterate import TraceRecord

__all__ = [
    "atomic_write_text",
    "read_table",
    "read_columns",
    "manifest_digest",
    "write_fit_bundle",
    "BundleWriter",
    "render_bundle_svgs",
    "comparison_entry",
    "write_comparison_entries",
    "write_comparison_sheet",
]

CI_FACTOR = 1.96  # normal-approximation 95% interval


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # Created like open() creates a file, so the kernel applies the umask.
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_text(column) -> list:
    """Cell texts of one column: a float as its ``repr`` (numpy floats
    included), NaN and None as empty cells, a bool (numpy's too) as 1 or
    0, any other value through ``str``."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        texts = list(map(repr, column.tolist()))
        for k in np.flatnonzero(np.isnan(column)).tolist():
            texts[k] = ""
        return texts
    if isinstance(column, np.ndarray) and column.dtype.kind == "b":
        column = column.view(np.uint8)  # True and False as 1 and 0
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [
        "" if v is None else ("" if v != v else repr(float(v))) if isinstance(v, float)
        else str(int(v)) if isinstance(v, (bool, np.bool_)) else str(v)
        for v in column
    ]


def _numeric(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "fiub"


def _table_text(table: dict, digest: str | None = None) -> str:
    """CSV text of a table given as ``{column name: column}``, the header
    its keys in order.

    A table of numeric arrays only is written by joining its cell texts,
    which never need quoting (a lone empty cell would, so a one-column
    table goes through ``csv.writer`` too, as does any table with a text
    column)."""
    columns = list(table.values())
    rows = list(zip(*map(_column_text, columns), strict=True))
    buf = io.StringIO()
    if digest:
        buf.write(f"# manifest: {digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.keys())
    if len(columns) > 1 and all(map(_numeric, columns)):
        buf.write("\n".join([*map(",".join, rows), ""]))  # each row ends in a newline
    else:
        writer.writerows(rows)
    return buf.getvalue()


def read_table(path):
    """Read one of our CSVs back: (header, rows-of-strings), comments skipped.

    Raises ``ValueError`` naming the file and line of a row whose field
    count differs from the header's.
    """
    header, rows = None, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for record in reader:
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = record
            elif len(record) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(record)} fields, "
                    f"the header has {len(header)}"
                )
            else:
                rows.append(record)
    if header is None:
        raise ValueError(f"{path}: no header row")
    return header, rows


def read_columns(path) -> dict:
    """One of our CSVs as ``{column name: column}`` (:func:`read_table`):
    each column a float array, with NaN for an empty cell, or the cell
    texts where a cell is not a number (a text column)."""
    header, rows = read_table(path)
    columns = zip(*rows) if rows else [()] * len(header)
    return dict(zip(header, map(_parsed, columns)))


def _parsed(cells):
    try:
        return np.array([float(cell) if cell else math.nan for cell in cells])
    except ValueError:
        return list(cells)


def manifest_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# --- table builders -------------------------------------------------------------
#
# Each builder returns its table as ``{column name: column}``, in the order
# the columns are written: adding a column is one entry here.


def observed_columns(cells, frame):
    return {
        "year": frame.year_of(cells.i),
        "age": frame.age_of(cells.j),
        "value": cells.x_mean,
        "count": cells.n,
    }


def _finite(values: np.ndarray) -> np.ndarray:
    """``values`` with every non-finite entry made NaN (an empty cell)."""
    return np.where(np.isfinite(values), values, np.nan)


def levels_columns(frame, levels):
    ii, jj = np.nonzero(np.isfinite(levels))
    return {"year": frame.year_of(ii), "age": frame.age_of(jj), "level": levels[ii, jj]}


def trends_columns(solution, trends, trend_se):
    """Every finite trend with its SE and 95% interval (empty where the SE is
    not finite) and its domain-boundary flag, row-major."""
    frame = solution.frame
    ii, jj = np.nonzero(np.isfinite(trends))
    value = trends[ii, jj]
    se = _finite(trend_se[ii, jj])
    return {
        "year": frame.year_of(ii),
        "age": frame.age_of(jj),
        "trend": value,
        "se": se,
        "ci_low": value - CI_FACTOR * se,
        "ci_high": value + CI_FACTOR * se,
        "boundary": solution.domain.edge()[ii, jj],
    }


def boundary_levels_columns(solution):
    """Every finite boundary level with its cohort's birth year and its SE
    (empty where not finite), by slot."""
    levels = solution.boundary_levels()
    slots = np.flatnonzero(np.isfinite(levels))
    return {
        "slot": slots,
        "birth_year": solution.frame.birth_year(slots),
        "level": levels[slots],
        "se": _finite(solution.boundary_level_se()[slots]),
    }


def clusters_columns(report):
    half = CI_FACTOR * report.se
    return {
        "year_start": report.year_start,
        "year_end": report.year_end,
        "age_start": report.age_start,
        "age_end": report.age_end,
        "mean": report.mean,
        "se": report.se,
        "ci_low": report.mean - half,
        "ci_high": report.mean + half,
        "n_cells": report.n_cells,
    }


def cluster_tests_columns(report):
    """Each comparison's blocks, direction and test (empty where degenerate)."""
    here, there = report.comparisons.T
    return {
        "year_start": report.year_start[here],
        "age_start": report.age_start[here],
        "direction": report.direction,
        "neighbour_year_start": report.year_start[there],
        "neighbour_age_start": report.age_start[there],
        "f_value": report.f_value,
        "prob": report.prob,
        "degenerate": report.degenerate,
    }


def domain_columns(domain):
    frame = domain.frame
    ii, jj = np.indices(domain.mask.shape).reshape(2, -1)
    return {"year": frame.year_of(ii), "age": frame.age_of(jj), "included": domain.mask.ravel()}


def cohort_track_columns(run, levels, trends, trend_se):
    """Along one cohort diagonal: observed mean with CI, fitted level, trend with CI.

    A cell mean's variance is sigma^2 over its data-row weight (the record
    count under ``weight_by_count``, else one), so that sets the data interval.
    """
    solution = run.solution
    frame = solution.frame
    ii, jj = frame.diagonal(run.track_slot)
    grid = np.full((2, frame.year_cells, frame.age_cells), np.nan)  # data row k is cell k
    grid[:, run.cells.i, run.cells.j] = run.cells.x_mean, run.system.data_row_weights
    data, weight = grid[:, ii, jj]
    half = _finite(CI_FACTOR * np.sqrt(solution.sigma2 / weight))
    trend = _finite(trends[ii, jj])
    tse = _finite(trend_se[ii, jj])
    return {
        "birth_year": np.full(ii.size, frame.birth_year(run.track_slot)),
        "year": frame.year_of(ii),
        "age": frame.age_of(jj),
        "data_mean": data,
        "data_lo": data - half,
        "data_hi": data + half,
        "level": _finite(levels[ii, jj]),
        "trend": trend,
        "trend_lo": trend - CI_FACTOR * tse,
        "trend_hi": trend + CI_FACTOR * tse,
    }


# --- SVG renderers from tables -------------------------------------------------
#
# Each renderer takes its tables as ``{column name: column}`` and reads the
# columns by name: numeric ones as float or integer arrays (NaN for an empty
# cell), text ones as lists.

def _labels(column):
    """Sorted distinct whole-number labels of a year or age column, and each
    row's index into them."""
    values = np.asarray(column, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("a year or age label is not a finite number")
    return np.unique(values.astype(int), return_inverse=True)


def _grid(table, value, year="year", age="age"):
    """Year x age grid of the ``value`` column (NaN where no row or an empty
    cell), the sorted year and age labels, and each row's year and age index."""
    years, yi = _labels(table[year])
    ages, ai = _labels(table[age])
    grid = np.full((years.size, ages.size), np.nan)
    grid[yi, ai] = np.asarray(table[value], dtype=float)
    return grid, years.tolist(), ages.tolist(), yi, ai


def _floats(table, *names):
    """The named columns as lists of floats, for row-wise iteration."""
    return [np.asarray(table[name], dtype=float).tolist() for name in names]


def svg_from_observed(table, digest=None):
    grid, years, ages, _, _ = _grid(table, "value")
    return plots.svg_heatmap(
        grid, years, ages,
        "Observed cell means (cohort shading)",
        "mean value",
        cohort_shading=True,
        manifest=digest,
    )


def svg_from_levels(table, digest=None):
    grid, years, ages, _, _ = _grid(table, "level")
    return plots.svg_heatmap(
        grid, years, ages, "Estimated mean levels", "level", manifest=digest
    )


def svg_from_trends(table, digest=None):
    grid, years, ages, yi, ai = _grid(table, "trend")
    edge = np.asarray(table["boundary"], dtype=float) == 1
    marks = list(zip(yi[edge].tolist(), ai[edge].tolist()))
    return plots.svg_heatmap(
        grid, years, ages,
        "Cohort trends (domain boundary marked; intervals in the table)",
        "units/yr",
        manifest=digest,
        annotations=marks,
    )


def _cluster_panel(table, ylabel):
    """Cluster mean trends with 95% intervals, one series per year block,
    from the table of ``clusters.csv``."""
    groups = {}
    names = "year_start", "year_end", "age_start", "age_end", "mean", "ci_low", "ci_high"
    for y0, y1, a0, a1, mean, lo, hi in zip(*_floats(table, *names)):
        groups.setdefault(f"{int(y0)}-{int(y1)}", []).append((0.5 * (a0 + a1), mean, lo, hi))
    series = [{"label": label, "points": pts} for label, pts in sorted(groups.items())]
    return {"ylabel": ylabel, "xlabel": "age (cluster midpoint)", "series": series}


def svg_from_clusters(table, digest=None):
    return plots.svg_series_panels(
        [_cluster_panel(table, "mean trend, units/yr")],
        "Cluster mean trends with 95% intervals",
        manifest=digest,
    )


def svg_from_cluster_chart(clusters, tests, digest=None):
    grid, years, ages, _, _ = _grid(clusters, "mean", "year_start", "age_start")
    yi = {y: k for k, y in enumerate(years)}
    ai = {a: k for k, a in enumerate(ages)}
    marks = [
        (yi[int(year)], ai[int(age)])
        for year, age, prob in zip(*_floats(tests, "year_start", "age_start", "prob"))
        if prob < 0.05
    ]
    return plots.svg_heatmap(
        grid, years, ages,
        "Cluster mean trends (dot: differs from a neighbour, p < 0.05)",
        "units/yr",
        manifest=digest,
        annotations=marks,
    )


def svg_from_cohort_track(table, digest=None):
    birth = int(table["birth_year"][0]) if len(table["birth_year"]) else "?"
    age, data, data_lo, data_hi, level, trend, trend_lo, trend_hi = _floats(
        table, "age", "data_mean", "data_lo", "data_hi", "level", "trend", "trend_lo", "trend_hi"
    )
    level_panel = {
        "ylabel": "level",
        "xlabel": "age",
        "series": [
            {
                "label": "observed mean",
                "points": list(zip(age, data, data_lo, data_hi)),
                "points_only": True,
            },
            {
                "label": "fitted level",
                "points": [(a, v, None, None) for a, v in zip(age, level)],
            },
        ],
    }
    trend_panel = {
        "ylabel": "trend, units/yr",
        "xlabel": "age",
        "series": [
            {
                "label": "trend (95% CI)",
                "points": list(zip(age, trend, trend_lo, trend_hi)),
            }
        ],
    }
    return plots.svg_series_panels(
        [level_panel, trend_panel],
        f"Cohort born {birth}: data, levels, trend",
        manifest=digest,
    )


def write_fit_bundle(outdir: str, run, manifest: dict) -> list:
    """Write every artifact for one fit run, a batch of one
    (:class:`BundleWriter`); returns the paths written."""
    return BundleWriter().write(outdir, run, manifest)


# The shared files are rendered with this stand-in digest and cut where it
# stands: after the first "manifest: " of a CSV (its comment line) or an SVG
# (its <desc>), and at the "manifest" key of ingest_report.json.  A JSON
# string escapes its quotes, so the key's text occurs nowhere else.
_SLOT = "@digest@"


class BundleWriter:
    """Writes the bundles of the runs of one batch (:func:`ctrend.pipeline.batch_fit`).

    The runs of a batch share their cells, domain and ingest report, so
    ``observed.csv``, ``domain.csv``, ``observed.svg`` and
    ``ingest_report.json`` differ between their bundles only in the manifest
    digest.  The writer renders those files once, with the digest left as a
    slot, and fills the slot for each bundle; a run that does not share
    them with the run before renders them afresh.
    """

    def __init__(self):
        self._source = (None, None, None)  # the cells, domain and ingest report of _shared
        self._shared = {}  # file name -> (text before the digest, text after it)

    def write(self, outdir: str, run, manifest: dict) -> list:
        """Write every artifact for one fit run; returns the paths written.
        When a write fails, the files written before it are removed."""
        written = []
        try:
            for name, text in self._texts(run, manifest):
                path = os.path.join(outdir, name)
                atomic_write_text(path, text)
                written.append(path)
        except BaseException:
            for path in written:
                with contextlib.suppress(OSError):
                    os.unlink(path)
            raise
        return written

    def _texts(self, run, manifest: dict) -> list:
        """Each file of a fit run's bundle as ``(name, text)``, in write order."""
        source = (run.cells, run.solution.domain, run.ingest_report)
        if any(new is not old for new, old in zip(source, self._source)):
            self._shared = _shared_texts(run)
            self._source = source
        digest = manifest["digest"]
        solution = run.solution
        frame = solution.frame
        levels, trends, trend_se = solution.level_grid(), solution.trend_grid(), solution.trend_se_grid()
        tables = {
            "levels.csv": levels_columns(frame, levels),
            "trends.csv": trends_columns(solution, trends, trend_se),
            "boundary_levels.csv": boundary_levels_columns(solution),
            "clusters.csv": clusters_columns(run.clusters),
            "cluster_tests.csv": cluster_tests_columns(run.clusters),
            "trace.csv": {f.name: [getattr(r, f.name) for r in run.trace] for f in fields(TraceRecord)},
            "cohort_track.csv": cohort_track_columns(run, levels, trends, trend_se),
        }
        texts = {name: head + digest + tail for name, (head, tail) in self._shared.items()}
        texts.update((name, _table_text(table, digest)) for name, table in tables.items())
        texts["manifest.json"] = _json_text(manifest)
        texts.update(render_svg_texts(tables, digest))
        order = (*TABLES, "manifest.json", "ingest_report.json", *FIGURES)
        return sorted(texts.items(), key=lambda item: order.index(item[0]))  # unlisted: ValueError


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _shared_texts(run) -> dict:
    """The bundle files drawn from the run's cells, domain and ingest report
    alone, each as its text before and after the manifest digest."""
    tables = {
        "observed.csv": observed_columns(run.cells, run.solution.frame),
        "domain.csv": domain_columns(run.solution.domain),
    }
    texts = {name: _table_text(table, _SLOT) for name, table in tables.items()}
    texts.update(render_svg_texts(tables, _SLOT))  # observed.svg: domain.csv draws none
    shared = {name: _around_slot(text, "manifest: ") for name, text in texts.items()}
    stamped = _json_text(dict(run.ingest_report, manifest=_SLOT))
    shared["ingest_report.json"] = _around_slot(stamped, '"manifest": "')
    return shared


def _around_slot(text: str, before: str) -> tuple:
    """``text`` cut at the digest slot that follows the first ``before``."""
    head, _, tail = text.partition(before + _SLOT)
    return head + before, tail


# A bundle's tables in write order; the manifest, the ingest report and the
# figures follow them.
TABLES = (
    "observed.csv", "levels.csv", "trends.csv", "boundary_levels.csv", "clusters.csv",
    "cluster_tests.csv", "trace.csv", "domain.csv", "cohort_track.csv",
)


# Each figure with its renderer and the tables it is drawn from.  A figure is
# drawn when its first table has rows and every other table is present.
FIGURES = {
    "observed.svg": (svg_from_observed, ("observed.csv",)),
    "levels.svg": (svg_from_levels, ("levels.csv",)),
    "trends.svg": (svg_from_trends, ("trends.csv",)),
    "cluster_ci.svg": (svg_from_clusters, ("clusters.csv",)),
    "cluster_chart.svg": (svg_from_cluster_chart, ("clusters.csv", "cluster_tests.csv")),
    "cohort_track.svg": (svg_from_cohort_track, ("cohort_track.csv",)),
}


def render_svg_texts(tables: dict, digest: str | None = None) -> dict:
    """Build every SVG from tables given as ``{file name: table}``; a figure
    whose tables are absent, or whose first table has no rows, is skipped."""
    out = {}
    for name, (render, sources) in FIGURES.items():
        found = [tables.get(source) for source in sources]
        if all(t is not None for t in found) and len(next(iter(found[0].values()))):
            out[name] = render(*found, digest)
    return out


def render_bundle_svgs(outdir: str) -> list:
    """Regenerate the SVGs of a run directory from its CSV files."""
    digest = None
    manifest_path = os.path.join(outdir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            digest = json.load(fh).get("digest")
    sources = dict.fromkeys(source for _, names in FIGURES.values() for source in names)
    tables = {
        name: read_columns(path)
        for name in sources
        if os.path.exists(path := os.path.join(outdir, name))
    }
    written = []
    for name, text in render_svg_texts(tables, digest).items():
        path = os.path.join(outdir, name)
        atomic_write_text(path, text)
        written.append(path)
    return written


def comparison_entry(pair, run) -> tuple:
    """What the comparison sheet keeps of one fitted reference pair: its
    summary row as ``{column name: value}`` and its cluster panel."""
    level_target, trend_target = pair
    best = run.iteration.best
    row = {
        "level_target": level_target,
        "trend_target": trend_target,
        "converged": run.iteration.converged,
        "iterations": len(run.trace),
        "trend_weight": run.solution.trend_weight,
        "level_weight": run.solution.level_weight,
        "r2": run.solution.r2,
        "trend_smoothness": best.trend_smoothness,
        "level_smoothness": best.level_smoothness,
    }
    panel = _cluster_panel(clusters_columns(run.clusters), f"R({level_target}, {trend_target}) trend")
    return row, panel


def write_comparison_entries(outdir: str, entries, digest: str | None, written: list) -> list:
    """Batch summary from one or more :func:`comparison_entry` results, one
    row and one panel each, in the order given.  Each path joins ``written``
    as soon as its file is, so that a caller's rollback finds the table when
    the figure fails; returns ``written``."""
    rows, panels = zip(*entries)
    table = {name: [row[name] for row in rows] for name in rows[0]}
    for name, text in (
        ("comparison.csv", _table_text(table, digest)),
        ("comparison.svg", plots.svg_series_panels(panels, "Reference-pair comparison", manifest=digest)),
    ):
        path = os.path.join(outdir, name)
        atomic_write_text(path, text)
        written.append(path)
    return written


def write_comparison_sheet(outdir: str, runs: dict, digest: str | None = None) -> list:
    """Batch summary: one row per reference pair plus a panel figure."""
    entries = [comparison_entry(pair, runs[pair]) for pair in sorted(runs)]
    return write_comparison_entries(outdir, entries, digest, [])
