"""The traced run: every layer's public function, timed from the benchmark's side.

First the workload's ``ctrend fit`` runs once untraced, as in the measured
runs.  Then the layered pass makes the calls that fit makes (ingest once;
per reference pair domain, design, iterate, inference, report), each
inside a span.  The pipeline layer is timed on its own: ``run_fit`` per
pair (the report spans write those fits), ``batch_fit`` over all pairs.
``iterate.run`` is split by replaying ``solve`` and
``adjacent_correlations`` at each weight pair of its trace.

Times of per-pair layers and the iteration counts add up over the pairs;
the geometry counts are those of the first pair's fit.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from dataclasses import replace

from ctrend import cli
from ctrend.design import DesignSystem, stack
from ctrend.domain import build_domain
from ctrend.inference import cluster_compare
from ctrend.ingest import ingest_records, load_survey_file
from ctrend.iterate import run as iterate_run
from ctrend.pipeline import FitOptions, batch_fit, build_manifest, run_fit
from ctrend.report import manifest_digest, write_comparison_sheet, write_fit_bundle
from ctrend.solve import adjacent_correlations, solve

import checks
from workloads import bundle_dirs, fit_argv, make_input, parse_pair

# The spans of the layered pass that together do what one `ctrend fit` does.
FIT_SPANS = (
    "ingest.parse",
    "ingest.aggregate",
    "ingest.report",
    "domain.build",
    "design.build",
    "iterate.run",
    "inference.cluster",
    "report.manifest",
    "report.bundle",
)


class Spans:
    """Named (start, end) intervals, kept in memory until the run ends."""

    def __init__(self):
        self.records = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, time.perf_counter()))

    def seconds(self, *names) -> float:
        return sum(end - start for name, start, end in self.records if name in names)

    def durations(self, name: str) -> list:
        return [end - start for n, start, end in self.records if n == name]


def _normal_nnz(matrix) -> int:
    """Nonzeros of the normal matrix AᵀA, from A's pattern (no cancellation)."""
    pattern = matrix.copy()
    pattern.data[:] = 1.0
    return int((pattern.T @ pattern).nnz)


def traced_run(wl, seed: int, work: str, negative_control: bool = False):
    """Returns (metric values, checks.Tally, span records)."""
    spans = Spans()
    tally = checks.Tally()
    data = os.path.join(work, "input.csv")
    sim, expect = make_input(wl, seed, data, drop_row=negative_control)

    untraced = os.path.join(work, "untraced")
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(fit_argv(wl, data, untraced))
    fit_s = time.perf_counter() - start
    if negative_control:
        checks.corrupt_bundles(wl, untraced)
    tally.record(checks.check_fit(wl, untraced, code, expect))

    defaults = FitOptions()
    pairs = [parse_pair(p) for p in wl.pairs] or [(defaults.level_target, defaults.trend_target)]
    options = [replace(defaults, level_target=lv, trend_target=tr) for lv, tr in pairs]

    with spans("ingest.parse"):
        records, flagged = load_survey_file(data)
    with spans("ingest.aggregate"):
        ingested = ingest_records(
            records, flagged, cell_min_count=defaults.cell_min_count, source=os.path.basename(data)
        )
    with spans("ingest.report"):
        ingested.report()

    fits = []
    for opts in options:
        with spans("pipeline.run_fit"):
            fits.append(run_fit(ingested, opts))

    layered = os.path.join(work, "layered")
    written, digests, geometry = [], [], None
    for opts, fit, bundle in zip(options, fits, bundle_dirs(wl, layered)):
        with spans("domain.build"):
            domain = build_domain(ingested.cells, ingested.frame, mode=opts.domain_mode)
            inside, outside = domain.filter_cells(ingested.cells)
        with spans("design.build"):
            system = DesignSystem.build(inside, domain, weight_by_count=opts.weight_by_count)
        with spans("iterate.run"):
            iteration = iterate_run(system, opts.iteration_config())
        with spans("inference.cluster"):
            clusters = cluster_compare(
                iteration.solution, age_window=opts.age_window, year_window=opts.year_window
            )
        with spans("report.manifest"):
            manifest = build_manifest(fit, [os.path.abspath(data)])
        with spans("report.bundle"):
            os.makedirs(bundle, exist_ok=True)
            written += write_fit_bundle(bundle, fit, manifest)
        digests.append(manifest["digest"])
        if geometry is None:
            geometry = (domain, outside, system, clusters)
    if wl.pairs:
        with spans("report.bundle"):
            written += write_comparison_sheet(
                layered, dict(zip(pairs, fits)), manifest_digest({"runs": digests})
            )

    with spans("pipeline.batch"):
        batch_fit(ingested, defaults, pairs)

    with spans("design.stack"):
        stacked = stack(fits[0].system, defaults.trend_weight_init, defaults.level_weight_init)
    for opts, fit in zip(options, fits):
        replayed = None
        for rec in fit.trace:
            with spans("solve.solve"):
                solution = solve(fit.system, rec.trend_weight, rec.level_weight)
            with spans("solve.correlations"):
                adjacent_correlations(solution, literal_level_denominator=opts.literal_level_denominator)
            if rec.iteration == fit.iteration.best_iteration:
                replayed = solution.estimate
        estimate = fit.solution.estimate
        if negative_control:
            estimate = checks.perturb(estimate)
        tally.record(checks.check_estimate(fit, estimate, replayed))

    domain, outside, system, clusters = geometry
    calls = len(spans.durations("solve.solve"))
    solve_s = spans.seconds("solve.solve")
    corr_s = spans.seconds("solve.correlations")
    run_s = spans.seconds("iterate.run")
    parse_s = spans.seconds("ingest.parse")
    aggregate_s = spans.seconds("ingest.aggregate")
    total_s = spans.seconds(*FIT_SPANS)
    values = {
        "simulate.s": sim["simulate_s"],
        "simulate.write_s": sim["write_s"],
        "simulate.rows": sim["rows"],
        "ingest.parse_s": parse_s,
        "ingest.aggregate_s": aggregate_s,
        "ingest.report_s": spans.seconds("ingest.report"),
        "ingest.us_per_row": 1e6 * (parse_s + aggregate_s) / ingested.n_input,
        "ingest.rows_in": ingested.n_input,
        "ingest.rows_flagged": ingested.n_flagged,
        "ingest.rows_excluded": ingested.n_excluded,
        "ingest.cells_kept": len(ingested.cells),
        "ingest.cells_excluded": len(ingested.excluded_cells),
        "domain.build_s": spans.seconds("domain.build"),
        "domain.trend_cells": domain.trend_count,
        "domain.slots": domain.slot_count,
        "domain.cells_outside": len(outside),
        "design.build_s": spans.seconds("design.build"),
        "design.stack_s": spans.seconds("design.stack"),
        "design.params": system.param_count,
        "design.rows": system.n_total,
        "design.nnz": int(stacked.matrix.nnz),
        "design.normal_nnz": _normal_nnz(stacked.matrix),
        "solve.calls": calls,
        "solve.s_per_call": solve_s / calls,
        "solve.total_s": solve_s,
        "solve.corr_s_per_call": corr_s / calls,
        "iterate.run_s": run_s,
        "iterate.self_s": run_s - solve_s - corr_s,
        "iterate.iterations": sum(fit.iteration.iterations for fit in fits),
        "iterate.damping_events": sum(
            "oscillation detected" in rec.note for fit in fits for rec in fit.trace
        ),
        "inference.cluster_s": spans.seconds("inference.cluster"),
        "inference.clusters": len(clusters.clusters),
        "inference.comparisons": len(clusters.comparisons),
        "report.manifest_s": spans.seconds("report.manifest"),
        "report.bundle_s": spans.seconds("report.bundle"),
        "report.files": len(written),
        "report.bundle_bytes": sum(os.path.getsize(p) for p in written),
        "pipeline.run_fit_s": spans.durations("pipeline.run_fit")[0],
        "pipeline.batch_s": spans.seconds("pipeline.batch"),
        "pipeline.serial_s": spans.seconds("pipeline.run_fit"),
        "trace.fit_s": fit_s,
        "trace.total_s": total_s,
        "trace.overhead_s": total_s - fit_s,
    }
    return values, tally, spans.records
