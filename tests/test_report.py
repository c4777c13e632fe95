"""Output tables, SVG emission, manifest digests, atomic writes."""

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from ctrend.ingest import ingest_file, ingest_records
from ctrend.pipeline import FitOptions, build_manifest, run_fit
from ctrend.report import (
    atomic_write_text,
    csv_text,
    manifest_digest,
    read_table,
    render_bundle_svgs,
    write_fit_bundle,
)
from ctrend.design import stack
from ctrend.simulate import linear_trend_scenario, simulate, write_records


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    scenario = linear_trend_scenario(seed=15, noise_sd=1.0, samples_per_age=3)
    records = simulate(scenario)
    result = ingest_records(records, frame=scenario.frame, cell_min_count=0)
    options = FitOptions(trend_target=0.85, level_target=0.7, cell_min_count=0,
                         age_window=3, year_window=3)
    run = run_fit(result, options)
    manifest = build_manifest(run, ["synthetic"])
    outdir = tmp_path_factory.mktemp("bundle")
    written = write_fit_bundle(str(outdir), run, manifest)
    return run, manifest, outdir, written


class TestCsvRoundtrip:
    def test_nan_and_none_become_empty(self, tmp_path):
        text = csv_text(["a", "b"], [(1.5, None), (float("nan"), "x")])
        path = tmp_path / "t.csv"
        path.write_text(text)
        header, rows = read_table(str(path))
        assert header == ["a", "b"]
        assert rows == [["1.5", ""], ["", "x"]]

    def test_digest_comment(self, tmp_path):
        text = csv_text(["a"], [(1,)], digest="abc123")
        assert text.startswith("# manifest: abc123\n")
        path = tmp_path / "t.csv"
        path.write_text(text)
        header, rows = read_table(str(path))
        assert header == ["a"] and rows == [["1"]]

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]

    def test_manifest_digest_stable(self):
        a = manifest_digest({"x": 1, "y": [1, 2]})
        b = manifest_digest({"y": [1, 2], "x": 1})
        assert a == b
        assert a != manifest_digest({"x": 2, "y": [1, 2]})


class TestBundle:
    EXPECTED = [
        "observed.csv", "levels.csv", "trends.csv", "boundary_levels.csv",
        "clusters.csv", "cluster_tests.csv", "trace.csv", "domain.csv",
        "cohort_track.csv", "manifest.json", "ingest_report.json",
        "observed.svg", "levels.svg", "trends.svg", "cluster_ci.svg",
        "cluster_chart.svg", "cohort_track.svg",
    ]

    def test_all_artifacts_written(self, small_run):
        _, _, outdir, written = small_run
        names = sorted(os.path.basename(p) for p in written)
        assert names == sorted(self.EXPECTED)

    def test_every_file_references_digest(self, small_run):
        _, manifest, outdir, written = small_run
        digest = manifest["digest"]
        for path in written:
            body = open(path).read()
            assert digest in body, os.path.basename(path)

    def test_svgs_are_valid_xml(self, small_run):
        _, _, outdir, written = small_run
        for path in written:
            if path.endswith(".svg"):
                ET.parse(path)

    def test_grid_csvs_use_absolute_labels(self, small_run):
        run, _, outdir, _ = small_run
        frame = run.solution.frame
        header, rows = read_table(os.path.join(outdir, "trends.csv"))
        years = {int(r[0]) for r in rows}
        ages = {int(r[1]) for r in rows}
        assert min(years) >= frame.year_base >= 1900
        assert min(ages) >= frame.age_base >= 1
        # relative indices (tiny integers) must not leak
        assert not years & set(range(0, 60))

    def test_levels_grid_extends_one_step(self, small_run):
        run, _, outdir, _ = small_run
        frame = run.solution.frame
        header, rows = read_table(os.path.join(outdir, "levels.csv"))
        years = {int(r[0]) for r in rows}
        ages = {int(r[1]) for r in rows}
        assert max(years) == frame.year_of(frame.year_cells)
        assert max(ages) == frame.age_of(frame.age_cells)

    def test_trends_boundary_flag(self, small_run):
        run, _, outdir, _ = small_run
        header, rows = read_table(os.path.join(outdir, "trends.csv"))
        flags = {r[6] for r in rows}
        assert flags <= {"0", "1"}
        assert "1" in flags

    def test_cohort_track_consistency(self, small_run):
        run, _, outdir, _ = small_run
        header, rows = read_table(os.path.join(outdir, "cohort_track.csv"))
        births = {r[0] for r in rows}
        assert len(births) == 1
        for r in rows:
            assert int(r[1]) - int(r[2]) == int(r[0])  # year - age == birth year

    def test_svg_regeneration_is_pure(self, small_run):
        _, manifest, outdir, _ = small_run
        before = {
            p: open(os.path.join(outdir, p)).read()
            for p in os.listdir(outdir)
            if p.endswith(".svg")
        }
        render_bundle_svgs(str(outdir))
        for name, body in before.items():
            assert open(os.path.join(outdir, name)).read() == body

    def test_manifest_content(self, small_run):
        run, manifest, outdir, _ = small_run
        loaded = json.load(open(os.path.join(outdir, "manifest.json")))
        assert loaded["digest"] == manifest["digest"]
        assert loaded["result"]["converged"] == run.iteration.converged
        assert loaded["references"]["trend_target"] == 0.85
        assert "slot_segment" in loaded["domain"]
        assert loaded["result"]["dof_convention"].startswith("n = data")

    def test_manifest_reports_band_and_condition(self, small_run):
        run, manifest, outdir, _ = small_run
        result = json.load(open(os.path.join(outdir, "manifest.json")))["result"]
        assert result["bandwidth"] == run.system.bandwidth > 0
        assert result["condition"] == run.solution.condition > 1
        # the estimate is the dense 1-norm condition number of the final system
        stacked = stack(run.system, run.solution.trend_weight, run.solution.level_weight)
        a = stacked.matrix.toarray()
        normal = a.T @ (stacked.row_weights[:, None] * a)
        assert run.solution.condition == pytest.approx(np.linalg.cond(normal, 1), rel=1e-6)
        # observed, not configured: outside the digest
        solution = replace(run.solution, condition=2 * run.solution.condition)
        other = replace(run, iteration=replace(run.iteration, solution=solution))
        assert build_manifest(other, ["synthetic"])["digest"] == manifest["digest"]

    def test_trace_matches_iteration(self, small_run):
        run, _, outdir, _ = small_run
        header, rows = read_table(os.path.join(outdir, "trace.csv"))
        assert len(rows) == len(run.trace)
        assert float(rows[-1][3]) == pytest.approx(run.trace[-1].trend_smoothness)


class TestDeterminism:
    def test_identical_runs_identical_tables(self, tmp_path):
        scenario = linear_trend_scenario(seed=23, noise_sd=1.0)
        paths = []
        for tag in ("a", "b"):
            records = simulate(scenario)
            result = ingest_records(records, frame=scenario.frame, cell_min_count=0)
            run = run_fit(result, FitOptions(trend_target=0.85, cell_min_count=0,
                                             age_window=3, year_window=3))
            manifest = build_manifest(run, ["synthetic"])
            outdir = tmp_path / tag
            outdir.mkdir()
            write_fit_bundle(str(outdir), run, manifest)
            paths.append(outdir)
        for name in ("trends.csv", "levels.csv", "observed.csv", "trace.csv"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()

    def test_digest_identifies_file_contents(self, tmp_path):
        path = tmp_path / "survey.csv"
        options = FitOptions(trend_target=0.85, cell_min_count=0, age_window=3, year_window=3)

        def digest_of(seed):
            write_records(simulate(linear_trend_scenario(seed=seed, noise_sd=1.0)), str(path))
            run = run_fit(ingest_file(str(path), cell_min_count=0), options)
            return build_manifest(run, [str(path)])["digest"]

        first = digest_of(31)
        assert digest_of(32) != first  # different data, same path
        assert digest_of(31) == first  # same bytes again
