"""Output tables, SVG emission, manifest digests, atomic writes."""

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

from ctrend.inference import cluster_compare
from ctrend.ingest import ingest_file, ingest_records
from ctrend.iterate import TraceRecord
from ctrend.pipeline import FitOptions, build_manifest, run_fit
from ctrend.report import (
    TABLE_HEADERS,
    _table_text,
    atomic_write_text,
    cluster_tests_columns,
    csv_text,
    manifest_digest,
    read_columns,
    read_table,
    BundleWriter,
    render_bundle_svgs,
    write_fit_bundle,
)
from ctrend.design import stack
from ctrend.simulate import linear_trend_scenario, simulate, write_records

from test_inference import strip_solution


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

    def test_columns_parse_back_to_the_numbers(self, tmp_path):
        """What the figures of ``ctrend report`` are drawn from: numbers as
        floats with NaN for an empty cell, a text column as its texts."""
        path = tmp_path / "t.csv"
        path.write_text(csv_text(["a", "b", "c"], [(0.1, None, "age"), (math.nan, 3, "period")], "d"))
        a, b, c = read_columns(str(path))
        np.testing.assert_array_equal(a, [0.1, math.nan])
        np.testing.assert_array_equal(b, [math.nan, 3.0])
        assert c == ["age", "period"]
        path.write_text(csv_text(["a", "b"], [], "d"))
        assert [column.size for column in read_columns(str(path))] == [0, 0]

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


class TestClusterTestsTable:
    def test_rows_name_their_blocks_and_leave_a_degenerate_test_empty(self, tmp_path):
        """Three blocks along one age strip, the first test marked degenerate
        as :func:`cluster_compare` marks one with no variance of the
        difference (NaN F and tail): its F and tail are empty cells and it
        is flagged; each row names the neighbour its direction points to."""
        cov = np.diag([0.01, 0.01, 0.02])
        report = cluster_compare(strip_solution([0.5, 0.1, 0.3], cov), age_window=1, year_window=1)
        # a positive definite covariance at sigma^2 > 0 leaves no test degenerate
        report.f_value[0] = report.prob[0] = math.nan
        report.degenerate[0] = True
        header = TABLE_HEADERS["cluster_tests.csv"]
        path = tmp_path / "cluster_tests.csv"
        path.write_text(_table_text(header, cluster_tests_columns(report))[0])
        read_header, rows = read_table(str(path))
        assert read_header == header
        table = [dict(zip(header, row)) for row in rows]
        assert len(table) == 2
        assert [row["degenerate"] for row in table] == ["1", "0"]
        assert (table[0]["f_value"], table[0]["prob"]) == ("", "")
        assert float(table[1]["f_value"]) == pytest.approx(0.04 / 0.03)
        assert 0.0 < float(table[1]["prob"]) < 1.0
        step = {"age": (0, 1), "period": (1, 0)}
        for row in table:
            dy, da = step[row["direction"]]
            assert int(row["neighbour_year_start"]) == int(row["year_start"]) + dy
            assert int(row["neighbour_age_start"]) == int(row["age_start"]) + da
        assert [(row["year_start"], row["age_start"]) for row in table] == [("0", "0"), ("0", "1")]


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

    def test_file_modes_follow_umask(self, small_run):
        _, _, _, written = small_run
        umask = os.umask(0)
        os.umask(umask)
        for path in written:
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, os.path.basename(path)

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

    @pytest.mark.parametrize("weight_by_count", [False, True])
    def test_cohort_track_data_interval_is_cell_mean_interval(self, tmp_path, weight_by_count):
        # a cell mean's variance is sigma^2 over its data-row weight: the
        # record count under weight_by_count (sigma^2 per record), else one
        scenario = linear_trend_scenario(seed=15, noise_sd=1.0, samples_per_age=3)
        result = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0)
        run = run_fit(result, FitOptions(cell_min_count=0, weight_by_count=weight_by_count,
                                         age_window=3, year_window=3))
        write_fit_bundle(str(tmp_path), run, build_manifest(run, ["synthetic"]))
        _, observed = read_table(os.path.join(tmp_path, "observed.csv"))
        count = {(r[0], r[1]): int(r[3]) for r in observed}
        _, rows = read_table(os.path.join(tmp_path, "cohort_track.csv"))
        checked = 0
        for r in rows:
            if r[3]:
                weight = count[r[1], r[2]] if weight_by_count else 1
                half = 1.96 * math.sqrt(run.solution.sigma2 / weight)
                assert float(r[5]) - float(r[3]) == pytest.approx(half, rel=1e-12)
                assert float(r[3]) - float(r[4]) == pytest.approx(half, rel=1e-12)
                checked += 1
        assert checked and all(n > 1 for n in count.values())

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

    def test_manifest_reports_fallback_steps(self, small_run):
        run, manifest, outdir, _ = small_run
        result = json.load(open(os.path.join(outdir, "manifest.json")))["result"]
        assert result["fallback_steps"] == run.iteration.fallback_steps
        # observed, not configured: outside the digest
        other = replace(run, iteration=replace(run.iteration, fallback_steps=7))
        assert build_manifest(other, ["synthetic"])["digest"] == manifest["digest"]

    def test_trace_matches_iteration(self, small_run):
        """trace.csv is the trace's records, one column per field in order;
        each cell parses back to its record's value."""
        run, _, outdir, _ = small_run
        header, rows = read_table(os.path.join(outdir, "trace.csv"))
        assert header == [f.name for f in fields(TraceRecord)]
        assert len(rows) == len(run.trace)
        for row, record in zip(rows, run.trace):
            for name, cell in zip(header, row):
                value = getattr(record, name)
                if isinstance(value, bool):
                    assert cell == ("1" if value else "0"), name
                elif value is None:
                    assert cell == "", name
                elif isinstance(value, float):
                    assert float(cell) == value, name  # repr: the same float
                else:
                    assert cell == str(value), name  # the iteration and the note
        # no r2 is an empty cell and a bool its digit, as the converged column writes them
        assert _table_text(["r2", "converged"], [[None, 0.5], [True, False]])[1] == [
            ("", "1"), ("0.5", "0")]


class TestBundleWriter:
    OPTIONS = FitOptions(trend_target=0.85, cell_min_count=0, age_window=3, year_window=3)

    def fit(self, seed, source=""):
        scenario = linear_trend_scenario(seed=seed, noise_sd=1.0)
        result = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0,
                                source=source)
        run = run_fit(result, self.OPTIONS)
        return run, build_manifest(run, [f"seed {seed}"])

    @staticmethod
    def files(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "manifest.json"}

    def test_runs_of_other_data_get_their_own_files(self, tmp_path):
        # one writer, three runs: the shared files of the first run must not
        # reach the second, which fits other cells, nor leak back to the third
        fits = [self.fit(41), self.fit(42), self.fit(41)]
        writer = BundleWriter()
        for k, (run, manifest) in enumerate(fits):
            alone, shared = tmp_path / f"alone{k}", tmp_path / f"shared{k}"
            write_fit_bundle(str(alone), run, manifest)
            writer.write(str(shared), run, manifest)
            assert self.files(alone) == self.files(shared), k
        assert self.files(tmp_path / "shared0") != self.files(tmp_path / "shared1")

    def test_digest_slot_text_in_the_source_name(self, tmp_path):
        # the ingest report is cut at its "manifest" key: the same text inside
        # a string elsewhere is escaped, so it is not taken for the slot
        source = '"manifest": "@digest@" manifest: @digest@'
        run, manifest = self.fit(43, source=source)
        write_fit_bundle(str(tmp_path), run, manifest)
        report = json.loads((tmp_path / "ingest_report.json").read_text())
        assert report["manifest"] == manifest["digest"]
        assert report["source"] == source
        assert report == dict(run.ingest_report, manifest=manifest["digest"])


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
