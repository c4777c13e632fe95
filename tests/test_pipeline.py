"""Fit orchestration: batch fits share one design and the first solve,
equal separate fits and let each run go before the next pair is fitted."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ctrend import iterate
from ctrend.ingest import ingest_file, ingest_records
from ctrend.pipeline import FitOptions, batch_fit, build_manifest, run_fit
from ctrend.report import comparison_entry
from ctrend.simulate import linear_trend_scenario, preset, simulate, write_records
from ctrend.solve import adjacent_correlations, solve

from test_iterate import degenerate_first

# the benchmark's pair-sweep pairs, as (level target, trend target)
PAIR_SWEEP = [(0.7, 0.9), (0.5, 0.9), (0.7, 0.8), (0.6, 0.85)]


@pytest.fixture(scope="module")
def table_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_records(simulate(preset("table", seed=0)), str(path))
    return ingest_file(str(path))


def recorded_solves(monkeypatch):
    """The weights of every solve the weight loops make, in order."""
    weights = []
    real_solve = iterate.solve

    def recording_solve(system, trend_weight, level_weight):
        weights.append((trend_weight, level_weight))
        return real_solve(system, trend_weight, level_weight)

    monkeypatch.setattr(iterate, "solve", recording_solve)
    return weights


def reported_smoothness(run) -> tuple:
    """The manifest's smoothness pair, checked to be the comparison row's,
    the best trace row's and the correlations of the returned solution."""
    result = build_manifest(run, ["test"])["result"]
    reported = (result["trend_smoothness"], result["level_smoothness"])
    best = run.iteration.best
    corr = adjacent_correlations(run.solution)
    assert reported == (best.trend_smoothness, best.level_smoothness)
    assert reported == (corr.trend_smoothness, corr.level_smoothness)
    assert comparison_entry((0.0, 0.0), run)[0][-2:] == reported
    return reported


def test_batch_fit_equals_separate_fits(tmp_path):
    path = tmp_path / "survey.csv"
    write_records(simulate(linear_trend_scenario(seed=41, noise_sd=1.0, samples_per_age=3)), str(path))
    ingested = ingest_file(str(path), cell_min_count=0)
    options = FitOptions(cell_min_count=0, age_window=3, year_window=3)
    pairs = [(0.7, 0.9), (0.5, 0.85), (0.6, 0.8)]

    runs = batch_fit(ingested, options, pairs)
    assert list(runs) == pairs
    assert len({id(run.system) for run in runs.values()}) == 1
    for (level_target, trend_target), batched in runs.items():
        alone = run_fit(
            ingested, replace(options, level_target=level_target, trend_target=trend_target)
        )
        assert alone.system is not batched.system
        assert np.array_equal(batched.solution.estimate, alone.solution.estimate)
        assert [(r.trend_weight, r.level_weight) for r in batched.trace] == [
            (r.trend_weight, r.level_weight) for r in alone.trace
        ]
        assert batched.ingest_report == alone.ingest_report


def test_batch_fit_releases_each_run_before_the_next(tmp_path):
    """A consumer that keeps less than the run lets the run go: by the time
    the next pair's run reaches it, the last run's covariance is freed.
    The collector is off, so reference counting alone must free it."""
    path = tmp_path / "survey.csv"
    write_records(simulate(linear_trend_scenario(seed=41, noise_sd=1.0, samples_per_age=3)), str(path))
    ingested = ingest_file(str(path), cell_min_count=0)
    options = FitOptions(cell_min_count=0, age_window=3, year_window=3)
    pairs = [(0.7, 0.9), (0.5, 0.85), (0.6, 0.8)]
    covariances, alive = [], []

    def each(pair, run):
        alive.append([cov() is not None for cov in covariances])
        covariances.append(weakref.ref(run.solution.inverse))
        return run.iteration.converged

    gc.disable()
    try:
        kept = batch_fit(ingested, options, pairs, each=each)
    finally:
        gc.enable()
    assert list(kept) == pairs
    assert alive == [[], [False], [False, False]]


def test_pair_sweep_solves_the_initial_weights_once(table_data, monkeypatch):
    """Alone, the four pairs take 8 + 5 + 4 + 5 = 22 solves on `table`; in
    one batch each loop after the first reads the first solve at the
    initial weights (1, 1) instead of solving it, so the batch makes 19.
    Every run is still the pair fitted alone, bit for bit."""
    solves = recorded_solves(monkeypatch)
    runs = batch_fit(table_data, FitOptions(), PAIR_SWEEP)
    assert len(solves) == 19
    assert solves.count((1.0, 1.0)) == 1
    assert sum(run.iteration.iterations for run in runs.values()) == 22
    for (level_target, trend_target), batched in runs.items():
        alone = run_fit(table_data, FitOptions(level_target=level_target, trend_target=trend_target))
        assert batched.trace == alone.trace
        best = batched.iteration.best
        assert best is batched.trace[batched.iteration.best_iteration - 1]
        assert (best.trend_weight, best.level_weight) == (
            batched.solution.trend_weight, batched.solution.level_weight)
        assert (batched.solution.trend_weight, batched.solution.level_weight) == (
            alone.solution.trend_weight, alone.solution.level_weight)
        np.testing.assert_array_equal(batched.solution.estimate, alone.solution.estimate)


def test_pair_converged_at_the_shared_solve_solves_it_again(table_data, monkeypatch):
    """A pair whose targets are the correlations at the initial weights
    converges at iteration 1, which it read from the batch's first loop;
    it solves that iteration again and returns that solve bit for bit."""
    first = run_fit(table_data).trace[0]
    pair = (first.level_smoothness, first.trend_smoothness)
    solves = recorded_solves(monkeypatch)
    runs = batch_fit(table_data, FitOptions(), [(0.7, 0.9), pair])
    run = runs[pair]
    assert run.iteration.converged and run.iteration.iterations == run.iteration.best_iteration == 1
    assert run.trace[0] == replace(first, converged=True, note="converged")
    assert solves[-1] == (1.0, 1.0) and len(solves) == runs[0.7, 0.9].iteration.iterations + 1

    expected = solve(run.system, 1.0, 1.0)
    got = run.solution
    for name in ("estimate", "sigma2", "r2", "condition"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)
    np.testing.assert_array_equal(got.inverse.chol, expected.inverse.chol)
    np.testing.assert_array_equal(got.inverse.inverse_band, expected.inverse.inverse_band)


def test_stopped_fit_reports_its_best_solve(table_data):
    """`table` at (level 0.3, trend 0.6) runs out of its 10 iterations after
    its best, the third: the manifest and the comparison row give that
    solve's smoothness beside its weights, not the last row's."""
    run = run_fit(table_data, FitOptions(level_target=0.3, trend_target=0.6, max_iter=10))
    assert not run.iteration.converged and run.iteration.best_iteration == 3
    last = run.trace[-1]
    assert reported_smoothness(run) != (last.trend_smoothness, last.level_smoothness)


def test_degenerate_stop_reports_its_best_solve(monkeypatch):
    """A level correlation of 1 on the second solve stops the fit with the
    first, its best: the manifest reports the first solve's smoothness."""
    scenario = linear_trend_scenario(seed=10, noise_sd=1.5, samples_per_age=3, n_years=6, n_ages=7)
    ingested = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0)
    degenerate_first(monkeypatch, solves_before=1, level_smoothness=1.0)
    run = run_fit(ingested, FitOptions(trend_target=0.8, cell_min_count=0, age_window=3, year_window=3))
    assert run.iteration.iterations == 2 and run.iteration.best_iteration == 1
    assert run.trace[-1].level_smoothness == 1.0
    assert reported_smoothness(run)[1] < 1.0
