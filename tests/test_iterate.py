"""Stopping rule, weight updates, and the outer loop."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ctrend.design import DesignSystem
from ctrend.domain import build_domain
from ctrend.ingest import ingest_records
from ctrend import iterate
from ctrend.iterate import IterationConfig, check_stop, run, signed_gap
from ctrend.simulate import linear_trend_scenario, preset, simulate
from ctrend.solve import adjacent_correlations, solve


def small_system(seed=2, noise=1.0):
    scenario = linear_trend_scenario(seed=seed, noise_sd=noise, samples_per_age=3,
                                     n_years=6, n_ages=7)
    records = simulate(scenario)
    res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
    domain = build_domain(res.cells, res.frame, mode=1)
    return DesignSystem.build(res.cells, domain)


def table_system():
    """The design of a `table` fit (seed 0, p = 1395)."""
    scenario = preset("table", seed=0)
    res = ingest_records(simulate(scenario), frame=scenario.frame)
    domain = build_domain(res.cells, res.frame)
    return DesignSystem.build(domain.filter_cells(res.cells)[0], domain)


def recorded_solves(monkeypatch):
    """The weights of every solve the loop makes, in order."""
    weights = []
    real_solve = iterate.solve

    def recording_solve(system, trend_weight, level_weight):
        weights.append((trend_weight, level_weight))
        return real_solve(system, trend_weight, level_weight)

    monkeypatch.setattr(iterate, "solve", recording_solve)
    return weights


def degenerate_first(monkeypatch, solves_before=0, **values):
    """Have the first correlation measurement of ``run`` after
    ``solves_before`` unchanged ones read ``values``."""
    measure = iterate.adjacent_correlations
    calls = itertools.count()

    def measured(solution, **kwargs):
        corr = measure(solution, **kwargs)
        return dataclasses.replace(corr, **values) if next(calls) == solves_before else corr

    monkeypatch.setattr(iterate, "adjacent_correlations", measured)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(trend_target=1.0, level_target=0.7)
        with pytest.raises(ValueError):
            IterationConfig(trend_target=0.9, level_target=0.7, trend_accuracy=0.0)
        with pytest.raises(ValueError):
            IterationConfig(trend_target=0.9, level_target=0.7, max_iter=0)
        with pytest.raises(ValueError):
            IterationConfig(trend_target=0.9, level_target=0.7, trend_weight_init=0.0)


    @pytest.mark.parametrize("name", ["trend_accuracy", "level_accuracy",
                                      "trend_weight_init", "level_weight_init"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            IterationConfig(trend_target=0.9, level_target=0.7, **{name: value})


class TestSignedGap:
    def test_sign_and_value(self):
        assert signed_gap(0.85, 0.9) == pytest.approx(math.log(0.2775 / 0.19), abs=1e-12)
        assert signed_gap(0.95, 0.9) < 0.0 < signed_gap(0.5, 0.9)

    def test_one_formula(self):
        # the stop rule's gap is the magnitude of the step's signed gap
        config = IterationConfig(trend_target=0.9, level_target=0.7)
        for measured in (0.3, 0.85, 0.95):
            gap = signed_gap(measured, 0.9)
            assert check_stop(measured, 0.7, config).trend_gap == abs(gap)

    def test_hand_value(self):
        # the paper's update ratio (1 - 0.85^2) / (1 - 0.9^2)
        assert math.exp(signed_gap(0.85, 0.9)) == pytest.approx(0.2775 / 0.19, abs=1e-12)
        assert math.exp(signed_gap(0.85, 0.9)) == pytest.approx(1.4605, abs=1e-4)

    def test_rough_solution_raises_weight(self):
        step = iterate._step((1.0, 1.0), (signed_gap(0.5, 0.9),) * 2, (iterate.PAPER_SLOPE,) * 2)
        assert step[0] > 1.0

    def test_smooth_solution_lowers_weight(self):
        step = iterate._step((1.0, 1.0), (signed_gap(0.95, 0.9),) * 2, (iterate.PAPER_SLOPE,) * 2)
        assert step[0] < 1.0


class TestCheckStop:
    def config(self, du=0.05, dv=0.05):
        return IterationConfig(trend_target=0.9, level_target=0.7,
                               trend_accuracy=du, level_accuracy=dv)

    def test_exact_targets_stop_with_zero_gaps(self):
        check = check_stop(0.9, 0.7, self.config())
        assert check.stop
        assert check.trend_gap == 0.0
        assert check.level_gap == 0.0

    def test_hand_computed_gap(self):
        # measured 0.85 vs reference 0.9: |log(0.2775 / 0.19)| ~ 0.379 > 0.05
        check = check_stop(0.85, 0.7, self.config())
        assert not check.stop
        assert not check.trend_ok
        assert check.trend_gap == pytest.approx(abs(math.log(0.2775 / 0.19)), abs=1e-12)
        assert check.trend_gap == pytest.approx(0.3788, abs=1e-4)
        assert check.level_ok

    def test_and_semantics(self):
        # only the level condition holds
        assert not check_stop(0.5, 0.7, self.config()).stop
        # only the trend condition holds
        assert not check_stop(0.9, 0.2, self.config()).stop
        assert check_stop(0.9, 0.7, self.config()).stop

    def test_degenerate_measurements(self):
        check = check_stop(1.0, 0.7, self.config())
        assert check.degenerate and not check.stop
        check = check_stop(math.nan, 0.7, self.config())
        assert check.degenerate and not check.stop

    def test_two_sided(self):
        # overshooting smoothness also fails the window
        tight = self.config(du=0.01)
        assert not check_stop(0.99, 0.7, tight).stop


class TestRun:
    def test_immediate_convergence_keeps_weights(self):
        system = small_system()
        sol = solve(system, 1.0, 1.0)
        corr = adjacent_correlations(sol)
        config = IterationConfig(
            trend_target=corr.trend_smoothness,
            level_target=corr.level_smoothness,
            trend_accuracy=0.05,
            level_accuracy=0.05,
        )
        result = run(system, config)
        assert result.converged
        assert result.iterations == 1
        best = result.best
        assert best is result.trace[result.best_iteration - 1]
        assert (best.trend_weight, best.level_weight) == (
            result.solution.trend_weight, result.solution.level_weight) == (1.0, 1.0)

    def test_rough_solution_increases_trend_weight(self):
        system = small_system()
        sol = solve(system, 1.0, 1.0)
        corr = adjacent_correlations(sol)
        target = min(0.98, corr.trend_smoothness + 0.15)
        config = IterationConfig(trend_target=target, level_target=corr.level_smoothness,
                                 max_iter=3)
        result = run(system, config)
        assert result.trace[1].trend_weight > result.trace[0].trend_weight

    def test_weights_stay_positive(self):
        system = small_system(seed=4)
        config = IterationConfig(trend_target=0.9, level_target=0.7, max_iter=25)
        result = run(system, config)
        for rec in result.trace:
            assert rec.trend_weight > 0
            assert rec.level_weight > 0

    def test_deterministic_trace(self):
        config = IterationConfig(trend_target=0.85, level_target=0.7, max_iter=15)
        r1 = run(small_system(seed=6), config)
        r2 = run(small_system(seed=6), config)
        assert len(r1.trace) == len(r2.trace)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.trend_weight, a.level_weight) == (b.trend_weight, b.level_weight)
            assert (a.trend_smoothness, a.level_smoothness) == (
                b.trend_smoothness, b.level_smoothness)

    def test_budget_stop_returns_best_so_far(self):
        system = small_system(seed=8)
        config = IterationConfig(trend_target=0.99, level_target=0.99,
                                 trend_accuracy=1e-6, level_accuracy=1e-6, max_iter=3)
        result = run(system, config)
        assert not result.converged
        assert result.reason == "max_iter"
        assert result.iterations == 3
        assert 1 <= result.best_iteration <= 3
        assert "stopped" in result.trace[-1].note

    def test_converges_on_reachable_band(self):
        system = small_system(seed=10, noise=1.5)
        for target in (0.7, 0.8, 0.9):
            config = IterationConfig(trend_target=target, level_target=0.7, max_iter=50)
            result = run(system, config)
            assert result.converged, f"target {target} did not converge"
            assert result.iterations <= 50

    def test_unreachable_target_stops_without_crashing(self):
        # a tiny system cannot reach correlation 0.95: the loop drives the
        # weight until the system degrades, then stops with the best result
        system = small_system(seed=10, noise=1.5)
        config = IterationConfig(trend_target=0.95, level_target=0.7, max_iter=50)
        result = run(system, config)
        assert not result.converged
        assert result.reason.startswith(("singular", "max_iter"))
        assert np.all(np.isfinite(result.solution.estimate))

    def test_notes_name_each_step(self):
        system = small_system(seed=10, noise=1.5)
        config = IterationConfig(trend_target=0.8, level_target=0.7, max_iter=50)
        result = run(system, config)
        assert result.converged
        steps = [rec.note for rec in result.trace[:-1]]
        assert steps[0] == "paper step"
        assert all(note.startswith(("paper step", "secant step")) for note in steps)
        assert "secant step" in steps
        assert result.fallback_steps == sum("worst gap did not fall" in n for n in steps)
        assert result.trace[-1].note == "converged"

    def test_safeguard_takes_paper_step(self):
        # on an unreachable target the trend gap stalls, so the worst gap
        # stops falling; each such solve is followed by the paper step
        system = small_system(seed=10, noise=1.5)
        config = IterationConfig(trend_target=0.95, level_target=0.7, max_iter=50)
        result = run(system, config)
        assert result.fallback_steps > 0
        for rec, nxt in zip(result.trace, result.trace[1:]):
            if "worst gap did not fall" not in rec.note:
                continue
            for weight, measured, target, next_weight in (
                (rec.trend_weight, rec.trend_smoothness, config.trend_target, nxt.trend_weight),
                (rec.level_weight, rec.level_smoothness, config.level_target, nxt.level_weight),
            ):
                step = min(max(signed_gap(measured, target), -3.0), 3.0)
                assert next_weight == pytest.approx(weight * math.exp(step), rel=1e-12)

    def test_no_finite_score_keeps_first_solution(self, monkeypatch):
        degenerate_first(monkeypatch, trend_smoothness=math.nan)
        config = IterationConfig(trend_target=0.8, level_target=0.7, max_iter=1)
        result = run(small_system(seed=10, noise=1.5), config)
        assert not result.converged
        assert result.best_iteration == 1
        assert result.reason.startswith("correlation not measurable (trend nan, level ")
        assert result.trace[-1].note.endswith(f"stopped: {result.reason}, best iteration 1")

    def test_degenerate_measurement_stops_with_best_so_far(self, monkeypatch):
        # a level correlation of 1 on the second solve ends the loop there;
        # no weight step follows and the first solution is kept
        degenerate_first(monkeypatch, solves_before=1, level_smoothness=1.0)
        config = IterationConfig(trend_target=0.8, level_target=0.7, max_iter=50)
        result = run(small_system(seed=10, noise=1.5), config)
        assert not result.converged
        assert len(result.trace) == 2 and result.best_iteration == 1
        assert result.reason.startswith("correlation not measurable (trend ")
        assert result.reason.endswith(", level 1)")


class TestOneHeldSolution:
    """The loop keeps the best iteration's weights, not its solution."""

    def test_converged_loop_solves_once_per_iteration(self, monkeypatch):
        solves = recorded_solves(monkeypatch)
        result = run(small_system(seed=10, noise=1.5),
                     IterationConfig(trend_target=0.8, level_target=0.7, max_iter=50))
        assert result.converged and result.best_iteration == result.iterations
        assert solves == [(rec.trend_weight, rec.level_weight) for rec in result.trace]

    def test_stopped_loop_solves_its_best_again(self, monkeypatch):
        """`table` at (level 0.3, trend 0.6) is out of reach; stopped by its
        budget after its best iteration, the loop solves once more at the
        best weights, and returns that solve digit for digit.  Each trace
        row is the measurement of its own solve."""
        system = table_system()
        solves = recorded_solves(monkeypatch)
        result = run(system, IterationConfig(trend_target=0.6, level_target=0.3, max_iter=10))
        assert not result.converged and result.reason == "max_iter"
        assert result.best_iteration < result.iterations == 10
        best = result.best
        assert best is result.trace[result.best_iteration - 1]
        weights = (best.trend_weight, best.level_weight)
        assert (result.solution.trend_weight, result.solution.level_weight) == weights
        assert solves == [(rec.trend_weight, rec.level_weight) for rec in result.trace] + [weights]

        expected = solve(system, *weights)
        got = result.solution
        for name in ("estimate", "sigma2", "r2", "data_misfit", "trend_curvature",
                     "level_curvature", "condition"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)
        np.testing.assert_array_equal(got.inverse.chol, expected.inverse.chol)
        np.testing.assert_array_equal(got.inverse.inverse_band, expected.inverse.inverse_band)

        for rec in result.trace:
            corr = adjacent_correlations(solve(system, rec.trend_weight, rec.level_weight))
            assert (rec.trend_smoothness, rec.level_smoothness) == (
                corr.trend_smoothness, corr.level_smoothness)
