"""Simulator determinism, noise behaviour, presets, energy conversion."""

import math

import numpy as np
import pytest

from ctrend.grid import ObservationalFrame, SparseRows, predict_observation
from ctrend.ingest import aggregate, ingest_records
from ctrend.simulate import (
    KG_PER_MCAL,
    Scenario,
    SurveyPlan,
    energy_balance_to_trend,
    linear_trend_scenario,
    preset,
    simulate,
    stationary_scenario,
    table_shaped_scenario,
    write_records,
)


class TestDeterminism:
    def test_seed_repeat_identical_records(self):
        a = simulate(stationary_scenario(seed=5, noise_sd=2.0))
        b = simulate(stationary_scenario(seed=5, noise_sd=2.0))
        assert a == b

    def test_different_seed_differs(self):
        a = simulate(stationary_scenario(seed=5, noise_sd=2.0))
        b = simulate(stationary_scenario(seed=6, noise_sd=2.0))
        assert a != b

    def test_byte_identical_file(self, tmp_path):
        records = simulate(linear_trend_scenario(seed=9, noise_sd=1.0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(records, str(p1))
        write_records(simulate(linear_trend_scenario(seed=9, noise_sd=1.0)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_are_scipy_csr_products_bit_for_bit(self, monkeypatch):
        """The exact values are cohort-path rows times the model; with
        scipy's CSR product in place of the rows' own, the records are the
        same, bit for bit."""
        scenario = preset("table", seed=0)
        records = simulate(scenario)
        monkeypatch.setattr(SparseRows, "__matmul__", lambda rows, x: rows.csr @ x)
        assert simulate(scenario) == records

    def test_survey_order_invariance(self):
        base = stationary_scenario(seed=3, noise_sd=1.0)
        reordered = Scenario(
            frame=base.frame,
            initial_levels=base.initial_levels,
            trends=base.trends,
            surveys=list(reversed(base.surveys)),
            noise_sd=base.noise_sd,
            seed=base.seed,
        )
        by_id = {r.subject_id: r for r in simulate(base)}
        for rec in simulate(reordered):
            assert by_id[rec.subject_id] == rec


class TestNoiseModel:
    def test_sigma_zero_equals_prediction_exactly(self):
        scenario = linear_trend_scenario(seed=4, noise_sd=0.0)
        model = scenario.model()
        for rec in simulate(scenario)[::37]:
            assert rec.bmi == predict_observation(model, rec.exam_date, rec.age)

    def test_stationary_means_near_levels(self):
        scenario = stationary_scenario(seed=8, noise_sd=3.0, samples_per_age=30)
        records = simulate(scenario)
        result = aggregate(records, scenario.frame, cell_min_count=0)
        bound = 3 * 3.0 / math.sqrt(30)
        for x_mean in result.cells.x_mean:
            assert abs(x_mean - 25.0) < bound

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_cell_mean_consistency_rate(self, n):
        frame = ObservationalFrame.from_integer_bounds(2000, 2002, 30, 32)
        scenario = Scenario(
            frame=frame,
            initial_levels=np.full(frame.cohort_count, 25.0),
            trends=np.full((frame.year_cells, frame.age_cells), 0.2),
            surveys=[SurveyPlan(2000, 30, 32, n, start_month=1, duration_months=12)],
            noise_sd=2.0,
            seed=13,
        )
        records = simulate(scenario)
        model = scenario.model()
        cells = aggregate(records, frame, cell_min_count=0).cells
        for x_mean, y_mean, a_mean in zip(cells.x_mean, cells.y_mean, cells.a_mean):
            predicted = predict_observation(model, y_mean, a_mean)
            assert abs(x_mean - predicted) < 4 * 2.0 / math.sqrt(n)

    def test_weight_height_consistent_with_value(self):
        for rec in simulate(stationary_scenario(seed=2, noise_sd=1.0))[::53]:
            assert rec.weight / rec.height**2 == pytest.approx(rec.bmi, rel=1e-12)


class TestScheduleValidation:
    def test_outside_frame_rejected(self):
        frame = ObservationalFrame.from_integer_bounds(2000, 2005, 30, 40)
        with pytest.raises(ValueError, match="outside"):
            Scenario(
                frame=frame,
                initial_levels=np.full(frame.cohort_count, 25.0),
                trends=np.zeros((frame.year_cells, frame.age_cells)),
                surveys=[SurveyPlan(2010, 30, 35, 2)],
                seed=0,
            )
        with pytest.raises(ValueError, match="ages"):
            Scenario(
                frame=frame,
                initial_levels=np.full(frame.cohort_count, 25.0),
                trends=np.zeros((frame.year_cells, frame.age_cells)),
                surveys=[SurveyPlan(2001, 30, 60, 2)],
                seed=0,
            )

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SurveyPlan(2000, 30, 35, 0)
        with pytest.raises(ValueError):
            SurveyPlan(2000, 35, 30, 5)
        with pytest.raises(ValueError):
            SurveyPlan(2000, 30, 35, 5, start_month=13)


class TestPresets:
    def test_registry(self):
        assert preset("stationary", seed=1).label == "stationary"
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")

    def test_table_shape(self):
        scenario = table_shaped_scenario(seed=0, noise_sd=0.0, samples_per_age=1)
        years = [p.year for p in scenario.surveys]
        assert years == [1972, 1977, 1982, 1987, 1992, 1997, 2002]
        spans = [p.age_max - p.age_min + 1 for p in scenario.surveys]
        assert spans == [35, 40, 40, 40, 40, 50, 50]
        assert sum(spans) == 295
        assert scenario.surveys[0].start_month == 2  # February start
        assert scenario.surveys[0].duration_months == 8
        assert scenario.surveys[5].duration_months == 6

    def test_table_trend_field_shape(self):
        scenario = table_shaped_scenario()
        trends = scenario.trends
        frame = scenario.frame
        young_late = trends[30, 0]  # 2002, age 25
        young_early = trends[0, 0]  # 1972, age 25
        assert 0.4 <= young_late <= 0.51
        assert young_late / young_early == pytest.approx(2.0, abs=0.25)
        # declining with age at any period
        assert np.all(np.diff(trends[15]) <= 1e-12)

    def test_stationary_fit_gives_flat_trends(self):
        scenario = stationary_scenario(seed=21, noise_sd=0.0)
        records = simulate(scenario)
        from ctrend.design import DesignSystem
        from ctrend.domain import build_domain
        from ctrend.solve import solve

        res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        sol = solve(DesignSystem.build(res.cells, domain), 1e-6, 1e-6)
        assert np.nanmax(np.abs(sol.trend_grid())) < 1e-6


class TestEnergyConversion:
    def test_zero_balance(self):
        assert energy_balance_to_trend(0.0) == 0.0

    def test_constant_value(self):
        assert KG_PER_MCAL == 0.1296
        assert energy_balance_to_trend(1.0) == 0.1296

    def test_unit_consistency_with_fat_energy_density(self):
        # one kg of fat ~ 7716.2 kcal, so kg-per-Mcal times kcal-per-kg ~ 1000
        assert KG_PER_MCAL * 7716.2 == pytest.approx(1000.0, abs=0.2)

    def test_height_adjustment(self):
        weight_trend = energy_balance_to_trend(2.0)
        assert energy_balance_to_trend(2.0, height=1.6) == pytest.approx(
            weight_trend / 1.6**2
        )
        with pytest.raises(ValueError):
            energy_balance_to_trend(1.0, height=0.0)
