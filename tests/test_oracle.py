"""The independent dense reference fit against the production solver."""

import numpy as np
import pytest

from ctrend.design import DesignSystem
from ctrend.domain import build_domain
from ctrend.grid import ObservationalFrame
from ctrend.ingest import SurveyRecord, ingest_records
from ctrend.oracle import MAX_PARAMS, OracleSingular, brute_force_fit
from ctrend.simulate import Scenario, SurveyPlan, linear_trend_scenario, simulate
from ctrend.solve import SingularSystemError, solve


def random_instance(seed):
    """A random partially-covered instance on a grid of at most 8x8 cells."""
    rng = np.random.default_rng(seed)
    n_years = int(rng.integers(3, 8))
    n_ages = int(rng.integers(3, 8))
    frame = ObservationalFrame.from_integer_bounds(
        2000, 2000 + n_years, 40, 40 + n_ages - 1
    )
    surveys = []
    for i in range(n_years):
        if rng.random() < 0.75:  # drop some survey years for partial coverage
            lo = 40 + int(rng.integers(0, max(1, n_ages - 2)))
            hi = int(rng.integers(lo, 40 + n_ages - 1))
            surveys.append(SurveyPlan(2000 + i, lo, hi, int(rng.integers(2, 5)),
                                      start_month=1, duration_months=12))
    if not surveys:
        surveys.append(SurveyPlan(2000, 40, 40 + n_ages - 1, 3, duration_months=12))
    slots = np.arange(frame.cohort_count, dtype=float)
    ii, jj = np.meshgrid(np.arange(frame.year_cells, dtype=float),
                         np.arange(frame.age_cells, dtype=float), indexing="ij")
    scenario = Scenario(
        frame=frame,
        initial_levels=24.0 + 0.1 * slots + 0.3 * np.sin(slots / 3.0),
        trends=0.1 + 0.02 * ii - 0.01 * jj + 0.05 * np.cos(jj),
        surveys=surveys,
        noise_sd=float(rng.uniform(0.5, 3.0)),
        seed=int(seed),
    )
    records = simulate(scenario)
    res = ingest_records(records, frame=frame, cell_min_count=0)
    domain = build_domain(res.cells, frame, mode=1)
    w1 = float(rng.uniform(0.05, 5.0))
    w2 = float(rng.uniform(0.05, 5.0))
    return records, frame, res.cells, domain, w1, w2


class TestOracleEquivalence:
    def test_twenty_seeded_instances(self):
        worst_z, worst_cov = 0.0, 0.0
        for seed in range(20):
            records, frame, cells, domain, w1, w2 = random_instance(seed)
            system = DesignSystem.build(cells, domain)
            if system.n_total <= system.param_count:
                continue  # saturated random instance: no variance to compare
            sol = solve(system, w1, w2)
            oracle = brute_force_fit(records, w1, w2, frame=frame, domain=domain)
            assert oracle.param_count == system.param_count <= 150
            # the oracle's order is the full vector's
            order = np.argsort(domain.compact_to_full())
            dz = np.max(np.abs(sol.estimate[order] - oracle.estimate)) / np.max(
                np.abs(oracle.estimate)
            )
            cov = (sol.sigma2 * np.asarray(sol.inverse))[np.ix_(order, order)]
            dcov = np.max(np.abs(cov - oracle.cov)) / np.max(np.abs(oracle.cov))
            worst_z, worst_cov = max(worst_z, dz), max(worst_cov, dcov)
        assert worst_z < 1e-8
        assert worst_cov < 1e-6

    def test_perfect_data_recovery_matches_forward_model(self):
        scenario = linear_trend_scenario(seed=5, noise_sd=0.0, samples_per_age=2,
                                         n_years=5, n_ages=5)
        records = simulate(scenario)
        oracle = brute_force_fit(records, 1e-8, 1e-8, frame=scenario.frame)
        truth = scenario.model()
        n_slots = oracle.slot_range[1] - oracle.slot_range[0] + 1
        trend_part = oracle.estimate[n_slots:]
        # full-grid oracle: every trend row carries data
        estimated = trend_part.reshape(scenario.frame.year_cells, scenario.frame.age_cells)
        assert np.max(np.abs(estimated - truth.trends)) < 1e-5

    def test_identifiability_witnesses(self):
        good = [
            SurveyRecord(str(k), "S1", 2000.0 + t, 30.0 + k, bmi=24.0 + 0.1 * k)
            for k, t in enumerate([0.1, 0.3, 0.7, 0.8])
        ]
        res = ingest_records(good, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        fit = brute_force_fit(good, 1.0, 1.0, frame=res.frame, domain=domain)
        assert np.all(np.isfinite(fit.estimate))

        bad = [
            SurveyRecord(str(k), "S1", 2000.0 + t, 30.0 + k, bmi=24.0 + 0.1 * k)
            for k, t in enumerate([0.5, 0.5, 0.5, 0.9])
        ]
        res_bad = ingest_records(bad, cell_min_count=0)
        domain_bad = build_domain(res_bad.cells, res_bad.frame)
        with pytest.raises(OracleSingular):
            brute_force_fit(bad, 1.0, 1.0, frame=res_bad.frame, domain=domain_bad)

    def test_agrees_with_production_on_singularity(self):
        bad = [
            SurveyRecord(str(k), "S1", 2000.0 + t, 30.0 + k, bmi=24.0)
            for k, t in enumerate([0.5, 0.5, 0.5, 0.9])
        ]
        res = ingest_records(bad, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        with pytest.raises(SingularSystemError):
            solve(DesignSystem.build(res.cells, domain), 1.0, 1.0)

    def test_parameter_budget_guard(self):
        scenario = linear_trend_scenario(seed=1, noise_sd=0.0, samples_per_age=1,
                                         n_years=15, n_ages=15)
        records = simulate(scenario)
        with pytest.raises(ValueError, match=str(MAX_PARAMS)):
            brute_force_fit(records, 1.0, 1.0, frame=scenario.frame)
