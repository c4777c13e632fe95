"""F-tail probabilities and cluster-level comparisons."""

import dataclasses
import math

import numpy as np
import pytest

from ctrend.domain import AnalysisDomain, build_domain
from ctrend.grid import ObservationalFrame
from ctrend.inference import cluster_compare, f_tails, prob_f
from ctrend.ingest import ingest_records
from ctrend.report import clusters_columns
from ctrend.simulate import linear_trend_scenario, preset, simulate
from ctrend.design import DesignSystem
from ctrend.solve import adjacent_correlations, solve

from conftest import cell_table, make_cell, trend_column
from test_solve import manual_solution


class TestProbF:
    def test_zero_statistic(self):
        assert prob_f(0.0, 1, 10) == 1.0

    def test_f11_median(self):
        assert prob_f(1.0, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_chi_square_limit(self):
        # with huge denominator df, F(1, .) approaches chi-square(1)
        chi1_tail = math.erfc(math.sqrt(3.8415 / 2.0))
        assert prob_f(3.8415, 1, 10**6) == pytest.approx(chi1_tail, abs=1e-3)
        assert prob_f(3.8415, 1, 10**6) == pytest.approx(0.05, abs=1e-3)

    def test_monotone_in_f(self):
        values = [prob_f(f, 2, 17) for f in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            prob_f(-1.0, 1, 10)
        with pytest.raises(ValueError):
            prob_f(1.0, 0, 10)
        for df in (True, np.True_, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="degrees of freedom"):
                prob_f(1.0, 1, df)
        with pytest.raises(ValueError):
            prob_f(math.inf, 1, 10)

    def test_against_high_precision_oracle_spot(self):
        mpmath = pytest.importorskip("mpmath")
        for f, d1, d2 in [(0.5, 1, 7), (3.0, 2, 30), (10.0, 1, 1000)]:
            x = d2 / (d2 + d1 * f)
            expected = float(
                mpmath.betainc(d2 / 2.0, d1 / 2.0, 0.0, x, regularized=True)
            )
            assert prob_f(f, d1, d2) == pytest.approx(expected, abs=1e-12)

    def test_against_scipy_on_a_seeded_grid(self):
        """Within 1e-12 of scipy's ``fdtrc`` for df1 in {1, 2, 5, 2.5}, df2
        from 1 to 1e6, integer and real, and F from 0 to 1e3.  A log-gamma
        prefactor formed as the difference of two ``lgamma`` values was off
        by 5e-10 at df2 = 1e6."""
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1602)
        for df1 in (1, 2, 5, 2.5):
            spread = np.exp(rng.uniform(0.0, math.log(1e6), 30)).round().astype(int)
            for df2 in [*sorted({1, 2, 3, 10**6, *spread.tolist()}), 1.5, 3.3, 59.6, 235.4, 1461.7]:
                f = np.concatenate(
                    [[0.0, 1.0, 1e3], rng.uniform(0.0, 1e3, 12), np.exp(rng.uniform(-9.0, 6.9, 12))]
                )
                tails = f_tails(f, df1, df2)
                assert np.abs(tails - special.fdtrc(df1, df2, f)).max() <= 1e-12, (df1, df2)
                # each tail is its own: the same alone as among the others
                assert [prob_f(float(v), df1, df2) for v in f[:4]] == tails[:4].tolist()


def strip_domain(n_cells):
    frame = ObservationalFrame.from_integer_bounds(0, 1, 0, n_cells - 1)
    mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
    mask[0, :n_cells] = True
    slots = [frame.cohort_slots(0, j) for j in range(n_cells)]
    return AnalysisDomain(frame, mask, min(slots), max(slots))


def strip_solution(means, cov_uu, dof=40):
    domain = strip_domain(len(means))
    p = domain.compact_size
    trend = domain.full_to_compact()[domain.frame.cohort_count :]  # the strip's cells
    est = np.zeros(p)
    est[trend] = means
    cov = np.eye(p) * 1e-4
    cov[np.ix_(trend, trend)] = cov_uu
    return manual_solution(domain, est, cov, dof=dof)


class TestClusterCompare:
    def test_hand_example_f_eight(self):
        sol = strip_solution([0.5, 0.1], np.diag([0.01, 0.01]))
        report = cluster_compare(sol, age_window=1, year_window=1)
        assert report.comparisons.tolist() == [[0, 1]]
        assert report.direction[0] == "age"
        assert report.f_value[0] == pytest.approx(8.0, abs=1e-12)
        assert report.prob[0] == pytest.approx(prob_f(8.0, 1, 40))

    def test_identical_means_give_f_zero(self):
        sol = strip_solution([0.3, 0.3], np.diag([0.02, 0.05]))
        report = cluster_compare(sol, age_window=1, year_window=1)
        assert report.f_value[0] == 0.0
        assert report.prob[0] == 1.0

    def test_degenerate_denominator_marked(self):
        # sigma^2 = 0 makes the denominator zero, and an undefined one NaN
        sol = strip_solution([0.5, 0.1], np.diag([0.01, 0.01]))
        for sigma2 in (0.0, math.nan):
            report = cluster_compare(dataclasses.replace(sol, sigma2=sigma2), age_window=1, year_window=1)
            assert report.degenerate[0]
            assert math.isnan(report.f_value[0])

    def test_cluster_means_average_included_cells_only(self):
        frame = ObservationalFrame.from_integer_bounds(0, 4, 0, 3)
        cells = cell_table([make_cell(frame, i, j, 25.0, offset=0.2) for i, j in
                            [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 2), (3, 3)]])
        domain = build_domain(cells, frame)
        p = domain.compact_size
        rng = np.random.default_rng(1)
        est = rng.normal(0.2, 0.05, p)
        sol = manual_solution(domain, est, np.eye(p) * 1e-4)
        report = cluster_compare(sol, age_window=2, year_window=2)
        assert report.clusters[0].tolist() == [0, 0]
        members = [
            trend_column(domain, i, j) for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]
            if domain.mask[i, j]
        ]
        expected = np.mean([est[m] for m in members])
        assert report.mean[0] == pytest.approx(expected, rel=1e-12)
        assert report.n_cells[0] == len(members)

    def test_block_covariance_via_averaging_map(self):
        scenario = linear_trend_scenario(seed=2, noise_sd=1.0, samples_per_age=3,
                                         n_years=5, n_ages=6)
        records = simulate(scenario)
        res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        system = DesignSystem.build(res.cells, domain)
        sol = solve(system, 1.0, 1.0)
        report = cluster_compare(sol, age_window=2, year_window=2)
        # rebuild the averaging map independently and compare one variance
        blocks = {}
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(domain.mask))):
            blocks.setdefault((i // 2, j // 2), []).append(trend_column(domain, i, j))
        cov = sol.sigma2 * np.asarray(sol.inverse)
        for block, se in zip(report.clusters.tolist(), report.se):
            idx = blocks[tuple(block)]
            a = np.zeros(cov.shape[0])
            a[idx] = 1.0 / len(idx)
            assert se == pytest.approx(math.sqrt(a @ cov @ a), rel=1e-10)

    @pytest.mark.parametrize("name", ["table", "linear"])
    def test_block_covariances_from_the_factor(self, name):
        """The block covariances from one forward solve over the averaging
        map (``sigma^2 V^T V``) equal ``A C A^T`` from the dense covariance
        and an averaging map ``A`` rebuilt cell by cell."""
        scenario = preset(name, seed=0)
        res = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        sol = solve(DesignSystem.build(domain.filter_cells(res.cells)[0], domain), 1.0, 1.0)
        report = cluster_compare(sol, age_window=5, year_window=5)

        members = {}
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(domain.mask))):
            members.setdefault((i // 5, j // 5), []).append(trend_column(domain, i, j))
        averaging = np.zeros((len(report.clusters), domain.compact_size))
        for row, block in enumerate(map(tuple, report.clusters.tolist())):
            averaging[row, members[block]] = 1.0 / len(members[block])
        dense = averaging @ (sol.sigma2 * np.asarray(sol.inverse)) @ averaging.T
        assert len(report.clusters) > 1
        assert np.abs(report.covariance - dense).max() <= 1e-12 * np.abs(dense).max()
        np.testing.assert_allclose(report.se, np.sqrt(np.diag(dense)), rtol=1e-12)

    @pytest.mark.parametrize("k", [0.5, 4.0])
    def test_sigma2_enters_each_covariance_once(self, k):
        """A solution replaced with sigma^2 times ``k`` has its standard
        errors times sqrt(k), its block covariances times ``k`` and its F
        values over ``k``, and the same correlations bit for bit.  (``k`` is
        a power of two, so the scaled products round as the unscaled ones.)"""
        scenario = linear_trend_scenario(seed=2, noise_sd=1.0, samples_per_age=3,
                                         n_years=5, n_ages=6)
        res = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        sol = solve(DesignSystem.build(res.cells, domain), 1.0, 1.0)
        scaled = dataclasses.replace(sol, sigma2=k * sol.sigma2)
        np.testing.assert_allclose(scaled.standard_errors(), math.sqrt(k) * sol.standard_errors(),
                                   rtol=1e-15)
        report, scaled_report = (cluster_compare(s, age_window=2, year_window=2) for s in (sol, scaled))
        assert not report.degenerate.any()
        np.testing.assert_array_equal(scaled_report.covariance, k * report.covariance)
        np.testing.assert_array_equal(scaled_report.f_value, report.f_value / k)
        assert adjacent_correlations(scaled) == adjacent_correlations(sol)

    def test_absolute_labels(self):
        frame = ObservationalFrame.from_integer_bounds(1972, 1981, 25, 34)
        mask = np.ones((frame.year_cells, frame.age_cells), dtype=bool)
        domain = AnalysisDomain(frame, mask, 0, frame.cohort_count - 1)
        p = domain.compact_size
        sol = manual_solution(domain, np.zeros(p), np.eye(p))
        report = cluster_compare(sol, age_window=5, year_window=5)
        assert report.clusters[0].tolist() == [0, 0]
        assert (report.year_start[0], report.year_end[0]) == (1972, 1976)
        assert (report.age_start[0], report.age_end[0]) == (25, 29)

    def test_ci_half_width(self):
        sol = strip_solution([0.5, 0.1], np.diag([0.04, 0.01]))
        report = cluster_compare(sol, age_window=1, year_window=1)
        mean, se, ci_low, ci_high = clusters_columns(report)[4:8]
        assert se[0] == pytest.approx(0.2)
        assert ci_high[0] - mean[0] == pytest.approx(1.96 * 0.2)
        assert mean[0] - ci_low[0] == pytest.approx(1.96 * 0.2)

    def test_window_validation(self):
        sol = strip_solution([0.5, 0.1], np.diag([0.01, 0.01]))
        with pytest.raises(ValueError):
            cluster_compare(sol, age_window=0, year_window=5)
