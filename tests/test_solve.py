"""Solver, covariance, variance estimate, correlations, singularity handling."""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st
from scipy import sparse

from ctrend.design import DesignSystem, stack
from ctrend.domain import AnalysisDomain, build_domain
from ctrend.grid import CellIndex, ObservationalFrame
from ctrend.ingest import SurveyRecord, ingest_records
from ctrend.oracle import brute_force_fit
from ctrend.simulate import linear_trend_scenario, simulate
from ctrend.solve import (
    ILL_CONDITION,
    BandedCovariance,
    CorrelationSummary,
    DegreesOfFreedomError,
    SingularSystemError,
    Solution,
    adjacent_correlations,
    estimate_sigma2,
    r_squared,
    solve,
)

from conftest import make_cell


def fitted_instance(seed=9, noise=1.5, n_years=5, n_ages=6, w1=0.7, w2=1.3, samples=3):
    scenario = linear_trend_scenario(
        seed=seed, noise_sd=noise, samples_per_age=samples, n_years=n_years, n_ages=n_ages
    )
    records = simulate(scenario)
    res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
    domain = build_domain(res.cells, res.frame, mode=1)
    system = DesignSystem.build(res.cells, domain)
    return scenario, records, system, solve(system, w1, w2)


class TestSolve:
    def test_noise_free_interpolation(self):
        scenario, _, system, sol = fitted_instance(seed=3, noise=0.0, w1=1e-8, w2=1e-8)
        truth = scenario.model()
        assert np.nanmax(np.abs(sol.trend_grid() - truth.trends)) < 1e-6
        v0 = sol.boundary_levels()
        mask = ~np.isnan(v0)
        assert np.max(np.abs(v0[mask] - truth.initial_levels[mask])) < 1e-6

    def test_matches_dense_oracle(self):
        scenario, records, system, sol = fitted_instance()
        oracle = brute_force_fit(
            records, 0.7, 1.3, frame=scenario.frame, domain=system.domain
        )
        scale = np.max(np.abs(oracle.estimate))
        assert np.max(np.abs(sol.estimate - oracle.estimate)) / scale < 1e-8
        cscale = np.max(np.abs(oracle.cov))
        assert np.max(np.abs(sol.cov - oracle.cov)) / cscale < 1e-6
        assert sol.sigma2 == pytest.approx(oracle.sigma2, rel=1e-10)
        assert sol.r2 == pytest.approx(oracle.r2, rel=1e-10)

    def test_sigma2_matches_lstsq_path(self):
        # independent least-squares route on the same weighted stacked system
        _, _, system, sol = fitted_instance(seed=21, n_years=4, n_ages=5)
        stacked = stack(system, 0.7, 1.3)
        sw = np.sqrt(stacked.row_weights)
        dense = stacked.matrix.toarray() * sw[:, None]
        z, *_ = np.linalg.lstsq(dense, sw * stacked.target, rcond=None)
        rss = float(np.sum((dense @ z - sw * stacked.target) ** 2))
        dof = stacked.n_total - stacked.param_count
        assert sol.sigma2 == pytest.approx(rss / dof, rel=1e-9)

    def test_monotone_trend_curvature_in_weight(self):
        _, _, system, _ = fitted_instance(seed=5, noise=2.0)
        values = []
        for w1 in [0.01, 0.1, 1.0, 10.0, 100.0]:
            sol = solve(system, w1, 1.0)
            values.append(sol.trend_curvature)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_ill_conditioned_warns_but_solves(self):
        _, _, system, _ = fitted_instance(seed=3, noise=0.0)
        sol = solve(system, 3e-12, 3e-12)
        assert sol.condition > 1e12
        assert any("ill-conditioned" in w for w in sol.warnings)

    def test_underdetermined_raises(self):
        frame = ObservationalFrame.from_integer_bounds(0, 3, 0, 3)
        cells = [make_cell(frame, 2, 3, 25.0, offset=0.5)]
        domain = build_domain(cells, frame)
        system = DesignSystem.build(cells, domain)
        with pytest.raises(SingularSystemError, match="straight line"):
            solve(system, 1.0, 1.0)


def four_point_system(offsets):
    records = [
        SurveyRecord(str(k), "S1", 2000.0 + t, 30.0 + k, bmi=24.0 + 0.1 * k)
        for k, t in enumerate(offsets)
    ]
    res = ingest_records(records, cell_min_count=0)
    domain = build_domain(res.cells, res.frame, mode=1)
    return DesignSystem.build(res.cells, domain)


def no_three_collinear(points):
    from itertools import combinations

    for (x1, y1), (x2, y2), (x3, y3) in combinations(points, 3):
        if abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) < 1e-12:
            return False
    return True


class TestIdentifiability:
    GOOD = [0.1, 0.3, 0.7, 0.8]
    BAD = [0.5, 0.5, 0.5, 0.9]  # three points share an exam date: collinear

    def test_good_configuration_unique(self):
        assert no_three_collinear([(t, 30.0 + k) for k, t in enumerate(self.GOOD)])
        system = four_point_system(self.GOOD)
        sol = solve(system, 1.0, 1.0)
        resid = system.data_matrix @ sol.estimate - system.target
        assert np.max(np.abs(resid)) < 1e-9  # saturated: interpolates the data
        assert math.isfinite(sol.condition)

    def test_collinear_configuration_singular(self):
        points = [(t, 30.0 + k) for k, t in enumerate(self.BAD)]
        assert not no_three_collinear(points)
        system = four_point_system(self.BAD)
        with pytest.raises(SingularSystemError):
            solve(system, 1.0, 1.0)


class TestEstimateSigma2:
    def test_zero_residual(self):
        assert estimate_sigma2(0.0, 10, 4) == 0.0

    def test_hand_arithmetic(self):
        # residual vector (1, -1) with two residual degrees of freedom
        assert estimate_sigma2(2.0, 4, 2) == 1.0

    def test_nonpositive_dof(self):
        with pytest.raises(DegreesOfFreedomError):
            estimate_sigma2(1.0, 3, 3)


class TestRSquared:
    def test_perfect_fit(self):
        scenario, _, system, sol = fitted_instance(seed=3, noise=0.0, w1=1e-9, w2=1e-9)
        assert sol.r2 == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_baseline(self):
        _, _, system, _ = fitted_instance(seed=7, noise=1.0)
        # center the targets, then the zero vector explains nothing
        system.target -= system.target.mean()
        assert r_squared(np.zeros(system.param_count), system) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_targets(self):
        _, _, system, _ = fitted_instance(seed=7)
        system.target[:] = 25.0
        assert r_squared(np.zeros(system.param_count), system) is None


def manual_solution(domain, estimate, cov, dof=50):
    return Solution(
        domain=domain,
        trend_weight=1.0,
        level_weight=1.0,
        estimate=np.asarray(estimate, dtype=float),
        cov=np.asarray(cov, dtype=float),
        sigma2=1.0,
        r2=None,
        data_misfit=0.0,
        trend_curvature=0.0,
        level_curvature=0.0,
        n_rows=(len(estimate), 0, 0),
        dof=dof,
        condition=1.0,
    )


def two_cell_domain():
    frame = ObservationalFrame.from_integer_bounds(0, 1, 0, 1)
    mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
    mask[0, 0] = mask[0, 1] = True
    slots = [frame.cohort_slot(CellIndex(0, 0)), frame.cohort_slot(CellIndex(0, 1))]
    return AnalysisDomain(frame, mask, min(slots), max(slots))


class TestAdjacentCorrelations:
    def test_diagonal_covariance_gives_zero(self):
        domain = two_cell_domain()
        p = domain.compact_size
        sol = manual_solution(domain, np.zeros(p), np.eye(p))
        corr = adjacent_correlations(sol)
        assert corr.trend_smoothness == 0.0
        assert corr.level_smoothness == 0.0

    def test_single_link_value(self):
        domain = two_cell_domain()
        p = domain.compact_size  # 2 slots + 2 trend cells
        cov = np.eye(p)
        s = domain.slot_count
        cov[s, s + 1] = cov[s + 1, s] = 0.9
        sol = manual_solution(domain, np.zeros(p), cov)
        corr = adjacent_correlations(sol)
        assert corr.trend_smoothness == pytest.approx(0.9)
        assert corr.n_trend_links == 1

    def test_zero_variance_links_skipped(self):
        domain = two_cell_domain()
        p = domain.compact_size
        cov = np.eye(p)
        s = domain.slot_count
        cov[s + 1, s + 1] = 0.0
        sol = manual_solution(domain, np.zeros(p), cov)
        corr = adjacent_correlations(sol)
        assert math.isnan(corr.trend_smoothness)
        assert corr.n_skipped_trend == 1

    def test_matches_oracle_covariance(self):
        scenario, records, system, sol = fitted_instance(seed=13, n_years=4, n_ages=4)
        oracle = brute_force_fit(records, 0.7, 1.3, frame=scenario.frame, domain=system.domain)
        corr = adjacent_correlations(sol)
        domain = system.domain
        cov = oracle.cov
        links = []
        mask = domain.mask
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if not mask[i, j]:
                    continue
                a = domain.trend_index_at(i, j)
                if j + 1 < mask.shape[1] and mask[i, j + 1]:
                    links.append((a, domain.trend_index_at(i, j + 1)))
                if i + 1 < mask.shape[0] and mask[i + 1, j]:
                    links.append((a, domain.trend_index_at(i + 1, j)))
        expected = np.mean(
            [cov[a, b] / math.sqrt(cov[a, a] * cov[b, b]) for a, b in links]
        )
        assert corr.trend_smoothness == pytest.approx(expected, rel=1e-8)

    def test_literal_denominator_switch(self):
        domain = two_cell_domain()
        p = domain.compact_size
        cov = np.eye(p)
        cov[0, 1] = cov[1, 0] = 0.5
        sol = manual_solution(domain, np.zeros(p), cov)
        default = adjacent_correlations(sol)
        literal = adjacent_correlations(sol, literal_level_denominator=True)
        assert default.level_smoothness == pytest.approx(0.5)  # one link, one term
        assert literal.level_smoothness == pytest.approx(0.25)  # divided by slot count


class TestScatteredViews:
    def test_full_corr_missing_pattern(self, simple_domain):
        domain, frame = simple_domain
        p = domain.compact_size
        rng = np.random.default_rng(4)
        a = rng.normal(size=(p, 2 * p))
        sol = manual_solution(domain, rng.normal(size=p), a @ a.T / p)
        corr = sol.full_corr()
        participating = domain.compact_to_full()
        outside = np.setdiff1d(np.arange(frame.param_count), participating)
        assert not np.isnan(corr[np.ix_(participating, participating)]).any()
        assert np.isnan(corr[outside, :]).all()
        assert np.isnan(corr[:, outside]).all()
        on = corr[np.ix_(participating, participating)]
        assert np.allclose(np.diag(on), 1.0)

    def test_covariance_psd(self):
        _, _, _, sol = fitted_instance(seed=17)
        eig = np.linalg.eigvalsh(sol.cov)
        assert eig.min() >= -1e-8 * np.trace(sol.cov)

    def test_trend_se_grid_shape(self):
        _, _, system, sol = fitted_instance(seed=17)
        frame = system.domain.frame
        se = sol.trend_se_grid()
        assert se.shape == (frame.year_cells, frame.age_cells)
        assert np.isnan(se[~system.domain.mask]).all()
        assert np.all(se[system.domain.mask] >= 0)


def random_design(shape, data, generic=False):
    """A design over a random gappy domain (or a one-row, one-column or tiny
    one), with data on every cell whose cohort path stays in the domain.

    ``generic`` fills most cells and draws each data cell's value and
    within-cell year offset, so that most systems are identifiable and
    their estimates depend on the smoothing weights.
    """
    top = 2 if shape == "tiny" else 7
    ni = 1 if shape == "one row" else data.draw(st.integers(1, top))
    nj = data.draw(st.integers(2, top))  # a frame spans at least two ages
    frame = ObservationalFrame.from_integer_bounds(0, ni, 0, nj - 1)
    filled = st.integers(0, 9).map(bool) if generic else st.booleans()
    flags = data.draw(st.lists(filled, min_size=ni * nj, max_size=ni * nj))
    mask = np.array(flags).reshape(ni, nj)
    if shape == "one column":
        mask[:, np.arange(nj) != data.draw(st.integers(0, nj - 1))] = False
    assume(mask.any())
    ii, jj = np.nonzero(mask)
    slots = frame.year_cells - ii + jj
    domain = AnalysisDomain(frame, mask, int(slots.min()), int(slots.max()))
    # Data on every cell whose cohort path stays inside the domain.
    cells = [
        make_cell(frame, i, j, x_mean=float(25 + i - j), offset=0.3)
        if not generic
        else make_cell(
            frame, i, j, x_mean=data.draw(st.floats(20.0, 30.0)), offset=data.draw(st.floats(0.05, 0.95))
        )
        for i, j in zip(ii, jj)
        if all(mask[i - m, j - m] for m in range(1, min(i, j) + 1))
    ]
    return DesignSystem.build(cells, domain)


SHAPES = st.sampled_from(["any", "one row", "one column", "tiny"])


class TestBandedCovariance:
    @pytest.mark.filterwarnings("ignore:boundary-level segment")
    @given(
        shape=SHAPES,
        weights=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
        data=st.data(),
    )
    def test_selected_inverse_matches_dense_inverse(self, shape, weights, data):
        """On random gappy domains every band entry equals the dense inverse,
        every adjacent pair lies in the band, and entries outside it raise."""
        system = random_design(shape, data)
        domain = system.domain
        stacked = stack(system, *weights)
        a = stacked.matrix
        normal = a.T @ a.multiply(stacked.row_weights[:, None]).tocsr()
        normal = normal + sparse.identity(domain.compact_size)  # positive definite on any domain
        dense = np.linalg.inv(normal.toarray())
        cov = BandedCovariance(normal, system.order, system.bandwidth)

        position = np.argsort(system.order)
        distance = np.abs(position[:, None] - position[None, :])
        rows, cols = normal.nonzero()
        assert distance[rows, cols].max(initial=0) <= system.bandwidth
        scale = np.abs(dense).max()
        r, c = np.nonzero(distance <= system.bandwidth)
        np.testing.assert_allclose(cov[r, c], dense[r, c], rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(cov.diagonal(), np.diag(dense), rtol=1e-10)
        x = np.arange(domain.compact_size, dtype=float)
        np.testing.assert_allclose(
            cov.scaled(2.0) @ x, 2.0 * dense @ x, rtol=1e-10, atol=1e-10 * scale * x.sum()
        )
        np.testing.assert_allclose(np.asarray(cov), dense, rtol=1e-10, atol=1e-10 * scale)

        pairs = np.concatenate([*domain.runs(2), domain.slot_runs(2)])
        assert np.all(distance[pairs[:, 0], pairs[:, 1]] <= system.bandwidth)
        cov[pairs[:, 0], pairs[:, 1]]  # inside the band: no IndexError
        r, c = np.nonzero(distance > system.bandwidth)
        if r.size:
            with pytest.raises(IndexError, match="outside the band"):
                cov[r[0], c[0]]
            with pytest.raises(IndexError, match="outside the band"):
                cov[np.append(pairs[:, 0], r[-1]), np.append(pairs[:, 1], c[-1])]

    @pytest.mark.filterwarnings("ignore:boundary-level segment")
    @given(
        shape=SHAPES,
        weights=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
        data=st.data(),
    )
    def test_assembled_band_matches_stacked_normal(self, shape, weights, data):
        """The three precomputed bands, weighted and added, are the lower band
        of the stacked system's normal matrix, and ``solve`` on them satisfies
        that system's normal equations, or refuses only an ill-conditioned one."""
        system = random_design(shape, data, generic=True)
        stacked = stack(system, *weights)
        a = stacked.matrix.toarray()
        normal = a.T @ (stacked.row_weights[:, None] * a)
        rhs = a.T @ (stacked.row_weights * stacked.target)

        permuted = normal[np.ix_(system.order, system.order)]
        p, b = system.param_count, system.bandwidth
        expected = np.zeros((b + 1, p))
        for d in range(min(b + 1, p)):
            expected[d, : p - d] = np.diagonal(permuted, -d)
        b0, b1, b2 = system.bands
        band = b0 + weights[0] * b1 + weights[1] * b2
        np.testing.assert_allclose(band, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

        try:
            z = solve(system, *weights).estimate
        except SingularSystemError:
            event("singular")
            assert np.linalg.cond(normal, 1) > ILL_CONDITION
            return
        event("solved")
        residual = np.abs(normal @ z - rhs).max()
        scale = np.abs(normal).sum(axis=1).max() * np.abs(z).max() + np.abs(rhs).max()
        assert residual <= 1e-10 * scale
