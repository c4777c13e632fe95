"""Solver, covariance, variance estimate, correlations, singularity handling."""

import ctypes
import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy import sparse

from ctrend import iterate
from ctrend.design import DesignSystem, band_one_norm, stack, weighted_sum
from ctrend.domain import AnalysisDomain, build_domain
from ctrend.grid import ObservationalFrame
from ctrend.ingest import SurveyRecord, ingest_records
from ctrend.oracle import brute_force_fit
from ctrend.pipeline import FitOptions
from ctrend.simulate import linear_trend_scenario, preset, simulate
from ctrend.solve import (
    ILL_CONDITION,
    BandedCovariance,
    CorrelationSummary,
    LapackUnavailableError,
    SingularSystemError,
    Solution,
    _r_squared,
    adjacent_correlations,
    solve,
)

from conftest import cell_table, lower_band, make_cell, trend_column

solve_module = importlib.import_module("ctrend.solve")  # the package exports a function of that name


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
        order = np.argsort(system.domain.compact_to_full())  # the oracle's order
        scale = np.max(np.abs(oracle.estimate))
        assert np.max(np.abs(sol.estimate[order] - oracle.estimate)) / scale < 1e-8
        cscale = np.max(np.abs(oracle.cov))
        cov = (sol.sigma2 * np.asarray(sol.inverse))[np.ix_(order, order)]
        assert np.max(np.abs(cov - oracle.cov)) / cscale < 1e-6
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
        cells = make_cell(frame, 2, 3, 25.0, offset=0.5)
        domain = build_domain(cells, frame)
        system = DesignSystem.build(cells, domain)
        with pytest.raises(SingularSystemError, match="straight line"):
            solve(system, 1.0, 1.0)

    def test_numerically_singular_system_raises_without_a_warning(self):
        """With the data rows of boundary slot 3 taken out of G0, only the
        level penalty identifies the slot; at a subnormal level weight the
        selected inverse overflows.  The solve refuses the system, with no
        numpy warning, instead of reporting a small condition number that
        the estimate's comparisons made from NaN."""
        scenario = linear_trend_scenario(seed=1, noise_sd=1.0)
        res = ingest_records(simulate(scenario), frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, scenario.frame)
        system = DesignSystem.build(res.cells, domain)
        bands = system.bands.copy()
        k = domain.full_to_compact()[3]
        for d in range(system.bandwidth + 1):
            bands[0, d, k] = 0.0  # G0 at (k + d, k): column k
            if d <= k:
                bands[0, d, k - d] = 0.0  # G0 at (k, k - d): row k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="not finite"):
                solve(dataclasses.replace(system, bands=bands), 1.0, 2.2250738585e-313)


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


class TestRSquared:
    def test_perfect_fit(self):
        scenario, _, system, sol = fitted_instance(seed=3, noise=0.0, w1=1e-9, w2=1e-9)
        assert sol.r2 == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_baseline(self):
        _, _, system, _ = fitted_instance(seed=7, noise=1.0)
        # center the targets, then the zero vector explains nothing
        system.target -= system.target.mean()
        resid = system.data_matrix @ np.zeros(system.param_count) - system.target
        assert _r_squared(resid, system.target) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_targets(self):
        _, _, system, _ = fitted_instance(seed=7)
        system.target[:] = 25.0
        resid = system.data_matrix @ np.zeros(system.param_count) - system.target
        assert _r_squared(resid, system.target) is None


def manual_solution(domain, estimate, cov, dof=50):
    """A solution with sigma^2 = 1 whose covariance is the positive definite
    ``cov``: its inverse is that of the normal matrix ``inv(cov)``, held
    on the full band."""
    normal = np.linalg.inv(np.asarray(cov, dtype=float))
    return Solution(
        domain=domain,
        trend_weight=1.0,
        level_weight=1.0,
        estimate=np.asarray(estimate, dtype=float),
        inverse=BandedCovariance(lower_band(normal, len(normal) - 1)),
        sigma2=1.0,
        r2=None,
        data_misfit=0.0,
        trend_curvature=0.0,
        level_curvature=0.0,
        dof=dof,
        condition=1.0,
    )


def two_cell_domain():
    frame = ObservationalFrame.from_integer_bounds(0, 1, 0, 1)
    mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
    mask[0, 0] = mask[0, 1] = True
    slots = [frame.cohort_slots(0, 0), frame.cohort_slots(0, 1)]
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
        a, b = domain.full_to_compact()[domain.frame.cohort_count :]
        cov[a, b] = cov[b, a] = 0.9
        sol = manual_solution(domain, np.zeros(p), cov)
        corr = adjacent_correlations(sol)
        assert corr.trend_smoothness == pytest.approx(0.9)
        assert corr.n_trend_links == 1

    def test_zero_variance_links_skipped(self):
        # sigma^2 = 0: every variance sigma^2 N^-1_ii is zero
        domain = two_cell_domain()
        p = domain.compact_size
        sol = dataclasses.replace(manual_solution(domain, np.zeros(p), np.eye(p)), sigma2=0.0)
        corr = adjacent_correlations(sol)
        assert math.isnan(corr.trend_smoothness)
        assert corr.n_skipped_trend == 1

    def test_matches_oracle_covariance(self):
        scenario, records, system, sol = fitted_instance(seed=13, n_years=4, n_ages=4)
        oracle = brute_force_fit(records, 0.7, 1.3, frame=scenario.frame, domain=system.domain)
        corr = adjacent_correlations(sol)
        domain = system.domain
        rank = np.argsort(np.argsort(domain.compact_to_full()))  # from the oracle's order
        cov = oracle.cov[np.ix_(rank, rank)]
        links = []
        mask = domain.mask
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if not mask[i, j]:
                    continue
                a = trend_column(domain, i, j)
                if j + 1 < mask.shape[1] and mask[i, j + 1]:
                    links.append((a, trend_column(domain, i, j + 1)))
                if i + 1 < mask.shape[0] and mask[i + 1, j]:
                    links.append((a, trend_column(domain, i + 1, j)))
        expected = np.mean(
            [cov[a, b] / math.sqrt(cov[a, a] * cov[b, b]) for a, b in links]
        )
        assert corr.trend_smoothness == pytest.approx(expected, rel=1e-8)

    def test_independent_of_sigma2(self):
        """sigma^2 cancels from a correlation: the same inverse at another
        scale gives the same correlations bit for bit, and an undefined
        sigma^2 leaves them undefined."""
        _, _, _, sol = fitted_instance(seed=13, n_years=4, n_ages=4)
        corr = adjacent_correlations(sol)
        for sigma2 in (1.0, 2.5, 1e-7):
            assert adjacent_correlations(dataclasses.replace(sol, sigma2=sigma2)) == corr
        undefined = adjacent_correlations(dataclasses.replace(sol, sigma2=math.nan))
        assert math.isnan(undefined.trend_smoothness) and math.isnan(undefined.level_smoothness)
        assert (undefined.n_trend_links, undefined.n_level_links) == (corr.n_trend_links, corr.n_level_links)
        assert (undefined.n_skipped_trend, undefined.n_skipped_level) == (
            corr.n_skipped_trend, corr.n_skipped_level)

    def test_literal_denominator_switch(self):
        domain = two_cell_domain()
        p = domain.compact_size
        cov = np.eye(p)
        a, b = domain.slot_runs(2)[0]  # the two slots
        cov[a, b] = cov[b, a] = 0.5
        sol = manual_solution(domain, np.zeros(p), cov)
        default = adjacent_correlations(sol)
        literal = adjacent_correlations(sol, literal_level_denominator=True)
        assert default.level_smoothness == pytest.approx(0.5)  # one link, one term
        assert literal.level_smoothness == pytest.approx(0.25)  # divided by slot count


class TestScatteredViews:
    def test_covariance_psd(self):
        _, _, _, sol = fitted_instance(seed=17)
        cov = sol.sigma2 * np.asarray(sol.inverse)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-8 * np.trace(cov)

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
    cells = cell_table([
        make_cell(frame, i, j, x_mean=float(25 + i - j), offset=0.3)
        if not generic
        else make_cell(
            frame, i, j, x_mean=data.draw(st.floats(20.0, 30.0)), offset=data.draw(st.floats(0.05, 0.95))
        )
        for i, j in zip(ii, jj)
        if all(mask[i - m, j - m] for m in range(1, min(i, j) + 1))
    ])
    return DesignSystem.build(cells, domain)


SHAPES = st.sampled_from(["any", "one row", "one column", "tiny"])


class TestBandedCovariance:
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
        cov = BandedCovariance(lower_band(normal.toarray(), system.bandwidth))

        index = np.arange(domain.compact_size)
        distance = np.abs(index[:, None] - index[None, :])
        rows, cols = normal.nonzero()
        assert distance[rows, cols].max(initial=0) <= system.bandwidth
        scale = np.abs(dense).max()
        r, c = np.nonzero(distance <= system.bandwidth)
        np.testing.assert_allclose(cov[r, c], dense[r, c], rtol=1e-10, atol=1e-10 * scale)
        cov.diagonal()[:] = 0.0  # a copy: the band keeps its variances
        np.testing.assert_allclose(cov.diagonal(), np.diag(dense), rtol=1e-10)
        x = np.arange(domain.compact_size, dtype=float)
        np.testing.assert_allclose(
            cov @ x, dense @ x, rtol=1e-10, atol=1e-10 * scale * x.sum()
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

    @given(
        shape=SHAPES,
        weights=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
        data=st.data(),
    )
    def test_assembled_band_matches_stacked_normal(self, shape, weights, data):
        """The three precomputed bands, weighted and added, are the lower band
        of the stacked system's normal matrix, as is the solver's band sum,
        bit for bit the hand-written one; the row blocks apply that matrix,
        and ``solve`` on them satisfies that system's normal equations, or
        refuses only an ill-conditioned one."""
        system = random_design(shape, data, generic=True)
        stacked = stack(system, *weights)
        a = stacked.matrix.toarray()
        normal = a.T @ (stacked.row_weights[:, None] * a)
        rhs = a.T @ (stacked.row_weights * stacked.target)

        p, b = system.param_count, system.bandwidth
        expected = np.zeros((b + 1, p))
        for d in range(min(b + 1, p)):
            expected[d, : p - d] = np.diagonal(normal, -d)
        b0, b1, b2 = system.bands
        band = b0 + weights[0] * b1 + weights[1] * b2
        np.testing.assert_allclose(band, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        summed = weighted_sum(system.bands, weights)
        np.testing.assert_allclose(summed, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        np.testing.assert_array_equal(summed, band)
        x = np.linspace(-1.0, 1.0, p)
        np.testing.assert_allclose(
            system.normal_product(x, *weights), normal @ x,
            rtol=1e-12, atol=1e-12 * np.abs(normal).sum(axis=1).max(),
        )

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

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (np.array([0, -1]), np.array([1, 0]))])
    def test_negative_index_raises(self, key):
        """A negative index would read another column's band entry, so it is
        refused, as a pair outside the band is."""
        cov = BandedCovariance(spd_band(np.random.default_rng(5), 6, 2))
        with pytest.raises(IndexError, match="negative index"):
            cov[key]


def spd_band(rng, p, b):
    """The lower band (LAPACK storage) of a random symmetric positive
    definite matrix of order ``p`` and half-bandwidth ``b``."""
    band = rng.uniform(-1.0, 1.0, size=(b + 1, p))
    band[0] = 2.0 * (b + 1) + rng.uniform(0.0, 1.0, size=p)  # diagonally dominant
    for d in range(1, b + 1):
        band[d, p - d :] = 0.0  # past the last column
    return band


def assert_same_digits(actual, expected):
    """Equal up to rounding: two OpenBLAS builds (numpy's wheel and scipy's
    bundle their own) may order a sum differently.  On these bands they
    agreed bit for bit, but on a band of half-bandwidth 124 the factors of
    two builds were seen to differ in their last digits."""
    scale = max(np.abs(expected).max(initial=0.0), np.finfo(float).tiny)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-13 * scale)


class TestLapackBinding:
    """The LAPACK routines bound from the library numpy is linked to,
    against the same routines in ``scipy.linalg.lapack``."""

    @pytest.fixture()
    def bound(self):
        lapack = solve_module._bind_lapack()
        if isinstance(lapack, solve_module._ScipyLapack):
            pytest.skip("numpy's BLAS exports none of the LAPACK names")
        return lapack

    # b = 0 (a diagonal matrix), p = 1, p < b + 1, and p not a multiple of
    # b, so the selected inverse pads its last block
    SHAPES = [(1, 0), (9, 0), (1, 3), (4, 6), (23, 5), (64, 16), (1395, 64)]

    @pytest.mark.parametrize("p, b", SHAPES)
    def test_routines_match_scipy(self, bound, p, b):
        from scipy.linalg import lapack

        rng = np.random.default_rng(p * 100 + b)
        band = spd_band(rng, p, b)
        factor = np.array(band, order="F")
        assert bound.pbtrf(factor) == 0
        expected, info = lapack.dpbtrf(band, lower=1)
        assert info == 0
        assert_same_digits(factor, expected)

        for rhs in (rng.normal(size=p), rng.normal(size=(p, 3))):
            solved = np.array(rhs, order="F")
            assert bound.pbtrs(factor, solved) == 0
            expected, info = lapack.dpbtrs(factor, rhs, lower=1)
            assert info == 0
            assert_same_digits(solved, expected.reshape(rhs.shape))

        upper = np.triu(rng.normal(size=(max(b, 1),) * 2)) + 4.0 * np.eye(max(b, 1))
        inverse = np.array(upper, order="F")
        assert bound.trtri(inverse) == 0
        expected, info = lapack.dtrtri(upper, lower=0)
        assert info == 0
        assert_same_digits(inverse, expected)

    @pytest.mark.parametrize("p, b", SHAPES)
    @pytest.mark.parametrize("binding", ["bound", "fallback"])
    def test_forward_solve_matches_scipy(self, bound, binding, p, b):
        """``tbtrs`` solves with the lower band factor, one or several
        right-hand sides, under either binding."""
        from scipy.linalg import lapack

        rng = np.random.default_rng(p * 100 + b + 2)
        factor = np.array(spd_band(rng, p, b), order="F")
        assert bound.pbtrf(factor) == 0
        ours = bound if binding == "bound" else solve_module._ScipyLapack()
        for rhs in (rng.normal(size=p), rng.normal(size=(p, 3))):
            solved = np.array(rhs, order="F")
            assert ours.tbtrs(factor, solved) == 0
            expected, info = lapack.dtbtrs(factor, rhs.reshape(p, -1), uplo="L")
            assert info == 0
            assert_same_digits(solved, expected.reshape(rhs.shape))

    @pytest.mark.parametrize("p, b", SHAPES)
    def test_covariance_same_under_either_binding(self, bound, p, b, monkeypatch):
        """Factor, every in-band entry of the selected inverse (with its
        padded last block) and solves."""
        rng = np.random.default_rng(p * 100 + b + 1)
        band = spd_band(rng, p, b)
        x = rng.normal(size=(p, 2))
        covs = []
        for lapack in (bound, solve_module._ScipyLapack()):
            monkeypatch.setattr(solve_module, "_lapack", lambda lapack=lapack: lapack)
            covs.append(BandedCovariance(band.copy()))
        ours, theirs = covs
        assert_same_digits(ours.chol, theirs.chol)
        rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(p), np.arange(p))) <= b)
        assert_same_digits(ours[rows, cols], theirs[rows, cols])  # every in-band pair
        assert_same_digits(ours.diagonal(), theirs.diagonal())
        assert_same_digits(ours @ x, theirs @ x)
        assert_same_digits(ours @ x[:, 0], theirs @ x[:, 0])

    @pytest.mark.parametrize("p, b", SHAPES)
    def test_map_covariance_same_under_either_binding(self, bound, p, b, monkeypatch):
        """The covariance of a sparse map from the forward solve, against
        the dense ``A N^-1 A^T`` too."""
        rng = np.random.default_rng(p * 100 + b + 3)
        band = spd_band(rng, p, b)
        rows, columns = rng.integers(0, 3, size=2 * p), rng.integers(0, p, size=2 * p)
        rows, columns = np.unique(np.stack([rows, columns]), axis=1)
        values = rng.uniform(0.1, 1.0, size=rows.size)
        covs = []
        for lapack in (bound, solve_module._ScipyLapack()):
            monkeypatch.setattr(solve_module, "_lapack", lambda lapack=lapack: lapack)
            covs.append(BandedCovariance(band.copy()))
            covs.append(covs[-1].map_covariance(rows, columns, values, 3))
        ours, ours_map, theirs, theirs_map = covs
        assert_same_digits(ours_map, theirs_map)
        dense = np.zeros((3, p))
        dense[rows, columns] = values
        assert_same_digits(ours_map, dense @ np.asarray(ours) @ dense.T)

    def test_extension_finds_the_bundled_routines(self, bound, monkeypatch):
        """Looked up through numpy's linear-algebra extension, the names
        resolve to the very functions of the OpenBLAS in numpy's wheel."""
        if not solve_module._bundled_openblas("numpy"):
            pytest.skip("numpy's wheel bundles no OpenBLAS")
        monkeypatch.setattr(solve_module, "_bundled_openblas", lambda package: [])
        through_extension = solve_module._bind_lapack()

        def addresses(lapack):
            routines = (lapack._pbtrf, lapack._pbtrs, lapack._trtri)
            return [ctypes.cast(routine, ctypes.c_void_p).value for routine in routines]

        assert addresses(through_extension) == addresses(bound)

    def test_no_exported_name_falls_back_to_scipy(self, monkeypatch):
        _, _, system, bound_solution = fitted_instance()
        monkeypatch.setattr(solve_module, "_LAPACK_SYMBOLS", (("no_such_{}_", ctypes.c_int64),))
        lapack = solve_module._bind_lapack()
        assert isinstance(lapack, solve_module._ScipyLapack)
        monkeypatch.setattr(solve_module, "_lapack", lambda: lapack)
        fallback = solve(system, 0.7, 1.3)
        assert_same_digits(fallback.estimate, bound_solution.estimate)
        assert_same_digits(fallback.inverse.diagonal(), bound_solution.inverse.diagonal())
        assert fallback.condition == pytest.approx(bound_solution.condition, rel=1e-12)

    def test_no_exported_name_and_no_scipy_names_the_remedy(self, no_lapack):
        with pytest.raises(
            LapackUnavailableError,
            match=r"^numpy's BLAS exports none of the LAPACK routines dpbtrf, dpbtrs, dtrtri .*"
            r"install scipy \(pip install scipy\)$",
        ):
            solve_module._bind_lapack()

    def test_no_lapack_message_names_every_routine(self, no_lapack):
        with pytest.raises(LapackUnavailableError) as raised:
            solve_module._bind_lapack()
        assert "routines dpbtrf, dpbtrs, dtrtri and dtbtrs under a known name" in str(raised.value)

    @pytest.mark.parametrize("binding", ["bound", "fallback"])
    def test_band_not_positive_definite_is_singular(self, binding, monkeypatch):
        if binding == "fallback":
            monkeypatch.setattr(solve_module, "_lapack", solve_module._ScipyLapack)
        system = four_point_system(TestIdentifiability.GOOD)
        negated = dataclasses.replace(system, bands=-system.bands)
        with pytest.raises(
            SingularSystemError,
            match=r"^1-th leading minor not positive definite; the stacked system is singular",
        ):
            solve(negated, 1.0, 1.0)


def summed_band_one_norm(band):
    """The 1-norm of the symmetric matrix whose lower band is ``band``,
    column sums added in the solver's order, from a full array of moduli."""
    moduli = np.abs(band)
    sums = moduli[0].copy()
    for row in moduli[1:]:
        sums += row
    for d in range(1, band.shape[0]):
        sums[d:] += moduli[d, :-d]
    return float(sums.max())


def counted_estimates(monkeypatch):
    """How many times the full condition estimate has run so far."""
    count = [0]
    real = solve_module._estimated_condition

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(solve_module, "_estimated_condition", counting)
    return count


class TestConditionOnRead:
    @pytest.mark.parametrize("level_target, trend_target", [(0.7, 0.9), (0.3, 0.6)])
    def test_loop_solves_defer_the_estimate(self, level_target, trend_target, monkeypatch):
        """Every solve of a `table` seed 0 loop, at the default targets and
        at (level 0.3, trend 0.6), where the level weight falls to about
        1e-33, is proved below ILL_CONDITION by the O(p) bound and returns
        without the estimate.  Read afterwards, ``condition`` is bit for bit
        the band's 1-norm times Hager's estimate from the inverse,
        is estimated once and kept, and is at most the bound."""
        scenario = preset("table", seed=0)
        res = ingest_records(simulate(scenario), frame=scenario.frame)
        domain = build_domain(res.cells, res.frame)
        system = DesignSystem.build(domain.filter_cells(res.cells)[0], domain)
        estimates = counted_estimates(monkeypatch)
        level_weights = []
        real_solve = iterate.solve

        def checking_solve(system, w1, w2):
            sol = real_solve(system, w1, w2)
            assert estimates[0] == 0 and not sol.warnings
            b0, b1, b2 = system.bands
            band = np.multiply(b1, w1, order="F") + b0 + w2 * b2
            expected = summed_band_one_norm(band) * solve_module._inverse_one_norm(sol.inverse)
            assert sol.condition == expected
            assert sol.condition == expected and estimates[0] == 1  # estimated once, then kept
            assert solve_module._condition_bound(system, (w1, w2), sol.inverse) >= sol.condition
            estimates[0] = 0
            level_weights.append(w2)
            return sol

        monkeypatch.setattr(iterate, "solve", checking_solve)
        options = FitOptions(level_target=level_target, trend_target=trend_target)
        result = iterate.run(system, options)
        assert len(level_weights) == result.iterations + (not result.converged)
        assert (min(level_weights) < 1e-30) == (level_target == 0.3)

    def test_ill_conditioned_note_comes_out_of_solve(self, monkeypatch):
        """Above ILL_CONDITION the estimate is made in ``solve``, which
        attaches the note; the value read later is the one it made."""
        _, _, system, _ = fitted_instance(seed=3, noise=0.0)
        estimates = counted_estimates(monkeypatch)
        sol = solve(system, 3e-12, 3e-12)
        assert estimates[0] == 1
        assert any("ill-conditioned" in w for w in sol.warnings)
        assert sol.condition > 1e12 and estimates[0] == 1

    def test_singular_condition_raises_in_solve(self):
        """Above SINGULAR_CONDITION ``solve`` raises itself: the factor
        exists, but no solution is returned whose first read would fail."""
        _, _, system, _ = fitted_instance(seed=3, noise=0.0)
        with pytest.raises(SingularSystemError, match=r"^normal-matrix condition number .* exceeds 1e\+14"):
            solve(system, 1e-14, 1e-14)

    def test_given_condition_is_kept(self):
        """A solution made with a condition number reads that one, and
        ``dataclasses.replace`` carries a read one over."""
        _, _, system, sol = fitted_instance()
        given_one = manual_solution(two_cell_domain(), [1.0, 2.0], np.eye(2))
        assert given_one.condition == 1.0
        assert dataclasses.replace(sol, sigma2=2.0).condition == sol.condition
        assert dataclasses.replace(sol, condition=3.0).condition == 3.0

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bound_is_at_least_the_condition_number(self, p, seed, data):
        """On random SPD band matrices with diagonal scales from 1e-10 to 1,
        the band's 1-norm times the O(p) bound on the inverse's 1-norm is at
        least the dense 1-norm condition number."""
        b = data.draw(st.integers(0, min(6, p - 1)))
        exponents = data.draw(st.lists(st.floats(-10.0, 0.0), min_size=p, max_size=p))
        scales = 10.0 ** np.array(exponents)
        band = spd_band(np.random.default_rng(seed), p, b)
        for d in range(b + 1):
            band[d, : p - d] *= scales[d:] * scales[: p - d]  # D N D
        dense = np.zeros((p, p))
        for d in range(b + 1):
            dense += np.diag(band[d, : p - d], -d)
            if d:
                dense += np.diag(band[d, : p - d], d)
        norm = band_one_norm(lambda d: np.abs(band[d]), b + 1)
        assert norm == summed_band_one_norm(band)
        bound = norm * BandedCovariance(band.copy(order="F")).inverse_norm_bound()
        assert bound >= np.linalg.cond(dense, 1) * (1.0 - 1e-12)
