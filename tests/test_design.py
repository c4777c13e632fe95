"""Stacked-system assembly: data rows, curvature blocks, weighting."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctrend.design import (
    AssemblyError,
    DesignSystem,
    data_rows,
    level_curvature_rows,
    residual_parts,
    stack,
    trend_curvature_rows,
)
from ctrend.domain import AnalysisDomain, DomainError, build_domain
from ctrend.grid import ModelVector, ObservationalFrame, predict_observation

from conftest import cell_table, make_cell, trend_column


def full_domain(y_span, a_span):
    frame = ObservationalFrame.from_integer_bounds(0, y_span + 1, 0, a_span)
    mask = np.ones((frame.year_cells, frame.age_cells), dtype=bool)
    return frame, AnalysisDomain(frame, mask, 0, frame.cohort_count - 1)


class TestDataRows:
    def test_corner_cell_row(self):
        frame, domain = full_domain(3, 3)
        cell = make_cell(frame, 0, 0, x_mean=25.0, offset=0.4)
        matrix, target = data_rows(cell, domain)
        row = matrix.csr.toarray()[0]
        slot_col = domain.full_to_compact()[frame.cohort_slots(0, 0)]
        assert row[slot_col] == 1.0
        assert row[trend_column(domain, 0, 0)] == pytest.approx(0.4)
        assert np.count_nonzero(row) == 2
        assert target[0] == 25.0

    def test_deep_cell_row_with_structural_zero(self):
        frame, domain = full_domain(3, 3)
        cell = make_cell(frame, 2, 2, x_mean=26.0, offset=0.0)
        matrix, _ = data_rows(cell, domain)
        row = matrix.csr.toarray()[0]
        assert row[domain.full_to_compact()[frame.cohort_slots(2, 2)]] == 1.0
        assert row[trend_column(domain, 0, 0)] == 1.0
        assert row[trend_column(domain, 1, 1)] == 1.0
        assert row[trend_column(domain, 2, 2)] == 0.0
        # the zero on the current cell is stored structurally
        assert matrix.csr[0].nnz == 1 + 2 + 1

    def test_row_sum_is_one_plus_depth(self):
        frame, domain = full_domain(4, 4)
        rng = np.random.default_rng(8)
        cells = cell_table([
            make_cell(frame, i, j, x_mean=25.0, offset=float(rng.uniform(0, 0.99)))
            for i in range(frame.year_cells)
            for j in range(frame.age_cells)
        ])
        matrix, _ = data_rows(cells, domain)
        dense = matrix.csr.toarray()
        for row, i, j, y_mean in zip(dense, cells.i, cells.j, cells.y_mean):
            depth = min(i, j)
            offset = y_mean - frame.year_of(i)
            assert 0.0 <= offset < 1.0
            assert row.sum() == pytest.approx(1 + depth + offset, abs=1e-12)
            unit_part = row.sum() - offset
            assert unit_part == pytest.approx(1 + depth, abs=1e-12)

    def test_rows_reproduce_forward_prediction(self):
        frame, full = full_domain(4, 5)
        rng = np.random.default_rng(3)
        # keep the last year row empty: data there would need offset 0
        cells = cell_table([
            make_cell(frame, i, j, x_mean=25.0, offset=float(rng.uniform(0, 0.99)))
            for i in range(frame.year_cells - 1)
            for j in range(frame.age_cells)
        ])
        # second input: three cells whose domain has holes beside their paths
        picked = cells.take([
            k for k, ij in enumerate(zip(cells.i.tolist(), cells.j.tolist()))
            if ij in {(1, 4), (3, 2), (3, 5)}
        ])
        gappy = build_domain(picked, frame)
        assert not gappy.mask[:-1].all()
        for domain, data in ((full, cells), (gappy, picked)):
            matrix, _ = data_rows(data, domain)
            for _ in range(100):
                z_full = rng.normal(size=frame.param_count)
                model = ModelVector.from_flat(frame, z_full)
                z_compact = domain.gather(z_full)
                predicted = matrix @ z_compact
                for k, (y_mean, a_mean) in enumerate(zip(data.y_mean, data.a_mean)):
                    direct = predict_observation(model, y_mean, a_mean)
                    assert predicted[k] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_cell_outside_domain_rejected(self, simple_domain):
        domain, frame = simple_domain
        orphan = make_cell(frame, 1, 0, x_mean=25.0)
        with pytest.raises(AssemblyError, match=r"\(1, 0\)"):
            data_rows(orphan, domain)


class TestTrendCurvature:
    def test_full_3x3_has_six_rows(self):
        _, domain = full_domain(2, 2)
        matrix = trend_curvature_rows(domain)
        assert matrix.shape[0] == 6

    def test_strip_has_only_horizontal_rows(self):
        frame = ObservationalFrame(0.0, 1.0, 0.0, 5.0)  # single year row
        mask = np.ones((frame.year_cells, frame.age_cells), dtype=bool)
        domain = AnalysisDomain(frame, mask, 0, frame.cohort_count - 1)
        assert frame.year_cells == 1
        matrix = trend_curvature_rows(domain)
        assert matrix.shape[0] == frame.age_cells - 2

    def test_annihilates_constant(self):
        frame, domain = full_domain(3, 4)
        matrix = trend_curvature_rows(domain)
        z = np.zeros(frame.param_count)
        z[frame.cohort_count :] = 3.7
        assert np.all(matrix @ domain.gather(z) == 0.0)

    def test_rows_touching_excluded_cells_omitted(self, simple_domain):
        domain, _ = simple_domain
        matrix = trend_curvature_rows(domain)
        # domain cells: (0,0),(0,1),(1,1),(2,1),(2,2): no 3 cells in any row,
        # but column 1 has (0,1),(1,1),(2,1) -> exactly one vertical triple
        assert matrix.shape[0] == 1
        row = matrix.csr.toarray()[0]
        cols = [trend_column(domain, i, 1) for i in (0, 1, 2)]
        assert [row[c] for c in cols] == [1.0, -2.0, 1.0]


    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from(["any", "one row", "one column"]), data=st.data())
    def test_random_masks_match_reference_walk(self, shape, data):
        ni = 1 if shape == "one row" else data.draw(st.integers(1, 6))
        nj = data.draw(st.integers(2, 7))
        frame = ObservationalFrame.from_integer_bounds(0, ni, 0, nj - 1)
        flags = data.draw(st.lists(st.booleans(), min_size=ni * nj, max_size=ni * nj))
        mask = np.array(flags).reshape(ni, nj)
        if shape == "one column":
            keep = data.draw(st.integers(0, nj - 1))
            mask[:, np.arange(nj) != keep] = False
        assume(mask.any())
        ii, jj = np.nonzero(mask)
        slots = frame.year_cells - ii + jj
        domain = AnalysisDomain(frame, mask, int(slots.min()), int(slots.max()))

        triples = []
        for i in range(ni):
            for j in range(1, nj - 1):
                if mask[i, j - 1] and mask[i, j] and mask[i, j + 1]:
                    triples.append([(i, j - 1), (i, j), (i, j + 1)])
        for i in range(1, ni - 1):
            for j in range(nj):
                if mask[i - 1, j] and mask[i, j] and mask[i + 1, j]:
                    triples.append([(i - 1, j), (i, j), (i + 1, j)])
        expected = np.zeros((len(triples), domain.compact_size))
        for row, cells in enumerate(triples):
            for coeff, (i, j) in zip((1.0, -2.0, 1.0), cells):
                expected[row, trend_column(domain, i, j)] = coeff
        matrix = trend_curvature_rows(domain)
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix.csr.toarray(), expected)

        edge = domain.edge()
        for i, j in np.ndindex(ni, nj):
            neighbours = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
            missing = any(
                not (0 <= a < ni and 0 <= b < nj) or not mask[a, b] for a, b in neighbours
            )
            assert edge[i, j] == (mask[i, j] and missing), (i, j)


class TestLevelCurvature:
    def test_annihilates_affine(self):
        # dyadic slope so the affine sequence is exactly representable
        frame, domain = full_domain(3, 3)
        matrix = level_curvature_rows(domain)
        z = np.zeros(frame.param_count)
        z[: frame.cohort_count] = 2.0 + 0.25 * np.arange(frame.cohort_count)
        assert np.all(matrix @ domain.gather(z) == 0.0)

    def test_row_count_for_segment_length_five(self):
        frame = ObservationalFrame.from_integer_bounds(0, 3, 0, 3)
        mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
        # diagonal band with slots spanning 5 consecutive values
        for i, j in [(2, 0), (1, 0), (0, 0), (0, 1), (0, 2)]:
            mask[i, j] = True
        slots = [frame.cohort_slots(i, j) for i, j in [(2, 0), (0, 2)]]
        domain = AnalysisDomain(frame, mask, min(slots), max(slots))
        assert domain.slot_count == 5
        assert level_curvature_rows(domain).shape[0] == 3

    def test_short_segment_is_empty_without_a_warning(self):
        # no fit gets past such a domain (below), so nothing needs telling
        frame = ObservationalFrame.from_integer_bounds(0, 3, 0, 3)
        mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
        mask[1, 1] = mask[2, 2] = mask[1, 2] = True
        slots = [frame.cohort_slots(1, 1), frame.cohort_slots(1, 2)]
        domain = AnalysisDomain(frame, mask, min(slots), max(slots))
        assert domain.slot_count == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = level_curvature_rows(domain)
        assert matrix.shape[0] == 0

    @settings(max_examples=100, deadline=None)
    @given(
        years=st.integers(1, 7),
        ages=st.integers(1, 7),
        points=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=5),
        mode=st.sampled_from([1, 2]),
    )
    def test_short_segment_has_fewer_rows_than_parameters(self, years, ages, points, mode):
        # Fewer than three slots span at most two adjacent cohort diagonals,
        # so no run of three cells and no curvature row: the data rows alone
        # cannot reach the slots plus the trend cells, and the first solve of
        # any fit raises SingularSystemError.
        frame = ObservationalFrame.from_integer_bounds(0, years, 0, ages)
        cells = {(i % frame.year_cells, j % frame.age_cells) for i, j in points}
        table = cell_table([make_cell(frame, i, j, 25.0) for i, j in cells])
        try:
            domain = build_domain(table, frame, mode)
        except DomainError:  # mode 2 kept no cohort
            assume(False)
        assume(domain.slot_count < 3)
        system = DesignSystem.build(domain.filter_cells(table)[0], domain)
        assert [rows.shape[0] for rows in system.penalties] == [0, 0]
        assert system.n_total < system.param_count


def objective_parts(system, z):
    """The data misfit and the two curvatures at ``z``."""
    return residual_parts(system, z, system.data_matrix @ z - system.target)


def weighted_rss(stacked, z):
    """The stacked system's weighted residual sum of squares at ``z``."""
    resid = stacked.matrix @ z - stacked.target
    return float(np.dot(stacked.row_weights * resid, resid))


class TestStack:
    def build_system(self, seed=0):
        frame, domain = full_domain(3, 3)
        rng = np.random.default_rng(seed)
        cells = cell_table([
            make_cell(
                frame, i, j,
                x_mean=float(rng.normal(25, 1)),
                offset=float(rng.uniform(0, 0.99)),
            )
            for i in range(frame.year_cells)
            for j in range(frame.age_cells)
        ])
        return DesignSystem.build(cells, domain), domain

    def test_zero_weights_reduce_to_data_misfit(self):
        system, domain = self.build_system()
        stacked = stack(system, 0.0, 0.0)
        rng = np.random.default_rng(1)
        z = rng.normal(size=domain.compact_size)
        s0, _, _ = objective_parts(system, z)
        assert weighted_rss(stacked, z) == pytest.approx(s0, rel=1e-12)

    def test_total_matches_separate_quadratics(self):
        system, domain = self.build_system()
        rng = np.random.default_rng(2)
        for w1, w2 in [(1.0, 1.0), (0.3, 7.0), (2.5, 0.0)]:
            stacked = stack(system, w1, w2)
            for _ in range(5):
                z = rng.normal(scale=0.1, size=domain.compact_size)
                s0, s1, s2 = objective_parts(system, z)
                expected = s0 + w1 * s1 + w2 * s2
                assert weighted_rss(stacked, z) == pytest.approx(expected, rel=1e-10)

    def test_doubling_trend_weight_doubles_its_part(self):
        system, domain = self.build_system()
        rng = np.random.default_rng(3)
        z = rng.normal(size=domain.compact_size)
        s0, s1, s2 = objective_parts(system, z)
        one = weighted_rss(stack(system, 1.0, 1.0), z)
        two = weighted_rss(stack(system, 2.0, 1.0), z)
        assert two - one == pytest.approx(s1, rel=1e-9)

    def test_negative_weight_rejected(self):
        system, _ = self.build_system()
        with pytest.raises(ValueError, match="nonnegative"):
            stack(system, -0.1, 1.0)

    def test_deterministic_row_order(self):
        system_a, _ = self.build_system(seed=4)
        system_b, _ = self.build_system(seed=4)
        assert (system_a.data_matrix.csr != system_b.data_matrix.csr).nnz == 0
        assert (system_a.penalties[0].csr != system_b.penalties[0].csr).nnz == 0

    def test_weight_by_count(self):
        frame, domain = full_domain(2, 2)
        cells = cell_table([
            make_cell(frame, i, j, x_mean=25.0, offset=0.3, n=(i + 2 * j + 1))
            for i in range(frame.year_cells)
            for j in range(frame.age_cells)
        ])
        system = DesignSystem.build(cells, domain, weight_by_count=True)
        assert sorted(system.data_row_weights) == sorted(
            float(n) for n in cells.n
        )
