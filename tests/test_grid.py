"""Cell geometry, cohort indexing, and forward evaluation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cell_table, make_cell
from ctrend.domain import DomainError, build_domain
from ctrend.grid import (
    CohortPathError,
    ModelVector,
    ObservationalFrame,
    OutOfFrameError,
    SparseRows,
    check_paths,
    cohort_path_rows,
    forward_levels,
    predict_observation,
)


def in_cell(y, a, i_abs, j_abs):
    """Membership test straight from the cell definition: y in [i, i+1),
    a - (y - i) in (j-1, j]."""
    return (i_abs <= y < i_abs + 1) and (j_abs - 1 < a - (y - i_abs) <= j_abs)


def small_frame(y_span=4, a_span=4):
    return ObservationalFrame.from_integer_bounds(0, y_span, 0, a_span)


def cell_of(frame, y, a):
    """The cell ``(i, j)`` of one in-frame point, through ``locate``."""
    inside, i, j = frame.locate([y], [a])
    assert inside.all()
    return int(i[0]), int(j[0])


class TestCellOf:
    def test_integer_corner_belongs_to_own_cell(self):
        frame = small_frame(5, 6)
        assert cell_of(frame, 2.0, 3.0) == (2, 3)

    def test_interior_point(self):
        frame = small_frame(5, 6)
        # membership check: 3.2 - 0.5 = 2.7 in (2, 3]
        assert in_cell(2.5, 3.2, 2, 3)
        assert cell_of(frame, 2.5, 3.2) == (2, 3)

    def test_diagonal_boundary_is_inclusive_below(self):
        frame = small_frame(5, 6)
        # a - (y - i) = 2.0 exactly: belongs to (1, 2], i.e. column 2
        assert in_cell(2.5, 2.5, 2, 2)
        assert cell_of(frame, 2.5, 2.5) == (2, 2)

    def test_frame_edge_values_kept(self):
        frame = small_frame(4, 4)
        top = cell_of(frame, 3.0, 4.0)
        assert top == (3, 4)
        assert top[0] == frame.year_cells - 1
        assert top[1] == frame.age_cells - 1
        assert not frame.locate([4.0], [4.0])[0].any()
        with pytest.raises(OutOfFrameError, match="year 4.0"):
            predict_observation(constant_model(frame), 4.0, 4.0)

    def test_out_of_frame_names_coordinate(self):
        frame = small_frame(4, 4)
        with pytest.raises(OutOfFrameError, match="year"):
            predict_observation(constant_model(frame), 4.5, 2.0)
        with pytest.raises(OutOfFrameError, match="age"):
            predict_observation(constant_model(frame), 2.0, -0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        y=st.floats(min_value=0.0, max_value=6.0, exclude_max=True, allow_nan=False),
        a=st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
    )
    def test_partition_property(self, y, a):
        """Every in-frame point lands in exactly one cell, and that cell's
        membership predicate holds for it."""
        frame = ObservationalFrame.from_integer_bounds(0, 6, 0, 7)
        i, j = cell_of(frame, y, a)
        i_abs = frame.year_base + i
        j_abs = frame.age_base + j
        assert in_cell(y, a, i_abs, j_abs)
        # uniqueness: neighbours do not also claim the point
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == dj == 0:
                    continue
                assert not in_cell(y, a, i_abs + di, j_abs + dj)

    @given(
        y=st.integers(min_value=0, max_value=6),
        a=st.integers(min_value=0, max_value=7),
        frac=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    )
    def test_boundary_fractions(self, y, a, frac):
        frame = ObservationalFrame.from_integer_bounds(0, 7, 0, 8)
        i, j = cell_of(frame, y + frac, a)
        assert in_cell(y + frac, a, frame.year_base + i, frame.age_base + j)


class TestFrameGeometry:
    def test_spans(self):
        frame = ObservationalFrame.from_integer_bounds(1972, 2003, 25, 75)
        assert frame.year_cells == 31  # the survey years 1972-2002
        assert frame.age_cells == 51
        assert frame.cohort_count == 31 + 51 + 1
        assert frame.param_count == frame.cohort_count + 31 * 51

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ObservationalFrame(2000.0, 2000.0, 20.0, 30.0)
        with pytest.raises(ValueError):
            ObservationalFrame(2000.0, 2001.0, 30.0, 20.0)

    @pytest.mark.parametrize(
        "bounds, name",
        [
            ((0, 2, 5.3, 10), "a_min"),  # the point (0.5, 5.3) had column -1
            ((0, 1.5, 0, 5.3), "y_max"),  # (1.0, 5.3) fell in column 6 of 6
            ((0, 1.5, 1.2136, 1.4636), "y_max"),  # no age column at all
        ],
    )
    def test_fractional_bounds_rejected(self, bounds, name):
        with pytest.raises(ValueError, match=f"frame bound {name} "):
            ObservationalFrame(*bounds)

    def test_year_age_labels(self):
        frame = ObservationalFrame.from_integer_bounds(1972, 1980, 25, 40)
        assert frame.year_of(0) == 1972
        assert frame.age_of(0) == 25


class TestCohortSlot:
    def test_boundary_cell_maps_to_corner_slot(self):
        # year_cells = I + 1 = 4 when I = 3
        frame = ObservationalFrame.from_integer_bounds(0, 4, 0, 3)
        assert frame.year_cells == 4
        assert frame.cohort_slots(0, 0) == 4

    def test_same_diagonal_same_slot(self):
        frame = ObservationalFrame.from_integer_bounds(0, 3, 0, 3)
        assert frame.cohort_slots(2, 2) == frame.cohort_slots(0, 0)

    def test_bottom_edge_enumeration(self):
        # Hand enumeration of the boundary ordering: slots count down the
        # left edge, so cell (3, 0) with I = 3 sits at slot 1.
        frame = ObservationalFrame.from_integer_bounds(0, 4, 0, 3)
        assert frame.cohort_slots(3, 0) == 1

    def test_constant_on_diagonals_injective_across(self):
        frame = ObservationalFrame.from_integer_bounds(0, 5, 0, 4)
        seen = {}
        for i in range(frame.year_cells):
            for j in range(frame.age_cells):
                slot = frame.cohort_slots(i, j)
                key = j - i  # diagonal identifier
                seen.setdefault(key, set()).add(slot)
        for slots in seen.values():
            assert len(slots) == 1
        all_slots = [next(iter(s)) for s in seen.values()]
        assert len(all_slots) == len(set(all_slots))

    def test_slot_origin_roundtrip(self):
        frame = ObservationalFrame.from_integer_bounds(0, 4, 0, 6)
        for slot in range(frame.cohort_count):
            ii, jj = frame.diagonal(slot)
            assert np.all(frame.year_cells - ii + jj == slot)
            if ii.size:  # it enters the frame on the left or bottom edge
                assert min(ii[0], jj[0]) == 0
        for slot in (-1, frame.cohort_count):
            with pytest.raises(ValueError, match=f"slot {slot} outside"):
                frame.diagonal(slot)


def constant_model(frame, level=20.0, trend=0.0):
    return ModelVector(
        frame,
        np.full(frame.cohort_count, level),
        np.full((frame.year_cells, frame.age_cells), trend),
    )


def checked_levels(model, domain, cells):
    """Levels of the level-grid ``cells`` from their cohort-path rows, after
    ``check_paths`` has checked each path against the domain."""
    ci, cj = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    rows = cohort_path_rows(model.frame, ci, cj)
    check_paths(model.frame, rows, ci, cj, domain.full_to_compact() >= 0)
    return rows @ model.flat()


class TestForwardLevels:
    def test_zero_trend_is_stationary(self):
        frame = small_frame(3, 3)
        levels = forward_levels(constant_model(frame, level=7.5))
        assert np.all(levels == 7.5)

    def test_constant_trend_accumulates_depth(self):
        # depth-4 cell with u = 0.2 everywhere and flat 20 start: 20 + 4*0.2
        frame = small_frame(5, 5)
        levels = forward_levels(constant_model(frame, level=20.0, trend=0.2))
        assert levels[4, 4] == pytest.approx(20.8, abs=1e-12)

    def test_single_cohort_telescopes(self):
        frame = small_frame(3, 3)
        model = constant_model(frame, level=24.0, trend=0.0)
        u = model.trends.copy()
        u[0, 0], u[1, 1], u[2, 2] = 0.5, 0.3, -0.1
        model = ModelVector(frame, model.initial_levels, u)
        levels = forward_levels(model)
        diag = [levels[m, m] for m in range(4)]
        assert diag == pytest.approx([24.0, 24.5, 24.8, 24.7])

    def test_recursion_identity_exact(self):
        rng = np.random.default_rng(7)
        frame = small_frame(4, 5)
        model = ModelVector(
            frame,
            rng.normal(25, 2, frame.cohort_count),
            rng.normal(0, 0.5, (frame.year_cells, frame.age_cells)),
        )
        levels = forward_levels(model)
        for i in range(frame.year_cells):
            for j in range(frame.age_cells):
                assert levels[i + 1, j + 1] == levels[i, j] + model.trends[i, j]

    def test_boundary_rows_match_initial_levels(self):
        frame = small_frame(3, 4)
        rng = np.random.default_rng(3)
        model = ModelVector(
            frame,
            rng.normal(size=frame.cohort_count),
            rng.normal(size=(frame.year_cells, frame.age_cells)),
        )
        levels = forward_levels(model)
        # each slot's origin: the level-grid cell of its cohort on the left or bottom edge
        origins = [(i, 0) for i in range(frame.year_cells + 1)]
        origins += [(0, j) for j in range(1, frame.age_cells + 1)]
        slots = [frame.cohort_slots(i, j) for i, j in origins]
        assert sorted(slots) == list(range(frame.cohort_count))
        for (i, j), slot in zip(origins, slots):
            assert levels[i, j] == model.initial_levels[slot]

    @settings(max_examples=150, deadline=None)
    @given(
        bounds=st.tuples(
            st.integers(0, 3), st.integers(1, 5), st.integers(0, 3), st.integers(1, 5)
        ),
        mode=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_gappy_domain_levels_match_reference_walk(self, bounds, mode, seed, data):
        y0, y_span, a0, a_span = bounds
        frame = ObservationalFrame(float(y0), float(y0 + y_span), float(a0), float(a0 + a_span))
        picks = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, frame.year_cells - 1), st.integers(0, frame.age_cells - 1)
                ),
                min_size=1,
                max_size=8,
            )
        )
        try:
            cells = cell_table([make_cell(frame, i, j, 25.0) for i, j in set(picks)])
            domain = build_domain(cells, frame, mode)
        except DomainError:
            assume(False)
        rng = np.random.default_rng(seed)
        model = ModelVector(
            frame,
            rng.normal(25, 2, frame.cohort_count),
            rng.normal(0, 0.5, (frame.year_cells, frame.age_cells)),
        )
        levels = forward_levels(model, domain)

        finite = []
        for i in range(frame.year_cells + 1):
            for j in range(frame.age_cells + 1):
                slot = frame.year_cells - i + j
                covered = domain.first_slot <= slot <= domain.last_slot and all(
                    domain.mask[i - m, j - m] for m in range(1, min(i, j) + 1)
                )
                assert np.isfinite(levels[i, j]) == covered, (i, j)
                if covered:
                    finite.append((i, j))
                else:
                    with pytest.raises(CohortPathError):
                        checked_levels(model, domain, [(i, j)])
        assert finite
        by_cell = checked_levels(model, domain, finite)
        for (i, j), level in zip(finite, by_cell):
            assert level == levels[i, j]

    def test_broken_path_names_first_missing_cell(self, simple_domain):
        domain, frame = simple_domain
        model = constant_model(frame)
        with pytest.raises(CohortPathError, match=r"\(1, 0\)"):
            checked_levels(model, domain, [(2, 1)])


class TestPredictObservation:
    def test_integer_year_returns_level(self):
        frame = small_frame(4, 4)
        rng = np.random.default_rng(11)
        model = ModelVector(
            frame,
            rng.normal(25, 1, frame.cohort_count),
            rng.normal(0, 0.3, (frame.year_cells, frame.age_cells)),
        )
        levels = forward_levels(model)
        assert predict_observation(model, 2.0, 2.0) == levels[2, 2]

    def test_within_cell_offset(self):
        frame = small_frame(2, 2)
        model = ModelVector(
            frame,
            np.full(frame.cohort_count, 25.0),
            np.full((frame.year_cells, frame.age_cells), 0.4),
        )
        # cell (0, j): level 25.0, offset 0.5 -> 25.0 + 0.5 * 0.4
        assert predict_observation(model, 0.5, 1.0) == pytest.approx(25.2, abs=1e-12)

    def test_constant_in_age_within_cell(self):
        frame = small_frame(4, 4)
        rng = np.random.default_rng(2)
        model = ModelVector(
            frame,
            rng.normal(25, 1, frame.cohort_count),
            rng.normal(0, 0.3, (frame.year_cells, frame.age_cells)),
        )
        y = 1.37
        a1, a2 = 2.6, 2.9  # same cell, different ages
        assert cell_of(frame, y, a1) == cell_of(frame, y, a2)
        assert predict_observation(model, y, a1) == predict_observation(model, y, a2)

    def test_piecewise_linear_along_cohort(self):
        """Right-derivative in y equals the current cell's trend."""
        frame = small_frame(5, 5)
        rng = np.random.default_rng(5)
        model = ModelVector(
            frame,
            rng.normal(25, 1, frame.cohort_count),
            rng.normal(0, 0.5, (frame.year_cells, frame.age_cells)),
        )
        h = 1e-6
        for y0, a0 in [(0.2, 0.1), (1.5, 1.2), (2.0, 1.5), (3.25, 2.5)]:
            cell = cell_of(frame, y0, a0)
            f0 = predict_observation(model, y0, a0)
            f1 = predict_observation(model, y0 + h, a0 + h)
            deriv = (f1 - f0) / h
            assert deriv == pytest.approx(model.trends[cell], abs=1e-4)

    def test_continuity_across_cell_edges_along_cohort(self):
        frame = small_frame(5, 5)
        rng = np.random.default_rng(9)
        model = ModelVector(
            frame,
            rng.normal(25, 1, frame.cohort_count),
            rng.normal(0, 0.5, (frame.year_cells, frame.age_cells)),
        )
        eps = 1e-9
        # crossing from cell (1, 1) into (2, 2) along the diagonal through (1.0, 0.7)
        left = predict_observation(model, 2.0 - eps, 1.7 - eps)
        right = predict_observation(model, 2.0, 1.7)
        assert right == pytest.approx(left, abs=1e-6)


class TestModelVector:
    def test_flat_roundtrip(self):
        frame = small_frame(3, 4)
        rng = np.random.default_rng(1)
        model = ModelVector(
            frame,
            rng.normal(size=frame.cohort_count),
            rng.normal(size=(frame.year_cells, frame.age_cells)),
        )
        back = ModelVector.from_flat(frame, model.flat())
        assert np.array_equal(back.initial_levels, model.initial_levels)
        assert np.array_equal(back.trends, model.trends)

    def test_length_validation(self):
        frame = small_frame(2, 2)
        with pytest.raises(ValueError):
            ModelVector(frame, np.zeros(3), np.zeros((3, 3)))
        assert frame.param_count == frame.cohort_count + frame.trend_size
        assert frame.cohort_count == (frame.year_cells - 1) + (frame.age_cells - 1) + 3


class TestSparseRows:
    @settings(max_examples=100, deadline=None)
    @given(
        n_rows=st.integers(0, 12),
        n_cols=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_give_scipy_csr_bits(self, n_rows, n_cols, seed):
        """Both products of random rows (empty rows, structural zeros,
        negative zeros, NaN and infinite inputs) equal scipy's CSR products
        bit for bit."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, n_cols + 1, n_rows)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.concatenate(
            [np.sort(rng.choice(n_cols, k, replace=False)) for k in lengths] + [np.zeros(0, int)]
        )
        special = np.array([0.0, -0.0, 1e300, -1e-300])
        data = np.where(rng.random(indices.size) < 0.2, rng.choice(special, indices.size),
                        rng.normal(size=indices.size) * 10.0 ** rng.integers(-8, 9, indices.size))
        rows = SparseRows(data, indices, indptr, n_cols)
        x = rng.normal(size=n_cols) * 10.0 ** rng.integers(-8, 9, n_cols)
        y = rng.normal(size=n_rows)
        if n_cols > 1:
            x[rng.integers(n_cols)] = rng.choice([np.nan, np.inf, -0.0])
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow, as in scipy
            products = [(rows @ x, rows.csr @ x), (rows.rmatvec(y), rows.csr.T @ y)]
        for got, expected in products:
            assert got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
