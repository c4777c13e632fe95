"""Analysis-domain construction: cohort segments, selection modes, gap fill."""

import numpy as np
import pytest

from ctrend.domain import AnalysisDomain, DomainError, build_domain
from ctrend.grid import ObservationalFrame

from conftest import cell_table, make_cell


def frame66():
    return ObservationalFrame.from_integer_bounds(0, 6, 0, 5)


def cells_at(frame, coords, values=None):
    values = values or [25.0] * len(coords)
    return cell_table([make_cell(frame, i, j, x) for (i, j), x in zip(coords, values)])


def included(domain):
    """The (i, j) of every included trend cell."""
    return set(zip(*(axis.tolist() for axis in np.nonzero(domain.mask))))


def gap_fill_oracle(mask):
    """Independent fixed-point filler: rescan rows and columns until stable."""
    mask = mask.copy()
    while True:
        before = mask.sum()
        for i in range(mask.shape[0]):
            hits = np.flatnonzero(mask[i])
            if hits.size >= 2:
                mask[i, hits[0] : hits[-1] + 1] = True
        for j in range(mask.shape[1]):
            hits = np.flatnonzero(mask[:, j])
            if hits.size >= 2:
                mask[hits[0] : hits[-1] + 1, j] = True
        if mask.sum() == before:
            return mask


class TestCohortSegments:
    def test_single_cell_pulls_its_path(self):
        frame = frame66()
        domain = build_domain(cells_at(frame, [(2, 3)]), frame)
        assert included(domain) == {(2, 3), (1, 2), (0, 1)}
        assert domain.first_slot == domain.last_slot == frame.cohort_slots(2, 3)

    def test_boundary_cell_is_its_own_segment(self):
        frame = frame66()
        domain = build_domain(cells_at(frame, [(0, 4)]), frame)
        assert included(domain) == {(0, 4)}

    def test_every_data_cell_path_included(self):
        frame = frame66()
        coords = [(3, 1), (4, 4), (1, 3), (5, 2)]
        domain = build_domain(cells_at(frame, coords), frame)
        for i, j in coords:
            for m in range(min(i, j) + 1):
                assert domain.mask[i - m, j - m]


class TestSelectionModes:
    def test_mode2_keeps_multi_point_cohorts(self):
        frame = frame66()
        # (1, 1) and (3, 3) share a cohort; (0, 3) is alone on its own
        domain = build_domain(cells_at(frame, [(1, 1), (3, 3), (0, 3)]), frame, mode=2)
        assert (0, 3) not in included(domain)
        assert {(0, 0), (1, 1), (2, 2), (3, 3)} <= included(domain)

    def test_mode2_drops_single_point_cohorts(self):
        frame = frame66()
        with pytest.raises(DomainError, match="mode 2"):
            build_domain(cells_at(frame, [(1, 2), (2, 1)]), frame, mode=2)

    def test_mode2_subset_of_mode1(self):
        frame = frame66()
        rng = np.random.default_rng(5)
        coords = {(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(8)}
        cells = cells_at(frame, sorted(coords))
        d1 = build_domain(cells, frame, mode=1)
        d2 = build_domain(cells, frame, mode=2)
        assert np.all(d1.mask | ~d2.mask)  # d2 included implies d1 included

    def test_bad_mode(self):
        frame = frame66()
        with pytest.raises(ValueError):
            build_domain(cells_at(frame, [(1, 1)]), frame, mode=3)


class TestGapFilling:
    def test_parallel_segments_get_connected(self):
        frame = frame66()
        # two cohort segments of length 3 offset by one age
        coords = [(2, 2), (2, 3)]
        domain = build_domain(cells_at(frame, coords), frame)
        oracle_mask = np.zeros_like(domain.mask)
        for i, j in coords:
            for m in range(min(i, j) + 1):
                oracle_mask[i - m, j - m] = True
        assert np.array_equal(domain.mask, gap_fill_oracle(oracle_mask))
        # the gap fill must have closed each horizontal/vertical run
        for line in list(domain.mask) + list(domain.mask.T):
            hits = np.flatnonzero(line)
            if hits.size >= 2:
                assert np.all(line[hits[0] : hits[-1] + 1])

    def test_fixed_point_matches_oracle_on_random_inputs(self):
        frame = ObservationalFrame.from_integer_bounds(0, 8, 0, 7)
        rng = np.random.default_rng(11)
        for trial in range(25):
            coords = {
                (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                for _ in range(rng.integers(1, 10))
            }
            domain = build_domain(cells_at(frame, sorted(coords)), frame)
            seed_mask = np.zeros_like(domain.mask)
            for i, j in coords:
                for m in range(min(i, j) + 1):
                    seed_mask[i - m, j - m] = True
            assert np.array_equal(domain.mask, gap_fill_oracle(seed_mask))

    def test_monotone_and_idempotent(self):
        frame = frame66()
        coords = [(3, 1), (1, 3), (4, 4)]
        domain = build_domain(cells_at(frame, coords), frame)
        seed_mask = np.zeros_like(domain.mask)
        for i, j in coords:
            for m in range(min(i, j) + 1):
                seed_mask[i - m, j - m] = True
        assert np.all(domain.mask | ~seed_mask)  # only adds cells
        assert np.array_equal(gap_fill_oracle(domain.mask.copy()), domain.mask)


class TestSlotSegment:
    def test_segment_covers_included_cells(self):
        frame = frame66()
        rng = np.random.default_rng(2)
        coords = sorted({(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(6)})
        domain = build_domain(cells_at(frame, coords), frame)
        slots = frame.cohort_slots(*np.nonzero(domain.mask))
        assert domain.first_slot == min(slots)
        assert domain.last_slot == max(slots)
        for s in slots:
            assert domain.first_slot <= s <= domain.last_slot


class TestCompactMaps:
    def test_full_domain_identity(self):
        frame = ObservationalFrame.from_integer_bounds(0, 2, 0, 2)
        mask = np.ones((frame.year_cells, frame.age_cells), dtype=bool)
        domain = AnalysisDomain(frame, mask, 0, frame.cohort_count - 1)
        assert domain.compact_size == frame.param_count
        vec = np.arange(frame.param_count, dtype=float)
        assert np.array_equal(domain.scatter(domain.gather(vec)), vec)

    def test_excluded_marked_missing_never_zero(self, simple_domain):
        domain, frame = simple_domain
        compact = np.ones(domain.compact_size)
        full = domain.scatter(compact)
        assert np.isnan(full[frame.cohort_count + 1 * frame.age_cells + 0])  # cell (1, 0)
        participating = domain.compact_to_full()
        assert np.all(full[participating] == 1.0)
        missing = np.setdiff1d(np.arange(frame.param_count), participating)
        assert np.all(np.isnan(full[missing]))

    def test_compact_dimension(self, simple_domain):
        domain, _ = simple_domain
        assert domain.compact_size == domain.trend_count + (domain.last_slot - domain.first_slot + 1)

    def test_roundtrip_identity_on_participants(self, simple_domain):
        domain, _ = simple_domain
        rng = np.random.default_rng(0)
        compact = rng.normal(size=domain.compact_size)
        assert np.array_equal(domain.gather(domain.scatter(compact)), compact)


class TestFilterCells:
    def test_split_is_disjoint_and_complete(self, simple_domain):
        domain, frame = simple_domain
        coords = [(i, j) for i in range(frame.year_cells) for j in range(frame.age_cells)]
        cells = cells_at(frame, coords, [float(k) for k in range(len(coords))])
        inside, outside = domain.filter_cells(cells)
        assert len(inside) + len(outside) == len(cells)
        assert set(zip(inside.i.tolist(), inside.j.tolist())) == included(domain)
        assert not domain.mask[outside.i, outside.j].any()
        # every cell lands in one part with its own values, each part in scan order
        parts = np.concatenate([inside.x_mean, outside.x_mean])
        assert sorted(parts.tolist()) == cells.x_mean.tolist()
        for part in (inside, outside):
            keys = part.i * frame.age_cells + part.j
            assert np.array_equal(part.x_mean, cells.x_mean[keys])

    def test_empty_parts_are_tables(self, simple_domain):
        domain, frame = simple_domain
        cells = cells_at(frame, [(0, 0), (2, 2)])
        inside, outside = domain.filter_cells(cells)
        assert (len(inside), len(outside)) == (2, 0)
        assert outside.i.dtype == np.int64 and outside.x_mean.dtype == float


def order_domain(case):
    """A domain to check the parameter orders on: case 0 is a full grid,
    case 1 a single cohort, and the others gappy domains built from random
    data cells."""
    if case == 0:
        frame = ObservationalFrame.from_integer_bounds(0, 4, 0, 4)
        mask = np.ones((frame.year_cells, frame.age_cells), dtype=bool)
        return AnalysisDomain(frame, mask, 0, frame.cohort_count - 1)
    if case == 1:
        return build_domain(cells_at(frame66(), [(3, 2)]), frame66())
    rng = np.random.default_rng(case)
    frame = ObservationalFrame.from_integer_bounds(0, 8, 0, 7)
    picks = rng.integers(0, 8, size=(rng.integers(1, 8), 2)).tolist()
    return build_domain(cells_at(frame, sorted({(i, j) for i, j in picks})), frame)


class TestParameterOrder:
    """The orders the output bytes depend on: the compact order of the
    estimate and the covariance, and the order in which the curvature rows
    and the adjacent-correlation sums visit the cells."""

    @pytest.mark.parametrize("case", range(14))
    def test_compact_order_is_cohort_major(self, case):
        domain = order_domain(case)
        frame = domain.frame
        # (cohort slot, year, full index): -1 puts a slot before its cells
        keys = [(s, -1, s) for s in range(domain.first_slot, domain.last_slot + 1)]
        for i, j in included(domain):
            full = frame.cohort_count + i * frame.age_cells + j
            keys.append((frame.cohort_slots(i, j), i, full))
        expected = [full for _, _, full in sorted(keys)]
        assert domain.compact_to_full().tolist() == expected
        to_compact = domain.full_to_compact()
        assert np.array_equal(to_compact[domain.compact_to_full()], np.arange(domain.compact_size))
        assert np.count_nonzero(to_compact >= 0) == domain.compact_size

    @pytest.mark.parametrize("case", range(14))
    def test_links_and_runs_stay_row_major_by_full_index(self, case):
        """Each cell's next-age link, then its next-year link, cells in
        row-major order; the triples likewise by their first cell."""
        domain = order_domain(case)
        frame, to_full = domain.frame, domain.compact_to_full()
        cells = included(domain)

        def full(i, j):
            return frame.cohort_count + i * frame.age_cells + j

        links, along_rows, along_columns = [], [], []
        for i, j in sorted(cells):
            if (i, j + 1) in cells:
                links.append([full(i, j), full(i, j + 1)])
            if (i + 1, j) in cells:
                links.append([full(i, j), full(i + 1, j)])
            if {(i, j + 1), (i, j + 2)} <= cells:
                along_rows.append([full(i, j), full(i, j + 1), full(i, j + 2)])
            if {(i + 1, j), (i + 2, j)} <= cells:
                along_columns.append([full(i, j), full(i + 1, j), full(i + 2, j)])
        trend, level = domain.links()
        assert to_full[trend].tolist() == links
        rows, columns = domain.runs(3)
        assert to_full[rows].tolist() == along_rows
        assert to_full[columns].tolist() == along_columns
        first, last = domain.first_slot, domain.last_slot
        assert to_full[level].tolist() == [[s, s + 1] for s in range(first, last)]
        triples = [[s, s + 1, s + 2] for s in range(first, last - 1)]
        assert to_full[domain.slot_runs(3)].tolist() == triples

    def test_slot_runs_of_a_short_segment_are_empty(self):
        frame = frame66()
        one = build_domain(cells_at(frame, [(0, 4)]), frame)
        mask = np.zeros((frame.year_cells, frame.age_cells), dtype=bool)
        mask[1, 1] = mask[1, 2] = True
        two = AnalysisDomain(frame, mask, frame.cohort_slots(1, 1),
                             frame.cohort_slots(1, 2))
        assert (one.slot_count, two.slot_count) == (1, 2)
        for domain in (one, two):
            runs = domain.slot_runs(3)
            assert runs.shape == (0, 3) and runs.dtype.kind == "i"
        assert one.slot_runs(2).shape == (0, 2)
        slots = two.full_to_compact()[two.first_slot : two.last_slot + 1]
        assert two.slot_runs(2).tolist() == [slots.tolist()]
