"""Parsing, validation, BMI derivation, aggregation, conservation."""

import csv
import datetime
import io
import math
import os
import random
import threading
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrend import ingest
from ctrend.grid import ObservationalFrame
from ctrend.ingest import (
    CellTable,
    FlaggedRow,
    SurveyRecord,
    _aggregate,
    _parse,
    _parse_row,
    _RowProblem,
    aggregate,
    decimal_year,
    derive_bmi,
    ingest_file,
    ingest_records,
    load_survey_file,
    state_value,
)


def rec(exam, age, bmi=None, weight=None, height=None, survey="S1", sid="x"):
    return SurveyRecord(
        subject_id=sid, survey_id=survey, exam_date=exam, age=age,
        weight=weight, height=height, bmi=bmi,
    )


def column_bytes(table):
    """Each column of a CellTable as bytes, to compare tables bit for bit."""
    return [getattr(table, f.name).tobytes() for f in fields(CellTable)]


class TestDeriveBmi:
    def test_exact_arithmetic(self):
        assert derive_bmi(rec(2000.0, 30, weight=80.0, height=2.0)) == 20.0
        assert derive_bmi(rec(2000.0, 30, weight=72.25, height=1.70)) == pytest.approx(25.0)

    def test_zero_height_is_an_error(self):
        with pytest.raises(ValueError, match="height"):
            derive_bmi(rec(2000.0, 30, weight=80.0, height=0.0))

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            derive_bmi(rec(2000.0, 30, weight=80.0))

    def test_state_value_prefers_explicit(self):
        r = rec(2000.0, 30, bmi=24.0, weight=80.0, height=2.0)
        assert state_value(r) == 24.0


class TestDecimalYear:
    def test_plain_float(self):
        assert decimal_year("1987.5") == 1987.5

    def test_iso_date(self):
        assert decimal_year("1987-01-01") == 1987.0
        assert decimal_year("1987-12-31") == pytest.approx(1987 + 364 / 365.25)

    def test_bad_date(self):
        with pytest.raises(ValueError):
            decimal_year("not-a-date")


def frame_from_data(records):
    """The frame that ingest builds around ``records``."""
    return ingest_records(records, cell_min_count=0).frame


class TestFrameFromData:
    def test_floor_ceil(self):
        records = [rec(1972.12, 25.0, bmi=25.0), rec(2002.34, 74.99, bmi=25.0)]
        frame = frame_from_data(records)
        assert (frame.y_min, frame.y_max) == (1972, 2003)
        assert (frame.a_min, frame.a_max) == (25, 75)

    def test_study_shape(self):
        records = [rec(1972.2, 25.0, bmi=25.0), rec(2002.3, 74.0, bmi=25.0)]
        frame = frame_from_data(records)
        assert frame.y_min == 1972
        assert frame.a_min == 25

    def test_exam_on_new_year_gets_its_own_row(self):
        records = [rec(2000.5, 30.0, bmi=25.0), rec(decimal_year("2008-01-01"), 31.0, bmi=25.0)]
        frame = frame_from_data(records)
        assert (frame.y_min, frame.y_max) == (2000, 2009)
        assert frame.year_cells == 9
        inside, i, _ = frame.locate([2008.0], [31.0])
        assert inside.all() and frame.year_of(i[0]) == 2008
        assert aggregate(records, frame, cell_min_count=0).n_out_of_frame == 0

    def test_single_year_frame(self):
        frame = frame_from_data([rec(2000.0, 30.0, bmi=25.0), rec(2000.0, 32.0, bmi=25.0)])
        assert (frame.y_min, frame.y_max) == (2000, 2001)
        assert frame.year_cells == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            frame_from_data([])


class TestAggregate:
    def frame(self):
        return ObservationalFrame.from_integer_bounds(2000, 2004, 30, 34)

    def test_arithmetic_mean(self):
        frame = self.frame()
        records = [rec(2000.5, 31, bmi=v, sid=str(k)) for k, v in enumerate((24.0, 25.0, 26.0))]
        result = aggregate(records, frame, cell_min_count=0)
        cells = result.cells
        assert len(cells) == 1
        assert cells.x_mean[0] == 25.0
        assert cells.n[0] == 3
        inside, i, j = frame.locate([2000.5], [31])
        assert inside.all() and (cells.i[0], cells.j[0]) == (i[0], j[0])

    def test_threshold_is_strict(self):
        frame = self.frame()
        five = [rec(2000.5, 31, bmi=24.0, sid=str(k)) for k in range(5)]
        six = five + [rec(2000.5, 31, bmi=24.0, sid="5")]
        assert len(aggregate(five, frame, cell_min_count=5).cells) == 0
        assert len(aggregate(six, frame, cell_min_count=5).cells) == 1

    def test_permutation_invariance_exact(self):
        frame = self.frame()
        rng = random.Random(13)
        records = [
            rec(2000 + rng.random() * 3.9, 30 + rng.randrange(5), bmi=20 + rng.random() * 10,
                survey=f"S{rng.randrange(3)}", sid=str(k))
            for k in range(300)
        ]
        base = column_bytes(aggregate(records, frame, cell_min_count=0).cells)
        for trial in range(3):
            shuffled = records[:]
            rng.shuffle(shuffled)
            again = column_bytes(aggregate(shuffled, frame, cell_min_count=0).cells)
            assert again == base  # exact equality, including float bits

    def test_means_stay_in_own_cell(self):
        frame = self.frame()
        rng = random.Random(7)
        records = [
            rec(2000 + rng.random() * 3.99, 30 + rng.random() * 3.99, bmi=25.0, sid=str(k))
            for k in range(200)
        ]
        cells = aggregate(records, frame, cell_min_count=0).cells
        inside, i, j = frame.locate(cells.y_mean, cells.a_mean)
        assert inside.all()
        assert np.array_equal(i, cells.i) and np.array_equal(j, cells.j)

    def test_conservation(self):
        frame = self.frame()
        rng = random.Random(3)
        records = []
        for k in range(120):
            records.append(
                rec(2000 + rng.random() * 3.9, 30 + rng.randrange(5), bmi=24.0, sid=str(k))
            )
        # push a few records outside the frame
        records += [rec(2010.5, 31, bmi=24.0, sid="of1"), rec(2001.5, 60, bmi=24.0, sid="of2")]
        result = aggregate(records, frame, cell_min_count=2)
        used = result.cells.n.sum()
        dropped = result.excluded_cells.n.sum()
        assert used + dropped + result.n_out_of_frame == len(records)


class TestCellTable:
    def table(self, i, j):
        n = len(i)
        return CellTable(i, j, [25.0] * n, [2000.5] * n, [30.5] * n, [6] * n)

    def test_columns_in_scan_order(self):
        cells = self.table([0, 0, 1, 3], [2, 4, 0, 1])
        assert len(cells) == 4
        assert cells.i.dtype == cells.n.dtype == np.int64 and cells.x_mean.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            cells.x_mean[0] = 1.0

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            CellTable([0, 1], [0, 0], [25.0], [2000.5, 2001.5], [30.5, 30.5], [6, 6])

    @pytest.mark.parametrize("i, j", [([-1, 0], [3, 0]), ([0, 1], [-2, 0])])
    def test_rejects_negative_indices(self, i, j):
        with pytest.raises(ValueError, match="non-negative"):
            self.table(i, j)

    @pytest.mark.parametrize(
        "i, j",
        [([0, 0], [1, 1]), ([2, 0, 2], [0, 3, 0]), ([0, 0], [2, 1]), ([1, 0], [0, 5])],
        ids=["repeated", "repeated apart", "age out of order", "year out of order"],
    )
    def test_rejects_repeated_and_unordered_cells(self, i, j):
        with pytest.raises(ValueError, match="repeated or out of scan order"):
            self.table(i, j)

    def test_take_keeps_row_order(self):
        cells = CellTable([0, 0, 1, 2], [1, 3, 0, 0], [1.0, 2.0, 3.0, 4.0], [2000.5] * 4, [30.5] * 4, [6, 7, 8, 9])
        picked = cells.take([0, 2, 3])
        assert (picked.i.tolist(), picked.j.tolist()) == ([0, 1, 2], [1, 0, 0])
        assert (picked.x_mean.tolist(), picked.n.tolist()) == ([1.0, 3.0, 4.0], [6, 8, 9])
        masked = cells.take(np.array([False, True, False, True]))
        assert (masked.x_mean.tolist(), masked.n.tolist()) == ([2.0, 4.0], [7, 9])
        assert len(cells.take([])) == 0
        with pytest.raises(ValueError, match="scan order"):
            cells.take([2, 0])  # rows out of scan order make no table


class TestFileIngestion:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_roundtrip_with_derivation(self, tmp_path):
        path = self.write(
            tmp_path,
            "id,survey,exam_date,age,weight,height,sex\n"
            "a,S1,2000-07-01,30,80.0,2.0,m\n"
            "b,S1,2000.6,31,72.25,1.70,m\n",
        )
        records, flagged = load_survey_file(path)
        assert not flagged
        assert [r.bmi for r in records] == [20.0, pytest.approx(25.0)]

    def test_birth_year_column(self, tmp_path):
        path = self.write(
            tmp_path,
            "survey,exam_date,birth_year,bmi\nS1,2000.5,1970,24.0\n",
        )
        records, flagged = load_survey_file(path)
        assert records[0].age == pytest.approx(30.5)

    def test_missing_value_flagged_not_dropped(self, tmp_path):
        path = self.write(
            tmp_path,
            "survey,exam_date,age,weight,height,bmi\n"
            "S1,2000.5,30,,,\n"
            "S1,2000.5,31,80.0,2.0,\n",
        )
        records, flagged = load_survey_file(path)
        assert len(records) == 1
        assert len(flagged) == 1
        assert flagged[0].missing_value

    def test_validation_flags(self, tmp_path):
        path = self.write(
            tmp_path,
            "survey,exam_date,age,bmi\n"
            "S1,1700.0,30,24.0\n"  # exam date outside sanity window
            "S1,2000.5,30,150.0\n"  # value outside plausible range
            "S1,2000.5,30,24.0\n",
        )
        records, flagged = load_survey_file(path)
        assert len(records) == 1
        assert len(flagged) == 2
        assert not any(f.missing_value for f in flagged)

    def test_extra_fields_flagged_short_rows_empty(self, tmp_path):
        path = self.write(
            tmp_path,
            "survey,exam_date,age,bmi\n"
            "S1,2000.5,30,24,5\n"  # an unquoted decimal comma
            "S1,2000.5,30\n"  # no bmi field: the value is missing
            "S1,2000.5,31,24.5\n",
        )
        records, flagged = load_survey_file(path)
        assert [r.bmi for r in records] == [24.5]
        assert flagged == [
            FlaggedRow(1, "S1", "5 fields, header has 4", False),
            FlaggedRow(2, "S1", "no bmi and no weight/height pair", True),
        ]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        rows = ["survey,exam_date,age,bmi"] + [f"S1,2000.{k + 1},30,24.{k}" for k in range(8)]
        text = "\n".join(rows) + "\n"
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode())
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = ingest_file(str(plain), cell_min_count=0), ingest_file(str(bom), cell_min_count=0)
        assert column_bytes(a.cells) == column_bytes(b.cells) and len(a.cells) == 1
        assert a.flagged == b.flagged == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_reads_as_the_file(self, tmp_path):
        """Input from a pipe, which cannot be read twice, gives the file's
        cells, flagged rows and digest."""
        rows = ["survey,exam_date,age,bmi"] + [f"S1,2000.{k + 1},30,24.{k}" for k in range(8)]
        text = "\n".join(rows + ["S1,2000.5,31,"]) + "\n"
        path = self.write(tmp_path, text)
        pipe = str(tmp_path / "pipe")
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed, daemon=True)  # blocks in open() until read
        writer.start()
        try:
            piped = ingest_file(pipe, cell_min_count=0)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        plain = ingest_file(path, cell_min_count=0)
        assert column_bytes(piped.cells) == column_bytes(plain.cells)
        assert (piped.flagged, piped.sha256) == (plain.flagged, plain.sha256)

    def test_semicolon_delimiter(self, tmp_path):
        path = self.write(tmp_path, "survey;exam_date;age;bmi\nS1;2000.5;30;24.0\n")
        records, _ = load_survey_file(path)
        assert records[0].bmi == 24.0

    def test_missing_required_column(self, tmp_path):
        path = self.write(tmp_path, "survey,age,bmi\nS1,30,24.0\n")
        with pytest.raises(ValueError, match="exam_date"):
            load_survey_file(path)

    def test_ingest_file_report(self, tmp_path):
        rows = ["survey,exam_date,age,bmi"]
        for k in range(8):
            rows.append(f"S1,2000.{k + 1},30,24.{k}")
        rows.append("S1,2000.5,31,")  # missing
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        result = ingest_file(path, cell_min_count=0)
        report = result.report()
        totals = report["totals"]
        assert totals["n_input"] == 9
        assert totals["n_used"] + totals["n_flagged"] + totals["n_excluded"] == 9
        assert report["surveys"][0]["n_missing"] == 1
        assert report["surveys"][0]["missing_pct"] == pytest.approx(100 / 9, abs=0.01)

    def test_empty_data_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "survey,exam_date,age,bmi\n")
        with pytest.raises(ValueError, match="no records"):
            ingest_file(path)

    def test_all_cells_excluded_is_hard_error(self, tmp_path):
        path = self.write(tmp_path, "survey,exam_date,age,bmi\nS1,2000.5,30,24.0\n")
        with pytest.raises(ValueError, match="no analyzable cells"):
            ingest_file(path, cell_min_count=5)


class TestTableShapedCellCount:
    def test_295_cells(self):
        """Seven surveys with age ranges 35+40+40+40+40+50+50 populate 295 cells."""
        from ctrend.simulate import table_shaped_scenario, simulate

        scenario = table_shaped_scenario(seed=1, noise_sd=0.0, samples_per_age=1)
        records = simulate(scenario)
        assert len(records) == 295
        result = ingest_records(records, frame=scenario.frame, cell_min_count=0)
        assert len(result.cells) == 295
        assert result.n_used == 295


def _reference_parse(text):
    """The per-row reader: csv.DictReader and ``_parse_row`` on every row.
    Returns ``(used, flagged)``, ``used`` as (survey, exam, age, value)."""
    try:
        dialect = csv.Sniffer().sniff(text[:4096], delimiters=",;\t")
    except csv.Error:
        dialect = csv.excel
    reader = csv.DictReader(io.StringIO(text, newline=""), dialect=dialect)
    columns = {name.strip().lower(): name for name in reader.fieldnames}

    def get(row, *names):
        for name in names:
            src = columns.get(name)
            if src is not None and row.get(src) not in (None, ""):
                return row[src]
        return None

    used, flagged = [], []
    for lineno, row in enumerate(reader, start=1):
        survey = (get(row, "survey", "survey_id") or "").strip()
        try:
            if None in row:  # DictReader's key for fields beyond the header
                width = len(reader.fieldnames)
                raise _RowProblem(f"{width + len(row[None])} fields, header has {width}")
            rec = _parse_row(row, lineno, survey, get)
        except _RowProblem as problem:
            flagged.append(FlaggedRow(lineno, survey, problem.reason, problem.missing_value))
            continue
        used.append((rec.survey_id, rec.exam_date, rec.age, rec.bmi))
    return used, flagged


def _reference_cells(used, frame):
    """Plain-Python grouping: ``frame.locate`` of one point at a time and
    ``math.fsum`` per cell."""
    groups = {}
    for survey, exam, age, value in used:
        inside, i, j = frame.locate([exam], [age])
        if inside[0]:
            groups.setdefault((int(i[0]), int(j[0])), []).append((value, exam, age))
    return [
        (cell, *(math.fsum(m[k] for m in members) / len(members) for k in range(3)), len(members))
        for cell, members in sorted(groups.items())
    ]


def _bits(x):
    return x.hex() if isinstance(x, float) else x


_NUMBER_TEXT = st.sampled_from(
    ["", ".", " ", "nan", "inf", "-inf", "1e2", "1_000", " 30 ", "-0", "abc", "1.2.3", "1e", "0x10", "--1"]
)
_FIELDS = {  # any text, most of it invalid
    "survey": st.sampled_from(["", "  ", "?"]),
    "survey_id": st.sampled_from(["", "  "]),
    "exam_date": st.one_of(
        st.floats(1890, 2110).map(repr),
        st.dates().map(lambda d: d.isoformat()),
        st.sampled_from(["1900", "2100", "1899.999", "2100.001", "2000-02-30"]),
        _NUMBER_TEXT,
    ),
    "age": st.one_of(
        st.floats(-5, 120).map(repr), st.sampled_from(["-1", "-0.5", "0", "60", "1e2"]), _NUMBER_TEXT
    ),
    "birth_year": st.one_of(st.floats(1850, 2050).map(repr), _NUMBER_TEXT),
    "bmi": st.one_of(
        st.floats(0, 120).map(repr), st.sampled_from(["10", "100", "10.0", "100.0", "1e1"]), _NUMBER_TEXT
    ),
    "weight": st.one_of(st.sampled_from(["1e200", "1e-200", "0", "-5"]), _NUMBER_TEXT),
    "height": st.one_of(
        st.floats(-1, 3).map(repr), st.sampled_from(["0", "-1.7", "0.0", "1e-200", "1e200"]), _NUMBER_TEXT
    ),
    "id": st.sampled_from(["a", ""]),
}
_VALID_FIELDS = {  # valid text, some of it on the edges of the test frame
    "survey": st.sampled_from(["S1", "S2", " S1 "]),
    "survey_id": st.sampled_from(["S3", ""]),
    "exam_date": st.one_of(
        st.floats(1955, 2045).map(repr),
        st.dates(datetime.date(1955, 1, 1), datetime.date(2045, 12, 31)).map(lambda d: d.isoformat()),
        st.sampled_from(["1960", "2040", "2039.999", "1900", "2100"]),
    ),
    "age": st.one_of(st.floats(0, 59).map(repr), st.sampled_from(["5", "55", "30"])),
    "birth_year": st.floats(1900, 2040).map(repr),
    "bmi": st.one_of(st.floats(10.5, 99).map(repr), st.just("")),
    "weight": st.floats(30, 150).map(repr),
    "height": st.floats(1.2, 2.1).map(repr),
    "id": st.just("a"),
}
_TEST_FRAME = ObservationalFrame.from_integer_bounds(1960, 2040, 5, 55)


_ROW_KINDS = ["valid", "one field", "one field", "any", "short", "long", "blank"]


def _header(draw):
    names = ["survey", "exam_date", draw(st.sampled_from(["age", "birth_year"]))]
    names += draw(st.lists(st.sampled_from(["survey_id", "bmi", "weight", "height", "id"]), unique=True))
    names = draw(st.permutations(names))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(names)))  # a repeated column: the last one is read
    return names, ",".join(draw(st.sampled_from([name, name.upper(), f" {name} "])) for name in names)


def _line(draw, names, kind):
    fields = [draw(_VALID_FIELDS[name]) for name in names]
    if kind == "one field":
        k = draw(st.integers(0, len(names) - 1))
        fields[k] = draw(_FIELDS[names[k]])
    elif kind == "any":
        fields = [draw(st.one_of(_VALID_FIELDS[name], _FIELDS[name])) for name in names]
    elif kind == "short":
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    elif kind == "long":
        fields.append(draw(st.sampled_from(["5", ""])))
    elif kind == "blank":
        fields = []
    return ",".join(fields)


@st.composite
def _survey_files(draw):
    names, header = _header(draw)
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(_line(draw, names, draw(st.sampled_from(_ROW_KINDS))))
    return "\n".join(lines) + "\n"


@st.composite
def _block_files(draw):
    """A file of at least three blocks of ``block_rows`` reader rows, and
    that block size.  The first and last row of every block is a row the
    masks reject, a blank line or a ragged row, or a valid one; some files
    end on a block boundary."""
    block_rows = draw(st.integers(2, 5))
    n = draw(st.integers(3, 4)) * block_rows + draw(st.sampled_from([0, 0, 1, block_rows - 1]))
    names, header = _header(draw)
    lines = [header]
    for r in range(n):
        edge = r % block_rows in (0, block_rows - 1)
        kinds = ["one field", "any", "blank", "short", "long", "valid"] if edge else _ROW_KINDS
        lines.append(_line(draw, names, draw(st.sampled_from(kinds))))
    return "\n".join(lines) + "\n", block_rows


class TestColumnarParse:
    """The bulk parser against ``_parse_row`` row by row, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(_survey_files())
    @example("survey,exam_date,age,bmi,weight\nS1,2000.5,30,24.0,abc\nS1,2000.5,30,24.0,.\n")
    def test_matches_per_row_parser(self, text):
        used, flagged = _reference_parse(text)
        columns, flagged_bulk = _parse(io.StringIO(text, newline=""), "random.csv")
        assert flagged_bulk == flagged
        bulk = list(zip(*(col.tolist() for col in (columns.survey, columns.exam, columns.age, columns.value))))
        assert [tuple(map(_bits, r)) for r in bulk] == [tuple(map(_bits, r)) for r in used]
        cells = _aggregate(columns, _TEST_FRAME, cell_min_count=0).cells
        where, *expected = list(zip(*_reference_cells(used, _TEST_FRAME))) or [()] * 5
        assert list(zip(cells.i.tolist(), cells.j.tolist())) == list(where)
        for got, column in zip((cells.x_mean, cells.y_mean, cells.a_mean, cells.n), expected):
            assert [_bits(x) for x in got.tolist()] == [_bits(x) for x in column]

    @settings(max_examples=300, deadline=None)
    @given(_block_files())
    @example(("survey,exam_date,age,bmi\n" + "S1,2000.5,30,24.0\n" * 5 + "S1,2000.5,30\n", 3))
    @example(("survey,exam_date,age,bmi\n" + "S1,2000.5,30,24.0,5\n\nS1,2000.5,30,24.0\n" * 3, 3))
    def test_blocks_match_one_block(self, file):
        """Parsed in blocks of a few rows, a file gives the columns and the
        flagged rows, line numbers included, of the per-row reader and of a
        parse in one block."""
        text, block_rows = file
        with mock.patch.object(ingest, "BLOCK_ROWS", len(text)):
            whole, flagged_whole = _parse(io.StringIO(text, newline=""), "random.csv")
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            columns, flagged = _parse(io.StringIO(text, newline=""), "random.csv")
        assert flagged == flagged_whole == _reference_parse(text)[1]
        for got, expected in zip(
            (columns.survey, columns.exam, columns.age, columns.value),
            (whole.survey, whole.exam, whole.age, whole.value),
        ):
            assert [_bits(x) for x in got.tolist()] == [_bits(x) for x in expected.tolist()]
