"""Survey-file ingestion: parse, validate, derive BMI, aggregate to cells.

Input format: delimited text (comma, semicolon or tab) in UTF-8, with a
header row; a leading byte-order mark is dropped.  Recognised columns:

=============  =========================================================
``survey``     survey identifier (required)
``exam_date``  ISO date ``YYYY-MM-DD`` or decimal year (required)
``age``        age in full years; alternatively ``birth_year`` (one
               of the two is required; with ``birth_year`` the age is
               ``exam_date - birth_year`` as a real number)
``bmi``        state-variable value in kg/m^2 (optional when ``weight``
               and ``height`` are both present)
``weight``     kg   (used with ``height`` when ``bmi`` is absent)
``height``     m
``id``         opaque subject token (optional, not read)
``sex``        category token (optional, not read)
=============  =========================================================

A row with more fields than the header is flagged; a shorter row's missing
trailing fields are empty.  Every input row is accounted for exactly once:
it ends up used (in a kept cell), flagged (missing value fields or failed
validation), or excluded (cell below the count threshold, or outside an
explicitly given frame).

Ingest is columnar and reads the file ``BLOCK_ROWS`` rows at a time, so
its memory does not grow with the row count beyond the validated columns.
In each block the needed columns are converted to float arrays in bulk
and vectorised masks apply the validation rules; only the rows the
masks reject go through the per-row parser ``_parse_row``, which names
the reason a row is flagged or recovers the row (an ISO exam date, an age
from ``birth_year`` where ``age`` is empty, a value field such as ``.``).
The masks may reject a valid row but never accept one that ``_parse_row``
rejects.  Record lists (``load_survey_file``, ``ingest_records``,
``aggregate``) go through the same columns, so there is one aggregator and
one report builder.  The cell means come out as one :class:`CellTable` of
columns in scan order, which the domain, the design and the bundle read
with no object per cell.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import itertools
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .grid import ObservationalFrame

__all__ = [
    "SurveyRecord",
    "CellTable",
    "FlaggedRow",
    "IngestResult",
    "derive_bmi",
    "state_value",
    "decimal_year",
    "load_survey_file",
    "aggregate",
    "ingest_records",
    "ingest_file",
]

EXAM_DATE_WINDOW = (1900.0, 2100.0)
VALUE_WINDOW = (10.0, 100.0)  # plausible BMI range, exclusive bounds
DEFAULT_CELL_MIN_COUNT = 5  # cells with n <= this are excluded
BLOCK_ROWS = 1024  # rows of the file validated together


@dataclass
class SurveyRecord:
    subject_id: str
    survey_id: str
    exam_date: float  # decimal calendar years
    age: float  # real years at examination
    weight: float | None = None  # kg
    height: float | None = None  # m
    bmi: float | None = None  # kg/m^2
    sex: str = ""


@dataclass(frozen=True, eq=False)
class CellTable:
    """Aggregated unit year-age cells as columns, one row per cell.

    Rows are in scan order: by year index ``i``, then age index ``j``, each
    cell at most once, with non-negative indices.  The columns are read-only.
    """

    i: np.ndarray  # relative year index
    j: np.ndarray  # relative age index
    x_mean: np.ndarray  # state-variable units
    y_mean: np.ndarray  # calendar years (absolute)
    a_mean: np.ndarray  # years (absolute)
    n: np.ndarray  # records in the cell

    def __post_init__(self):
        for f, dtype in zip(fields(self), (np.int64, np.int64, float, float, float, np.int64)):
            column = np.array(getattr(self, f.name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, f.name, column)
        if len({getattr(self, f.name).shape for f in fields(self)}) > 1:
            raise ValueError("cell columns of unequal lengths")
        if (self.i < 0).any() or (self.j < 0).any():
            raise ValueError("cell indices must be non-negative")
        step_i, step_j = np.diff(self.i), np.diff(self.j)
        if not ((step_i > 0) | (step_i == 0) & (step_j > 0)).all():
            raise ValueError("cells repeated or out of scan order")

    def __len__(self) -> int:
        return len(self.n)

    def take(self, rows) -> "CellTable":
        """The cells at ``rows`` (indices or a boolean mask), in their order."""
        return CellTable(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class FlaggedRow:
    row: int  # 1-based data row number
    survey_id: str
    reason: str
    missing_value: bool  # True when the state variable could not be formed


@dataclass(frozen=True)
class _Columns:
    """Validated rows as parallel arrays, in input order."""

    survey: np.ndarray  # str objects
    exam: np.ndarray  # decimal calendar years
    age: np.ndarray  # real years
    value: np.ndarray  # state variable

    @classmethod
    def from_records(cls, records) -> "_Columns":
        records = list(records)
        return cls(
            np.array([r.survey_id for r in records], dtype=object),
            np.array([r.exam_date for r in records], dtype=float),
            np.array([r.age for r in records], dtype=float),
            np.array([state_value(r) for r in records], dtype=float),
        )

    def records(self) -> list:
        """One SurveyRecord per row, the value as ``bmi``."""
        return [
            SurveyRecord("", survey, exam, age, bmi=value)
            for survey, exam, age, value in zip(
                self.survey.tolist(), self.exam.tolist(), self.age.tolist(), self.value.tolist()
            )
        ]


@dataclass
class IngestResult:
    frame: ObservationalFrame
    cells: CellTable  # kept cells
    flagged: list  # FlaggedRow
    excluded_cells: CellTable  # cells with n <= threshold
    surveys: list  # per-survey report rows, sorted by survey id
    n_records: int  # validated rows
    n_out_of_frame: int = 0
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT
    source: str = ""
    sha256: str = ""  # hex SHA-256 of the parsed file's bytes; empty for in-memory records

    @property
    def n_input(self) -> int:
        return self.n_records + len(self.flagged)

    @property
    def n_used(self) -> int:
        return int(self.cells.n.sum())

    @property
    def n_flagged(self) -> int:
        return len(self.flagged)

    @property
    def n_excluded(self) -> int:
        return int(self.excluded_cells.n.sum()) + self.n_out_of_frame

    def report(self) -> dict:
        """JSON-ready ingestion report; per-survey rows mirror the usual
        survey-description table (dates, age range, counts, missing %)."""
        return {
            "source": self.source,
            "frame": asdict(self.frame),
            "cell_min_count": self.cell_min_count,
            "surveys": [dict(row) for row in self.surveys],
            "totals": {
                "n_input": self.n_input,
                "n_used": self.n_used,
                "n_flagged": self.n_flagged,
                "n_flagged_missing": sum(1 for f in self.flagged if f.missing_value),
                "n_flagged_invalid": sum(1 for f in self.flagged if not f.missing_value),
                "n_excluded": self.n_excluded,
                "n_excluded_cell_records": int(self.excluded_cells.n.sum()),
                "n_out_of_frame": self.n_out_of_frame,
                "n_cells_kept": len(self.cells),
                "n_cells_excluded": len(self.excluded_cells),
            },
        }


def _survey_row(survey, start=None, finish=None, age_min=None, age_max=None, n_rows=0) -> dict:
    return {
        "survey": survey,
        "start": start,
        "finish": finish,
        "age_min": age_min,
        "age_max": age_max,
        "n_rows": n_rows,
        "n_missing": 0,
        "n_invalid": 0,
    }


def _survey_rows(columns: _Columns, flagged) -> list:
    """Per-survey report rows: exam-date and age ranges and the count of the
    validated rows, plus the flagged rows counted as missing or invalid."""
    survey = columns.survey.tolist()
    ids = sorted(set(survey))
    code = {sid: k for k, sid in enumerate(ids)}
    inverse = np.fromiter(map(code.__getitem__, survey), np.intp, len(survey))
    counts = np.bincount(inverse, minlength=len(ids))
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    exam, age = columns.exam[order], columns.age[order]
    surveys = {
        sid: _survey_row(sid, *stats)
        for sid, *stats in zip(
            ids,
            np.minimum.reduceat(exam, starts).tolist(),
            np.maximum.reduceat(exam, starts).tolist(),
            np.minimum.reduceat(age, starts).tolist(),
            np.maximum.reduceat(age, starts).tolist(),
            counts.tolist(),
        )
    }
    for fl in flagged:
        row = surveys.setdefault(fl.survey_id or "?", _survey_row(fl.survey_id or "?"))
        row["n_rows"] += 1
        row["n_missing" if fl.missing_value else "n_invalid"] += 1
    for row in surveys.values():
        row["missing_pct"] = round(100.0 * row["n_missing"] / row["n_rows"], 2)
    return sorted(surveys.values(), key=lambda r: str(r["survey"]))


def derive_bmi(record: SurveyRecord) -> float:
    """weight (kg) / height (m)^2; requires both fields and height > 0."""
    if record.weight is None or record.height is None:
        raise ValueError("cannot derive BMI: weight or height missing")
    if record.height <= 0:
        raise ValueError(f"cannot derive BMI: height {record.height!r} not positive")
    return record.weight / record.height**2


def state_value(record: SurveyRecord) -> float:
    """The record's state-variable value: explicit BMI, else derived."""
    if record.bmi is not None:
        return record.bmi
    return derive_bmi(record)


def decimal_year(text: str) -> float:
    """Parse an exam date: ISO date or decimal year.

    ISO dates convert with day-of-year / 365.25, counting January 1 as 0.
    """
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    date = datetime.date.fromisoformat(text)
    doy = date.timetuple().tm_yday
    return date.year + (doy - 1) / 365.25


def _float_or_none(raw: str | None) -> float | None:
    if raw is None:
        return None
    raw = raw.strip()
    if raw == "" or raw == ".":
        return None
    return float(raw)


def _floats(fields: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert text fields in bulk, as ``float()`` converts each.

    Returns the values (NaN where a field does not convert), the mask of
    fields that converted and the mask of empty fields.  NumPy converts str
    objects with Python's own ``float``, so the values and the accepted
    syntax are ``float()``'s.
    """
    n = len(fields)
    empty = np.zeros(n, dtype=bool)
    if "" in fields:
        empty = ~np.fromiter(map(bool, fields), bool, n)
        fields = [f or "nan" for f in fields]
    try:
        return np.array(fields, dtype=float), ~empty, empty
    except ValueError:  # some field is not a number: find which, one by one
        pass
    values = np.full(n, np.nan)
    parsed = np.zeros(n, dtype=bool)
    for k in np.flatnonzero(~empty).tolist():
        try:
            values[k] = float(fields[k])
        except ValueError:
            continue
        parsed[k] = True
    return values, parsed, empty


_DIALECT_DELIMS = ",;\t"


def load_survey_file(path: str) -> tuple[list[SurveyRecord], list[FlaggedRow]]:
    """Read and validate one survey file.

    Returns the validated records plus one FlaggedRow per rejected input row
    (nothing is silently dropped).  A record carries the survey, exam date,
    age and value (as ``bmi``) that ingest uses.
    """
    _, columns, flagged = _read(path)
    return columns.records(), flagged


def _read(path: str) -> tuple[str, _Columns, list[FlaggedRow]]:
    """The hex SHA-256 of the file's bytes, its validated rows as columns
    and its flagged rows."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: hold its bytes, since they are read twice
            fh = io.BytesIO(fh.read())
        digest = hashlib.sha256()
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
        fh.seek(0)
        stream = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")
        try:
            return (digest.hexdigest(), *_parse(stream, path))
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None


def _parse(fh, path: str) -> tuple[_Columns, list[FlaggedRow]]:
    """Validate every data row of a text stream into columns.

    Rows are numbered from 1, skipping blank lines.  The reader's rows are
    validated ``BLOCK_ROWS`` at a time, and no per-row object outlives its
    block except a flagged row's ``FlaggedRow``: each survey id is held
    once, however many rows carry it.
    """
    sample = fh.read(4096)
    fh.seek(0)
    try:
        dialect = csv.Sniffer().sniff(sample, delimiters=_DIALECT_DELIMS)
    except csv.Error:
        dialect = csv.excel
    try:
        reader = csv.reader(fh, dialect)
        header = next(reader, None)
    except csv.Error as err:
        raise ValueError(f"{path}: {err}") from None
    if header is None:
        raise ValueError(f"{path}: empty file, no header row")
    # the last column of a name wins
    position = {name.strip().lower(): k for k, name in enumerate(header)}
    if "survey" not in position and "survey_id" not in position:
        raise ValueError(f"{path}: missing required column 'survey'")
    if "exam_date" not in position:
        raise ValueError(f"{path}: missing required column 'exam_date'")
    if "age" not in position and "birth_year" not in position:
        raise ValueError(f"{path}: need an 'age' or 'birth_year' column")

    block = _BlockValidator(position, len(header))
    parts = []
    lines = reader.line_num
    while True:
        try:
            raw = list(itertools.islice(reader, BLOCK_ROWS))
        except csv.Error as err:
            raise ValueError(f"{path}: {err}") from None
        rows = [row for row in raw if row]
        if reader.line_num - lines != len(raw):  # a field ran over a line break
            _reject_line_breaks(rows, block.rows_before, path)
        lines = reader.line_num
        parts.append(block.validate(rows))
        if len(raw) < BLOCK_ROWS:
            break
    return _Columns(*map(np.concatenate, zip(*parts))), block.flagged


def _reject_line_breaks(rows: list, rows_before: int, path: str) -> None:
    """Reject the first row with a field that holds a line break.  No
    survey field holds one: a quote left open reads every later line, up
    to the next quote or the end of the file, into its field."""
    for k, row in enumerate(rows):
        if any("\n" in text or "\r" in text for text in row):
            raise ValueError(
                f"{path}: row {rows_before + k + 1} opens a quoted field that runs over "
                "a line break (an unclosed quote?)"
            )


class _BlockValidator:
    """Validation of a file's rows one block at a time, with what the
    blocks share: the header's column positions, the survey ids seen, the
    flagged rows and the number of rows validated so far."""

    def __init__(self, position: dict, width: int):
        self.columns = position
        self.width = width
        self.survey_ids: dict = {}  # each id text to the one str object the rows share
        self.flagged: list[FlaggedRow] = []
        self.rows_before = 0

    def get(self, row, *names):
        for name in names:
            k = self.columns.get(name)
            if k is not None and row[k] != "":
                return row[k]
        return None

    def validate(self, rows: list) -> tuple:
        """The next block of non-blank rows as the (survey, exam, age, value)
        columns of its valid rows; its rejected rows join ``flagged``."""
        position, width = self.columns, self.width
        n = len(rows)
        lengths = np.fromiter(map(len, rows), np.intp, n)
        for k in np.flatnonzero(lengths < width).tolist():
            rows[k] = rows[k] + [""] * (width - len(rows[k]))

        def column(name):
            k = position[name]
            return [row[k] for row in rows]

        if "survey" in position and "survey_id" in position:
            survey = [a or b for a, b in zip(column("survey"), column("survey_id"))]
        else:
            survey = column("survey" if "survey" in position else "survey_id")
        ids = self.survey_ids
        survey = np.array([ids.setdefault(sid, sid) for sid in map(str.strip, survey)], dtype=object)
        ok = (survey != "") & (lengths <= width)

        exam, parsed, _ = _floats(column("exam_date"))
        ok &= parsed & (exam >= EXAM_DATE_WINDOW[0]) & (exam <= EXAM_DATE_WINDOW[1])
        if "age" in position:
            age, parsed, _ = _floats(column("age"))
        else:
            birth, parsed, _ = _floats(column("birth_year"))
            with np.errstate(invalid="ignore"):
                age = exam - birth
        ok &= parsed & np.isfinite(age) & (age >= 0)

        numbers = {}
        for name in ("weight", "height", "bmi"):
            if name in position:
                values, parsed, empty = _floats(column(name))
                ok &= parsed | empty
            else:
                values, parsed = np.full(n, np.nan), np.zeros(n, dtype=bool)
            numbers[name] = values, parsed
        weight, has_weight = numbers["weight"]
        height, has_height = numbers["height"]
        value, has_bmi = numbers["bmi"]
        derive = np.flatnonzero(ok & ~has_bmi & has_weight & has_height & (height > 0))
        try:
            # derive_bmi's arithmetic, row by row
            value[derive] = [w / h**2 for w, h in zip(weight[derive].tolist(), height[derive].tolist())]
        except ArithmeticError:  # height**2 overflowed or underflowed: _parse_row flags the row
            ok[derive] = False
        ok &= (value > VALUE_WINDOW[0]) & (value < VALUE_WINDOW[1])

        for k in np.flatnonzero(~ok).tolist():
            row, lineno = rows[k], self.rows_before + k + 1
            try:
                if len(row) > width:
                    raise _RowProblem(f"{len(row)} fields, header has {width}")
                rec = _parse_row(row, lineno, survey[k], self.get)
            except _RowProblem as problem:
                self.flagged.append(FlaggedRow(lineno, survey[k], problem.reason, problem.missing_value))
                continue
            exam[k], age[k], value[k] = rec.exam_date, rec.age, rec.bmi
            ok[k] = True
        self.rows_before += n
        return survey[ok], exam[ok], age[ok], value[ok]


class _RowProblem(Exception):
    def __init__(self, reason: str, missing_value: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.missing_value = missing_value


def _parse_row(row, lineno, survey, get) -> SurveyRecord:
    if not survey:
        raise _RowProblem("empty survey id")
    raw_date = get(row, "exam_date")
    if raw_date is None:
        raise _RowProblem("missing exam_date")
    try:
        exam = decimal_year(raw_date)
    except ValueError:
        raise _RowProblem(f"unparseable exam_date {raw_date!r}")
    if not (EXAM_DATE_WINDOW[0] <= exam <= EXAM_DATE_WINDOW[1]):
        raise _RowProblem(f"exam_date {exam} outside sanity window {EXAM_DATE_WINDOW}")

    try:
        raw_age = get(row, "age")
        if raw_age is not None:
            age = float(raw_age)
        else:
            birth = _float_or_none(get(row, "birth_year"))
            if birth is None:
                raise _RowProblem("missing age and birth_year")
            age = exam - birth
        weight = _float_or_none(get(row, "weight"))
        height = _float_or_none(get(row, "height"))
        bmi = _float_or_none(get(row, "bmi"))
    except _RowProblem:
        raise
    except ValueError as err:
        raise _RowProblem(f"unparseable number: {err}")

    if not math.isfinite(age) or age < 0:
        raise _RowProblem(f"implausible age {age!r}")

    rec = SurveyRecord(
        subject_id=(get(row, "id", "subject_id") or f"row{lineno}").strip(),
        survey_id=survey,
        exam_date=exam,
        age=age,
        weight=weight,
        height=height,
        bmi=bmi,
        sex=(get(row, "sex") or "").strip(),
    )
    if rec.bmi is None:
        if rec.weight is None or rec.height is None:
            raise _RowProblem("no bmi and no weight/height pair", missing_value=True)
        if rec.height <= 0:
            raise _RowProblem(f"height {rec.height!r} not positive")
        try:
            rec.bmi = derive_bmi(rec)
        except ArithmeticError:
            raise _RowProblem(f"height {rec.height!r} squared is out of float range")
    if not (VALUE_WINDOW[0] < rec.bmi < VALUE_WINDOW[1]):
        raise _RowProblem(f"value {rec.bmi} outside plausible range {VALUE_WINDOW}")
    return rec


def _frame(exam, age) -> ObservationalFrame:
    """Integer frame bounds that hold every exam date and age.

    Years run from the floor of the earliest exam date to one past the floor
    of the latest, since the upper year bound is open; ages run from the
    floor of the youngest age to the ceiling of the oldest.
    """
    y_lo = math.floor(np.min(exam))
    y_hi = math.floor(np.max(exam)) + 1
    a_lo = math.floor(np.min(age))
    a_hi = math.ceil(np.max(age))
    if a_hi == a_lo:
        a_hi += 1
    return ObservationalFrame.from_integer_bounds(y_lo, y_hi, a_lo, a_hi)


@dataclass
class AggregationResult:
    cells: CellTable
    excluded_cells: CellTable
    n_out_of_frame: int = 0


def aggregate(records, frame: ObservationalFrame, cell_min_count: int = DEFAULT_CELL_MIN_COUNT) -> AggregationResult:
    """Collapse records into per-cell arithmetic means.

    Cells with ``n <= cell_min_count`` contributing records are excluded
    (returned separately, never silently dropped).  The output is invariant
    under permutation of the input: each cell's sums are ``math.fsum``, which
    is exactly rounded, so repeated runs produce bit-identical statistics.
    """
    return _aggregate(_Columns.from_records(records), frame, cell_min_count)


def _aggregate(columns: _Columns, frame: ObservationalFrame, cell_min_count: int) -> AggregationResult:
    inside, i, j = frame.locate(columns.exam, columns.age)
    key = i * frame.age_cells + j
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    bounds = starts.tolist() + [len(order)]
    n = np.diff(bounds)

    def means(values):
        values = values[inside][order].tolist()
        return np.array([math.fsum(values[s:e]) for s, e in zip(bounds, bounds[1:])]) / n

    x, y, a = means(columns.value), means(columns.exam), means(columns.age)
    cells = CellTable(i[order][starts], j[order][starts], x, y, a, n)
    kept = n > cell_min_count
    return AggregationResult(cells.take(kept), cells.take(~kept), int(np.count_nonzero(~inside)))


def ingest_records(
    records,
    flagged=None,
    frame: ObservationalFrame | None = None,
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT,
    source: str = "",
) -> IngestResult:
    return _ingest(_Columns.from_records(records), list(flagged or []), frame, cell_min_count, source)


def _ingest(
    columns: _Columns,
    flagged: list,
    frame: ObservationalFrame | None,
    cell_min_count: int,
    source: str,
) -> IngestResult:
    if not len(columns.exam):
        if flagged:
            raise ValueError("no usable records: every input row was flagged")
        raise ValueError("no records to ingest")
    if frame is None:
        frame = _frame(columns.exam, columns.age)
    agg = _aggregate(columns, frame, cell_min_count)
    if not len(agg.cells):
        fullest = int(agg.excluded_cells.n.max(initial=0))
        raise ValueError(
            "no analyzable cells: every populated cell fell at or below "
            f"the count threshold {cell_min_count} (the fullest cell has {fullest} "
            f"record{'' if fullest == 1 else 's'}; lower cell_min_count / --cell-min-count "
            "or add records)"
        )
    return IngestResult(
        frame=frame,
        cells=agg.cells,
        flagged=flagged,
        excluded_cells=agg.excluded_cells,
        surveys=_survey_rows(columns, flagged),
        n_records=len(columns.exam),
        n_out_of_frame=agg.n_out_of_frame,
        cell_min_count=cell_min_count,
        source=source,
    )


def ingest_file(path: str, cell_min_count: int = DEFAULT_CELL_MIN_COUNT) -> IngestResult:
    """Ingest one survey file over the integer frame that holds its data,
    recording the SHA-256 of the bytes parsed."""
    sha256, columns, flagged = _read(path)
    result = _ingest(columns, flagged, None, cell_min_count, os.path.basename(path))
    result.sha256 = sha256
    return result
