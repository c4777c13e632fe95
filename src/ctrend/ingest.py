"""Survey-file ingestion: parse, validate, derive BMI, aggregate to cells.

Input format: delimited text (comma, semicolon or tab) with a header row.
Recognised columns:

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
``id``         opaque subject token (optional)
``sex``        category token (optional, carried through)
=============  =========================================================

Every input row is accounted for exactly once: it ends up used (in a kept
cell), flagged (missing value fields or failed validation), or excluded
(cell below the count threshold, or outside an explicitly given frame).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

from .grid import CellIndex, ObservationalFrame, OutOfFrameError

__all__ = [
    "SurveyRecord",
    "CellStat",
    "FlaggedRow",
    "IngestResult",
    "derive_bmi",
    "state_value",
    "decimal_year",
    "load_survey_file",
    "frame_from_data",
    "aggregate",
    "ingest_records",
    "ingest_file",
]

EXAM_DATE_WINDOW = (1900.0, 2100.0)
VALUE_WINDOW = (10.0, 100.0)  # plausible BMI range, exclusive bounds
DEFAULT_CELL_MIN_COUNT = 5  # cells with n <= this are excluded


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


@dataclass(frozen=True)
class CellStat:
    """Aggregated observations for one unit year-age cell."""

    cell: CellIndex
    x_mean: float  # state-variable units
    y_mean: float  # calendar years (absolute)
    a_mean: float  # years (absolute)
    n: int

    def offset(self, frame: ObservationalFrame) -> float:
        """Within-cell year offset of the mean exam date, in [0, 1)."""
        return self.y_mean - (frame.year_base + self.cell.i)


@dataclass(frozen=True)
class FlaggedRow:
    row: int  # 1-based data row number
    survey_id: str
    reason: str
    missing_value: bool  # True when the state variable could not be formed


@dataclass
class IngestResult:
    frame: ObservationalFrame
    cells: list  # kept CellStat, cell scan order
    records: list  # validated records (in input order)
    flagged: list  # FlaggedRow
    excluded_cells: list  # CellStat for cells with n <= threshold
    n_out_of_frame: int = 0
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT
    source: str = ""
    sha256: str = ""  # hex SHA-256 of the parsed file's bytes; empty for in-memory records

    @property
    def n_input(self) -> int:
        return len(self.records) + len(self.flagged)

    @property
    def n_used(self) -> int:
        return sum(c.n for c in self.cells)

    @property
    def n_flagged(self) -> int:
        return len(self.flagged)

    @property
    def n_excluded(self) -> int:
        return sum(c.n for c in self.excluded_cells) + self.n_out_of_frame

    def report(self) -> dict:
        """JSON-ready ingestion report; per-survey rows mirror the usual
        survey-description table (dates, age range, counts, missing %)."""
        surveys: dict[str, dict] = {}
        for rec in self.records:
            row = surveys.setdefault(
                rec.survey_id,
                {
                    "survey": rec.survey_id,
                    "start": rec.exam_date,
                    "finish": rec.exam_date,
                    "age_min": rec.age,
                    "age_max": rec.age,
                    "n_rows": 0,
                    "n_missing": 0,
                    "n_invalid": 0,
                },
            )
            row["start"] = min(row["start"], rec.exam_date)
            row["finish"] = max(row["finish"], rec.exam_date)
            row["age_min"] = min(row["age_min"], rec.age)
            row["age_max"] = max(row["age_max"], rec.age)
            row["n_rows"] += 1
        for fl in self.flagged:
            row = surveys.setdefault(
                fl.survey_id or "?",
                {
                    "survey": fl.survey_id or "?",
                    "start": None,
                    "finish": None,
                    "age_min": None,
                    "age_max": None,
                    "n_rows": 0,
                    "n_missing": 0,
                    "n_invalid": 0,
                },
            )
            row["n_rows"] += 1
            if fl.missing_value:
                row["n_missing"] += 1
            else:
                row["n_invalid"] += 1
        for row in surveys.values():
            n = row["n_rows"]
            row["missing_pct"] = round(100.0 * row["n_missing"] / n, 2) if n else 0.0
        return {
            "source": self.source,
            "frame": {
                "y_min": self.frame.y_min,
                "y_max": self.frame.y_max,
                "a_min": self.frame.a_min,
                "a_max": self.frame.a_max,
            },
            "cell_min_count": self.cell_min_count,
            "surveys": sorted(surveys.values(), key=lambda r: str(r["survey"])),
            "totals": {
                "n_input": self.n_input,
                "n_used": self.n_used,
                "n_flagged": self.n_flagged,
                "n_flagged_missing": sum(1 for f in self.flagged if f.missing_value),
                "n_flagged_invalid": sum(1 for f in self.flagged if not f.missing_value),
                "n_excluded": self.n_excluded,
                "n_excluded_cell_records": sum(c.n for c in self.excluded_cells),
                "n_out_of_frame": self.n_out_of_frame,
                "n_cells_kept": len(self.cells),
                "n_cells_excluded": len(self.excluded_cells),
            },
        }


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


_DIALECT_DELIMS = ",;\t"


def load_survey_file(path: str) -> tuple[list[SurveyRecord], list[FlaggedRow]]:
    """Read and validate one survey file.

    Returns the validated records plus one FlaggedRow per rejected input row
    (nothing is silently dropped).
    """
    with open(path, newline="") as fh:
        return _read_survey(fh, path)


def _read_survey(fh, path: str) -> tuple[list[SurveyRecord], list[FlaggedRow]]:
    sample = fh.read(4096)
    fh.seek(0)
    try:
        dialect = csv.Sniffer().sniff(sample, delimiters=_DIALECT_DELIMS)
    except csv.Error:
        dialect = csv.excel
    reader = csv.DictReader(fh, dialect=dialect)
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty file, no header row")
    columns = {name.strip().lower(): name for name in reader.fieldnames}
    if "survey" not in columns and "survey_id" not in columns:
        raise ValueError(f"{path}: missing required column 'survey'")
    if "exam_date" not in columns:
        raise ValueError(f"{path}: missing required column 'exam_date'")
    if "age" not in columns and "birth_year" not in columns:
        raise ValueError(f"{path}: need an 'age' or 'birth_year' column")

    def get(row, *names):
        for name in names:
            src = columns.get(name)
            if src is not None and row.get(src) not in (None, ""):
                return row[src]
        return None

    records: list[SurveyRecord] = []
    flagged: list[FlaggedRow] = []
    for lineno, row in enumerate(reader, start=1):
        survey = (get(row, "survey", "survey_id") or "").strip()
        try:
            rec = _parse_row(row, lineno, survey, get)
        except _RowProblem as problem:
            flagged.append(
                FlaggedRow(lineno, survey, problem.reason, problem.missing_value)
            )
            continue
        records.append(rec)
    return records, flagged


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
        rec.bmi = derive_bmi(rec)
    if not (VALUE_WINDOW[0] < rec.bmi < VALUE_WINDOW[1]):
        raise _RowProblem(f"value {rec.bmi} outside plausible range {VALUE_WINDOW}")
    return rec


def frame_from_data(records) -> ObservationalFrame:
    """Integer frame bounds that hold every record.

    Years run from the floor of the earliest exam date to one past the floor
    of the latest, since the upper year bound is open; ages run from the
    floor of the youngest age to the ceiling of the oldest.
    """
    if not records:
        raise ValueError("cannot build a frame from zero records")
    y_lo = math.floor(min(r.exam_date for r in records))
    y_hi = math.floor(max(r.exam_date for r in records)) + 1
    a_lo = math.floor(min(r.age for r in records))
    a_hi = math.ceil(max(r.age for r in records))
    if a_hi == a_lo:
        a_hi += 1
    return ObservationalFrame.from_integer_bounds(y_lo, y_hi, a_lo, a_hi)


@dataclass
class AggregationResult:
    cells: list
    excluded_cells: list
    n_out_of_frame: int = 0


def aggregate(records, frame: ObservationalFrame, cell_min_count: int = DEFAULT_CELL_MIN_COUNT) -> AggregationResult:
    """Collapse records into per-cell arithmetic means.

    Cells with ``n <= cell_min_count`` contributing records are excluded
    (returned separately, never silently dropped).  The output is invariant
    under permutation of the input: records are reduced within each cell in
    a sorted order, so repeated runs produce bit-identical statistics.
    """
    groups: dict[CellIndex, list] = {}
    out_of_frame = 0
    for rec in records:
        try:
            cell = frame.cell_of(rec.exam_date, rec.age)
        except OutOfFrameError:
            out_of_frame += 1
            continue
        groups.setdefault(cell, []).append(rec)

    kept, dropped = [], []
    for cell in sorted(groups):
        members = sorted(
            groups[cell],
            key=lambda r: (r.exam_date, r.age, state_value(r), r.survey_id, r.subject_id),
        )
        n = len(members)
        stat = CellStat(
            cell=cell,
            x_mean=math.fsum(state_value(r) for r in members) / n,
            y_mean=math.fsum(r.exam_date for r in members) / n,
            a_mean=math.fsum(r.age for r in members) / n,
            n=n,
        )
        (dropped if n <= cell_min_count else kept).append(stat)
    return AggregationResult(kept, dropped, out_of_frame)


def ingest_records(
    records,
    flagged=None,
    frame: ObservationalFrame | None = None,
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT,
    source: str = "",
) -> IngestResult:
    flagged = list(flagged) if flagged else []
    records = list(records)
    if not records:
        if flagged:
            raise ValueError("no usable records: every input row was flagged")
        raise ValueError("no records to ingest")
    if frame is None:
        frame = frame_from_data(records)
    agg = aggregate(records, frame, cell_min_count)
    if not agg.cells:
        raise ValueError(
            "no analyzable cells: every populated cell fell at or below "
            f"the count threshold {cell_min_count}"
        )
    return IngestResult(
        frame=frame,
        cells=agg.cells,
        records=records,
        flagged=flagged,
        excluded_cells=agg.excluded_cells,
        n_out_of_frame=agg.n_out_of_frame,
        cell_min_count=cell_min_count,
        source=source,
    )


def ingest_file(
    path: str,
    frame: ObservationalFrame | None = None,
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT,
) -> IngestResult:
    """Ingest one survey file, recording the SHA-256 of the bytes parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    records, flagged = _read_survey(io.TextIOWrapper(io.BytesIO(raw), newline=""), path)
    result = ingest_records(
        records,
        flagged,
        frame=frame,
        cell_min_count=cell_min_count,
        source=os.path.basename(path),
    )
    result.sha256 = hashlib.sha256(raw).hexdigest()
    return result
