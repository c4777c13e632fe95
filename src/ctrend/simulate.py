"""Forward population simulator and ground-truth scenarios.

A scenario fixes the frame, the true initial-level profile and trend field,
a noise level, and a survey schedule; ``simulate`` then draws per-subject
records whose expected value is the forward model evaluated at the exam
date.  Sub-seeding is per (survey year, age), so results do not depend on
how the work is partitioned.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ModelVector, ObservationalFrame, predict_observation
from .ingest import SurveyRecord

__all__ = [
    "SurveyPlan",
    "Scenario",
    "simulate",
    "write_records",
    "energy_balance_to_trend",
    "level_steps",
    "affine_scenario",
    "stationary_scenario",
    "linear_trend_scenario",
    "table_shaped_scenario",
    "preset",
    "PRESETS",
    "KG_PER_MCAL",
]

# Weight change per unit of energy balance, kg per (thousand kcal per year):
# one kg of body fat stores about 7716.2 kcal, and 1000/7716.2 = 0.1296.
KG_PER_MCAL = 0.1296

# Each simulated subject's height in metres: normal, clipped to [1.40, 2.20].
MEAN_HEIGHT = 1.75
HEIGHT_SD = 0.05


def energy_balance_to_trend(balance: float, height: float | None = None) -> float:
    """Convert an energy balance into a trend.

    ``balance`` is in thousands of kcal per year.  Without ``height`` the
    result is a weight trend in kg/year; with a height in metres it is the
    corresponding BMI trend (kg/m^2 per year).
    """
    trend = KG_PER_MCAL * balance
    if height is None:
        return trend
    if height <= 0:
        raise ValueError(f"height must be positive, got {height!r}")
    return trend / height**2


@dataclass(frozen=True)
class SurveyPlan:
    year: int
    age_min: int
    age_max: int
    samples_per_age: int
    start_month: int = 1  # 1..12
    duration_months: int = 4

    def __post_init__(self):
        if self.samples_per_age < 1:
            raise ValueError(f"samples_per_age must be >= 1, got {self.samples_per_age}")
        if not 1 <= self.start_month <= 12:
            raise ValueError(f"start_month must be in 1..12, got {self.start_month}")
        if self.duration_months < 1:
            raise ValueError(f"duration_months must be >= 1, got {self.duration_months}")
        if self.age_min > self.age_max:
            raise ValueError(f"empty age range {self.age_min}..{self.age_max}")

    @property
    def window(self) -> tuple[float, float]:
        start = self.year + (self.start_month - 1) / 12.0
        return start, start + self.duration_months / 12.0


@dataclass
class Scenario:
    """Ground truth plus sampling design for one synthetic dataset."""

    frame: ObservationalFrame
    initial_levels: np.ndarray  # per boundary slot
    trends: np.ndarray  # (year_cells, age_cells), units per year
    surveys: list
    noise_sd: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        self.initial_levels = np.asarray(self.initial_levels, dtype=float)
        self.trends = np.asarray(self.trends, dtype=float)
        frame = self.frame
        for plan in self.surveys:
            lo, hi = plan.window
            if lo < frame.y_min or hi > frame.y_max:
                raise ValueError(
                    f"survey {plan.year} exam window [{lo:.3f}, {hi:.3f}] outside "
                    f"frame years [{frame.y_min}, {frame.y_max})"
                )
            if plan.age_min < frame.a_min or plan.age_max > frame.a_max:
                raise ValueError(
                    f"survey {plan.year} ages {plan.age_min}..{plan.age_max} outside "
                    f"frame ages [{frame.a_min}, {frame.a_max}]"
                )

    def model(self) -> ModelVector:
        return ModelVector(self.frame, self.initial_levels, self.trends)


def simulate(scenario: Scenario) -> list:
    """Draw survey records for the scenario.

    Deterministic for a fixed seed; each (survey, age) cell uses its own
    generator, so per-cell work can be distributed without changing the
    output.  With ``noise_sd == 0`` every record's value equals the model
    prediction exactly.
    """
    records: list[SurveyRecord] = []
    noise: list[float] = []
    for plan in scenario.surveys:
        lo, hi = plan.window
        for age in range(plan.age_min, plan.age_max + 1):
            rng = np.random.default_rng([scenario.seed, plan.year, age])
            n = plan.samples_per_age
            offsets = rng.uniform(lo, hi, n)
            heights = np.clip(rng.normal(MEAN_HEIGHT, HEIGHT_SD, n), 1.40, 2.20)
            noise.extend(
                rng.normal(0.0, scenario.noise_sd, n) if scenario.noise_sd > 0 else np.zeros(n)
            )
            for s in range(n):
                records.append(
                    SurveyRecord(
                        subject_id=f"{plan.year}-{age:03d}-{s:04d}",
                        survey_id=f"S{plan.year}",
                        exam_date=float(offsets[s]),
                        age=float(age),
                        height=float(heights[s]),
                        sex="m",
                    )
                )
    exact = predict_observation(
        scenario.model(), [r.exam_date for r in records], [r.age for r in records]
    )
    for rec, value in zip(records, (exact + np.array(noise)).tolist()):
        rec.bmi = value
        rec.weight = value * rec.height * rec.height
    return records


def write_records(records, path: str) -> None:
    """Write records in the ingestion file format (full float precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "survey", "exam_date", "age", "weight", "height", "bmi", "sex"])
        for r in records:
            writer.writerow(
                [
                    r.subject_id,
                    r.survey_id,
                    repr(r.exam_date),
                    repr(r.age),
                    repr(r.weight) if r.weight is not None else "",
                    repr(r.height) if r.height is not None else "",
                    repr(r.bmi) if r.bmi is not None else "",
                    r.sex,
                ]
            )


# --- presets ------------------------------------------------------------------


def _full_coverage_surveys(frame: ObservationalFrame, samples_per_age: int) -> list:
    a_lo, a_hi = int(frame.a_min), int(frame.a_max)
    return [
        SurveyPlan(
            year=frame.year_of(i),
            age_min=a_lo,
            age_max=a_hi,
            samples_per_age=samples_per_age,
            start_month=1,
            duration_months=12,
        )
        for i in range(frame.year_cells)
    ]


def level_steps(frame: ObservationalFrame) -> np.ndarray:
    """Boundary slots counted from one, the variable of affine level profiles.

    Step ``slot + 1`` places a profile's base level on the cohort born one
    year after the youngest cohort of the level grid (slot 0).  The preset
    data sets are defined with this anchor.
    """
    return np.arange(1, frame.cohort_count + 1, dtype=float)


def affine_scenario(
    frame: ObservationalFrame,
    surveys: list,
    *,
    level_base: float,
    per_slot: float,
    trend_base: float,
    per_year: float,
    per_age: float,
    **kwargs,
) -> Scenario:
    """Scenario with initial levels ``level_base + per_slot * step`` over the
    :func:`level_steps` and trends ``trend_base + per_year * i + per_age * j``
    over the year and age cells; ``kwargs`` go to :class:`Scenario`."""
    ii, jj = np.meshgrid(
        np.arange(frame.year_cells, dtype=float),
        np.arange(frame.age_cells, dtype=float),
        indexing="ij",
    )
    return Scenario(
        frame=frame,
        initial_levels=level_base + per_slot * level_steps(frame),
        trends=trend_base + per_year * ii + per_age * jj,
        surveys=surveys,
        **kwargs,
    )


def stationary_scenario(seed: int = 0, noise_sd: float = 0.0, samples_per_age: int = 4) -> Scenario:
    """Zero driving force: flat cohorts at a common level."""
    frame = ObservationalFrame.from_integer_bounds(2000, 2008, 30, 37)
    return affine_scenario(
        frame,
        _full_coverage_surveys(frame, samples_per_age),
        level_base=25.0, per_slot=0.0,
        trend_base=0.0, per_year=0.0, per_age=0.0,
        noise_sd=noise_sd,
        seed=seed,
        label="stationary",
    )


def linear_trend_scenario(
    seed: int = 0,
    noise_sd: float = 0.0,
    samples_per_age: int = 2,
    n_years: int = 8,
    n_ages: int = 9,
) -> Scenario:
    """Trend field affine in year and age, initial levels affine in cohort.

    Both curvature penalties vanish at the truth, so a noise-free dataset
    with full coverage is recovered exactly by the estimator as the
    smoothing weights go to zero.
    """
    frame = ObservationalFrame.from_integer_bounds(2000, 2000 + n_years, 30, 30 + n_ages - 1)
    return affine_scenario(
        frame,
        _full_coverage_surveys(frame, samples_per_age),
        level_base=22.0, per_slot=0.05,
        trend_base=0.10, per_year=0.012, per_age=-0.008,
        noise_sd=noise_sd,
        seed=seed,
        label="linear-trend",
    )


def table_shaped_scenario(
    seed: int = 0, noise_sd: float = 4.0, samples_per_age: int = 40
) -> Scenario:
    """Seven five-yearly surveys, 1972-2002, with widening age ranges.

    Age ranges are 25-59 (1972), 25-64 (1977-1992), 25-74 (1997, 2002):
    295 populated cells in total.  The true trend field declines with age
    and ramps up for the youngest ages late in the period, reaching
    0.4-0.5 units/yr; initial levels grow gently across cohorts.
    """
    frame = ObservationalFrame.from_integer_bounds(1972, 2003, 25, 74)
    surveys = [
        SurveyPlan(1972, 25, 59, samples_per_age, start_month=2, duration_months=8),
        SurveyPlan(1977, 25, 64, samples_per_age, start_month=1, duration_months=4),
        SurveyPlan(1982, 25, 64, samples_per_age, start_month=1, duration_months=4),
        SurveyPlan(1987, 25, 64, samples_per_age, start_month=1, duration_months=4),
        SurveyPlan(1992, 25, 64, samples_per_age, start_month=1, duration_months=4),
        SurveyPlan(1997, 25, 74, samples_per_age, start_month=1, duration_months=6),
        SurveyPlan(2002, 25, 74, samples_per_age, start_month=1, duration_months=4),
    ]
    ni, nj = frame.year_cells, frame.age_cells
    trends = np.empty((ni, nj))
    for i in range(ni):
        late = 0.25 / (1.0 + math.exp(-(i - 22.0) / 3.0))
        for j in range(nj):
            age = frame.age_of(j)
            base = 0.25 - 0.004 * (age - 25)
            young = math.exp(-(((age - 25) / 9.0) ** 2))
            trends[i, j] = base + late * young
    return Scenario(
        frame=frame,
        initial_levels=23.0 + 0.025 * level_steps(frame),
        trends=trends,
        surveys=surveys,
        noise_sd=noise_sd,
        seed=seed,
        label="table-shaped",
    )


PRESETS = {
    "stationary": stationary_scenario,
    "linear": linear_trend_scenario,
    "table": table_shaped_scenario,
}


def preset(name: str, **kwargs) -> Scenario:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return builder(**kwargs)
