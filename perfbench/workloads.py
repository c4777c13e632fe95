"""The benchmark's workloads: inputs made from a seed, and what the checks expect.

``ctrend`` and numpy (which ctrend imports) are imported inside the
functions, never at module level, so that the set-up worker can time the
whole import.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ROOT / "src" / "ctrend"

PAIR_SWEEP = ("0.7:0.9", "0.5:0.9", "0.7:0.8", "0.6:0.85")

# The validation rules the accounting check expects the program to apply,
# written out here so the expectation does not come from the program itself:
# a row is flagged "missing" when it has no value fields, and "invalid" when
# its exam date falls outside 1900..2100 or its BMI outside (10, 100).
EXAM_DATE_WINDOW = (1900.0, 2100.0)
VALUE_RANGE = (10.0, 100.0)
INVALID_DATE = 1850.5
INVALID_VALUE = 250.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # ctrend.simulate preset
    preset_kwargs: dict
    rmse_tol: float  # bound on the RMSE of trends.csv against the truth
    pairs: tuple = ()  # --pair specs; empty: one fit at the default references


# A seeded share of rows loses every value field, and another gets an invalid
# exam date or value, so that ingest's per-row flagging path runs at full size.
MISSING_SHARE = 0.02
INVALID_SHARE = 0.005

# rmse_tol: over seeds 0-15 at the first benchmarked commit the largest trend
# RMSE was 0.062 on paper-table and 0.110 on pair-sweep (its 0.7:0.8 pair
# smooths least); the negative control's shifted trend value alone gives at
# least 0.27.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-table", "table", {}, rmse_tol=0.10),
        Workload("pair-sweep", "table", {}, rmse_tol=0.16, pairs=PAIR_SWEEP),
    )
}

# Smoke mode keeps each workload's path (pairs, injected rows, every check)
# on the small linear-preset geometry, so a run takes about a second.  The
# largest smoke RMSE over seeds 0-39 was 0.094.
SMOKE_PRESET = ("linear", {"noise_sd": 1.0, "samples_per_age": 20})
SMOKE_RMSE_TOL = 0.2


def use_checkout_program() -> None:
    """Import ``ctrend`` from this checkout's ``src/``, never from elsewhere."""
    if not (PROGRAM / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {PROGRAM} not found; run from a full checkout")
    sys.path.insert(0, str(PROGRAM.parent))


def workload(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if smoke:
        preset, kwargs = SMOKE_PRESET
        wl = dataclasses.replace(wl, preset=preset, preset_kwargs=kwargs, rmse_tol=SMOKE_RMSE_TOL)
    return wl


def parse_pair(spec: str) -> tuple[float, float]:
    level, trend = spec.split(":")
    return float(level), float(trend)


def fit_argv(wl: Workload, data: str, outdir: str) -> list:
    """Arguments of the workload's ``ctrend fit`` call."""
    return ["fit", data, "--out", outdir] + [f"--pair={p}" for p in wl.pairs]


def bundle_dirs(wl: Workload, outdir: str) -> list:
    """The fit bundles ``ctrend fit`` writes: one per reference pair in batch mode."""
    if not wl.pairs:
        return [outdir]
    return [os.path.join(outdir, "R_{:g}_{:g}".format(*parse_pair(p))) for p in wl.pairs]


def inject_flags(records, seed: int) -> None:
    """Rewrite a seeded share of records so that ingest must flag them."""
    import numpy as np

    n = len(records)
    n_missing = round(MISSING_SHARE * n)
    n_invalid = round(INVALID_SHARE * n)
    # simulate seeds its generators with [seed, year, age]; this stream is distinct
    rng = np.random.default_rng([seed, 1])
    chosen = rng.choice(n, n_missing + n_invalid, replace=False)
    for k in chosen[:n_missing]:
        rec = records[k]
        rec.weight = rec.height = rec.bmi = None
    for pos, k in enumerate(chosen[n_missing:]):
        if pos % 2:
            records[k].exam_date = INVALID_DATE
        else:
            records[k].bmi = INVALID_VALUE


def expected_flags(records) -> tuple[int, int]:
    """(missing, invalid) rows, by the rules above; includes rows that the
    simulator's noise pushed out of range on their own."""
    missing = invalid = 0
    for rec in records:
        if rec.bmi is None and (rec.weight is None or rec.height is None):
            missing += 1
        elif not (
            EXAM_DATE_WINDOW[0] <= rec.exam_date <= EXAM_DATE_WINDOW[1]
            and VALUE_RANGE[0] < rec.bmi < VALUE_RANGE[1]
        ):
            invalid += 1
    return missing, invalid


def drop_last_row(path: str) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def make_input(wl: Workload, seed: int, path: str, drop_row: bool = False):
    """Simulate the workload's survey file at ``path``.

    Returns ``(timings, expect)``: seconds spent in ``simulate`` and in
    rewriting plus ``write_records``, and what the output checks expect.
    ``drop_row`` removes one row after the expectations are fixed, for the
    negative control.
    """
    from ctrend.simulate import preset, simulate, write_records

    scenario = preset(wl.preset, seed=seed, **wl.preset_kwargs)
    t0 = time.perf_counter()
    records = simulate(scenario)
    t1 = time.perf_counter()
    inject_flags(records, seed)
    write_records(records, path)
    t2 = time.perf_counter()
    if drop_row:
        drop_last_row(path)
    missing, invalid = expected_flags(records)
    frame = scenario.frame
    expect = {
        "rows": len(records),
        "flagged_missing": missing,
        "flagged_invalid": invalid,
        "year_base": frame.year_base,
        "age_base": frame.age_base,
        "true_trends": scenario.trends.tolist(),
    }
    timings = {"simulate_s": t1 - t0, "write_s": t2 - t1, "rows": len(records)}
    return timings, expect
