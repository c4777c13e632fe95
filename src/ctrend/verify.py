"""Built-in verification: oracle equivalence, exact recovery, invariants.

Run via ``ctrend verify``.  The negative-control switch perturbs the
production estimates before comparison; a healthy checker must then fail,
which demonstrates that the checks have teeth.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .design import DesignSystem, level_curvature_rows, trend_curvature_rows
from .domain import build_domain
from .inference import prob_f
from .ingest import ingest_records
from .iterate import check_stop, weight_ratio, IterationConfig
from .oracle import brute_force_fit
from .simulate import Scenario, SurveyPlan, level_steps, linear_trend_scenario, simulate
from .solve import solve

__all__ = ["run_verification"]

ORACLE_TOL_ESTIMATE = 1e-8
ORACLE_TOL_COV = 1e-6
RECOVERY_TOL = 1e-5

# Upper-tail F probabilities at 40 decimal digits, frozen from an
# arbitrary-precision incomplete-beta evaluation.
F_TAIL_REFERENCE = [
    (0.5, 1, 7, 0.50235401707991795),
    (3.8415, 1, 100, 0.052781927077059513),
    (8.0, 1, 40, 0.0072754964084393307),
    (2.5, 2, 30, 0.099037154882832707),
    (100.0, 1, 10000, 1.9632807428663829e-23),
]


def _oracle_instances(n_instances: int):
    rng = np.random.default_rng(20240)
    for k in range(n_instances):
        n_years = int(rng.integers(3, 7))
        n_ages = int(rng.integers(3, 7))
        from .grid import ObservationalFrame

        frame = ObservationalFrame.from_integer_bounds(
            2000, 2000 + n_years, 40, 40 + n_ages - 1
        )
        surveys = [
            SurveyPlan(2000 + i, 40, 40 + n_ages - 1, int(rng.integers(2, 4)),
                       duration_months=12)
            for i in range(n_years)
            if rng.random() < 0.8
        ] or [SurveyPlan(2000, 40, 40 + n_ages - 1, 3, duration_months=12)]
        ii, jj = np.meshgrid(np.arange(frame.year_cells, dtype=float),
                             np.arange(frame.age_cells, dtype=float), indexing="ij")
        scenario = Scenario(
            frame=frame,
            initial_levels=24.0 + 0.1 * level_steps(frame),
            trends=0.1 + 0.02 * ii - 0.01 * jj,
            surveys=surveys,
            noise_sd=float(rng.uniform(0.5, 2.5)),
            seed=1000 + k,
        )
        yield scenario, float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.05, 5.0))


def run_verification(negative_control: bool = False, emit=print) -> bool:
    """Run every check; returns True when all pass."""
    ok = True
    started = time.time()

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        emit(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    # 1. oracle equivalence on seeded instances
    worst_z = worst_cov = 0.0
    compared = 0
    for scenario, w1, w2 in _oracle_instances(10):
        records = simulate(scenario)
        res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        system = DesignSystem.build(res.cells, domain)
        if system.n_total <= system.param_count:
            continue
        sol = solve(system, w1, w2)
        estimate = sol.estimate.copy()
        if negative_control:
            estimate = estimate + 1e-6  # test hook: simulate a broken solver
        oracle = brute_force_fit(records, w1, w2, frame=scenario.frame, domain=domain)
        worst_z = max(
            worst_z,
            float(np.max(np.abs(estimate - oracle.estimate)) / np.max(np.abs(oracle.estimate))),
        )
        worst_cov = max(
            worst_cov,
            float(np.max(np.abs(np.asarray(sol.cov) - oracle.cov)) / np.max(np.abs(oracle.cov))),
        )
        compared += 1
    report(
        "oracle equivalence",
        compared > 0 and worst_z <= ORACLE_TOL_ESTIMATE and worst_cov <= ORACLE_TOL_COV,
        f"{compared} instances, max estimate deviation {worst_z:.3e} "
        f"(limit {ORACLE_TOL_ESTIMATE:.0e}), max covariance deviation {worst_cov:.3e}",
    )

    # 2. exact recovery of a curvature-free truth at vanishing weights
    scenario = linear_trend_scenario(seed=77, noise_sd=0.0, samples_per_age=2)
    records = simulate(scenario)
    res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
    domain = build_domain(res.cells, res.frame)
    sol = solve(DesignSystem.build(res.cells, domain), 1e-8, 1e-8)
    truth = scenario.model()
    trend_err = float(np.nanmax(np.abs(sol.trend_grid() - truth.trends)))
    v0 = sol.boundary_levels()
    mask = ~np.isnan(v0)
    level_err = float(np.max(np.abs(v0[mask] - truth.initial_levels[mask])))
    report(
        "exact recovery",
        trend_err <= RECOVERY_TOL and level_err <= RECOVERY_TOL,
        f"max trend error {trend_err:.3e}, max level error {level_err:.3e} "
        f"(limit {RECOVERY_TOL:.0e})",
    )

    # 3. curvature blocks annihilate constant / affine inputs exactly
    b1 = trend_curvature_rows(domain)
    b2 = level_curvature_rows(domain)
    z = np.zeros(domain.compact_size)
    z[domain.slot_count:] = 5.25
    exact1 = not np.any(b1 @ z)
    z[:] = 0.0
    z[: domain.slot_count] = 1.5 + 0.25 * np.arange(domain.slot_count)
    exact2 = not np.any(b2 @ z)
    report("curvature annihilators", exact1 and exact2, "constant and affine inputs map to zero")

    # 4. F upper-tail values against frozen high-precision references
    worst = max(
        abs(prob_f(f, d1, d2) - expected)
        for f, d1, d2, expected in F_TAIL_REFERENCE
    )
    report("F tail probabilities", worst <= 1e-10, f"max abs deviation {worst:.2e}")

    # 5. stopping rule and weight update hand values
    config = IterationConfig(trend_target=0.9, level_target=0.7)
    checked = check_stop(0.85, 0.7, config)
    ratio = weight_ratio(0.85, 0.9)
    report(
        "stopping rule arithmetic",
        (not checked.stop)
        and abs(ratio - 0.2775 / 0.19) < 1e-12
        and abs(checked.trend_gap - abs(math.log(0.2775 / 0.19))) < 1e-12,
        f"update ratio {ratio:.6f}, gap {checked.trend_gap:.6f}",
    )

    emit(f"{'all checks passed' if ok else 'CHECKS FAILED'} in {time.time() - started:.1f}s")
    return ok
