"""Built-in verification: oracle equivalence, exact recovery, invariants.

Run via ``ctrend verify``.  The negative-control switch perturbs the
production estimate and sigma^2 before comparison; a healthy checker must
then fail, which demonstrates that the checks have teeth.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .design import DesignSystem, level_curvature_rows, trend_curvature_rows
from .domain import build_domain
from .grid import ObservationalFrame
from .inference import cluster_compare, prob_f
from .ingest import ingest_records
from .iterate import check_stop, signed_gap, IterationConfig
from .oracle import brute_force_fit
from .simulate import SurveyPlan, affine_scenario, linear_trend_scenario, simulate
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
        frame = ObservationalFrame.from_integer_bounds(
            2000, 2000 + n_years, 40, 40 + n_ages - 1
        )
        surveys = [
            SurveyPlan(2000 + i, 40, 40 + n_ages - 1, int(rng.integers(2, 4)),
                       duration_months=12)
            for i in range(n_years)
            if rng.random() < 0.8
        ] or [SurveyPlan(2000, 40, 40 + n_ages - 1, 3, duration_months=12)]
        scenario = affine_scenario(
            frame,
            surveys,
            level_base=24.0, per_slot=0.1,
            trend_base=0.1, per_year=0.02, per_age=-0.01,
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

    def deviation(ours, theirs):
        return float(np.max(np.abs(ours - theirs)) / np.max(np.abs(theirs)))

    # 1. oracle equivalence on seeded instances: the estimate, the covariance,
    # and the cluster block covariances (2 x 2 blocks) from the factor against
    # A C A^T for the oracle's C and a block-averaging map A built cell by cell
    worst_z = worst_cov = worst_blocks = 0.0
    compared = 0
    for scenario, w1, w2 in _oracle_instances(10):
        records = simulate(scenario)
        res = ingest_records(records, frame=scenario.frame, cell_min_count=0)
        domain = build_domain(res.cells, res.frame)
        system = DesignSystem.build(res.cells, domain)
        if system.n_total <= system.param_count:
            continue
        sol = solve(system, w1, w2)
        if negative_control:  # test hook: simulate a broken solver
            sol = replace(sol, estimate=sol.estimate + 1e-6, sigma2=sol.sigma2 * (1.0 + 1e-5))
        oracle = brute_force_fit(records, w1, w2, frame=scenario.frame, domain=domain)
        # the oracle orders as the full vector does: compact component c is its rank[c]
        rank = np.argsort(np.argsort(domain.compact_to_full()))
        oracle_cov = oracle.cov[np.ix_(rank, rank)]
        worst_z = max(worst_z, deviation(sol.estimate, oracle.estimate[rank]))
        worst_cov = max(worst_cov, deviation(sol.sigma2 * np.asarray(sol.inverse), oracle_cov))
        cells = list(zip(*np.nonzero(domain.mask)))
        block_row = {block: k for k, block in enumerate(sorted({(i // 2, j // 2) for i, j in cells}))}
        averaging = np.zeros((len(block_row), domain.compact_size))
        compact = domain.full_to_compact()
        for i, j in cells:
            trend = compact[domain.frame.cohort_count + i * domain.frame.age_cells + j]
            averaging[block_row[i // 2, j // 2], trend] = 1.0
        averaging /= averaging.sum(axis=1, keepdims=True)
        blocks = cluster_compare(sol, age_window=2, year_window=2).covariance
        worst_blocks = max(worst_blocks, deviation(blocks, averaging @ (oracle_cov @ averaging.T)))
        compared += 1
    report(
        "oracle equivalence",
        compared > 0
        and worst_z <= ORACLE_TOL_ESTIMATE
        and max(worst_cov, worst_blocks) <= ORACLE_TOL_COV,
        f"{compared} instances, max estimate deviation {worst_z:.3e} "
        f"(limit {ORACLE_TOL_ESTIMATE:.0e}), max covariance deviation {worst_cov:.3e}, "
        f"max cluster covariance deviation {worst_blocks:.3e} (limit {ORACLE_TOL_COV:.0e})",
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
    levels = np.zeros(domain.frame.param_count)
    levels[: domain.frame.cohort_count] = 1.5 + 0.25 * np.arange(domain.frame.cohort_count)
    exact1 = not np.any(b1 @ np.full(domain.compact_size, 5.25))
    exact2 = not np.any(b2 @ domain.gather(levels))
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
    ratio = math.exp(signed_gap(0.85, 0.9))
    report(
        "stopping rule arithmetic",
        (not checked.stop)
        and abs(ratio - 0.2775 / 0.19) < 1e-12
        and abs(checked.trend_gap - abs(math.log(0.2775 / 0.19))) < 1e-12,
        f"update ratio {ratio:.6f}, gap {checked.trend_gap:.6f}",
    )

    emit(f"{'all checks passed' if ok else 'CHECKS FAILED'} in {time.time() - started:.1f}s")
    return ok
