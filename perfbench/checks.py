"""Output checks.  A fit fails when any of its checks fails.

Bundle checks read what ``ctrend fit`` wrote; estimate checks (traced run
only) test a ``run_fit`` result against the stacked system it came from.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import bundle_dirs

BUNDLE_CHECKS = ("exit_converged", "ingest_accounting", "trend_rmse")
ESTIMATE_CHECKS = ("normal_equations", "solve_replay")
CHECKS = BUNDLE_CHECKS + ESTIMATE_CHECKS
NORMAL_REL_TOL = 1e-8


class Tally:
    """Pass and fail counts per check, and failed fits out of attempted fits."""

    def __init__(self):
        self.checks = {name: {"passed": 0, "failed": 0} for name in CHECKS}
        self.attempted = 0
        self.failed = 0
        self.details = []  # one {check: [passed, detail]} per fit

    def record(self, results: dict) -> None:
        self.attempted += 1
        self.details.append(results)
        for name, (passed, _) in results.items():
            self.checks[name]["passed" if passed else "failed"] += 1
        if not all(passed for passed, _ in results.values()):
            self.failed += 1


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_trends(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def trend_rmse(bundle: str, expect: dict) -> float:
    """RMSE of the trends.csv estimates against the simulated truth,
    matched by calendar year and age."""
    truth = np.asarray(expect["true_trends"])
    try:
        rows = _read_trends(os.path.join(bundle, "trends.csv"))
    except OSError:
        return math.inf
    errors = []
    for row in rows:
        i = int(row["year"]) - expect["year_base"]
        j = int(row["age"]) - expect["age_base"]
        if not (0 <= i < truth.shape[0] and 0 <= j < truth.shape[1]):
            return math.inf
        errors.append(float(row["trend"]) - truth[i, j])
    return math.sqrt(np.mean(np.square(errors))) if errors else math.inf


def check_bundle(bundle: str, exit_code, expect: dict, rmse_tol: float) -> dict:
    manifest = _load_json(os.path.join(bundle, "manifest.json")) or {}
    converged = manifest.get("result", {}).get("converged")
    results = {
        "exit_converged": (
            exit_code == 0 and converged is True,
            f"exit code {exit_code}, converged {converged}",
        )
    }

    report = _load_json(os.path.join(bundle, "ingest_report.json")) or {}
    totals = report.get("totals")
    if totals is None:
        results["ingest_accounting"] = (False, "no ingest_report.json totals")
    else:
        got = (
            totals["n_input"],
            totals["n_used"] + totals["n_flagged"] + totals["n_excluded"],
            totals["n_flagged_missing"],
            totals["n_flagged_invalid"],
        )
        want = (expect["rows"], expect["rows"], expect["flagged_missing"], expect["flagged_invalid"])
        results["ingest_accounting"] = (
            got == want,
            f"rows in, accounted, missing, invalid: {got}, expected {want}",
        )

    rmse = trend_rmse(bundle, expect)
    results["trend_rmse"] = (rmse <= rmse_tol, f"trend RMSE {rmse:.4g} (bound {rmse_tol})")
    return results


def check_fit(wl, outdir: str, exit_code, expect: dict) -> dict:
    """Bundle checks over every bundle of one ``ctrend fit`` call."""
    merged = {}
    for bundle in bundle_dirs(wl, outdir):
        for name, (passed, detail) in check_bundle(bundle, exit_code, expect, wl.rmse_tol).items():
            ok, details = merged.get(name, (True, []))
            merged[name] = (ok and passed, details + [f"{os.path.basename(bundle)}: {detail}"])
    return {name: (ok, "; ".join(details)) for name, (ok, details) in merged.items()}


def check_estimate(fit, estimate: np.ndarray, replayed: np.ndarray) -> dict:
    """``estimate`` is the run_fit estimate; ``replayed`` the estimate of
    ``solve`` called again at the best weights."""
    from ctrend.design import stack

    stacked = stack(fit.system, fit.solution.trend_weight, fit.solution.level_weight)
    a, w, b = stacked.matrix, stacked.row_weights, stacked.target
    gradient = a.T @ (w * (a @ estimate - b))
    rel = float(np.linalg.norm(gradient) / np.linalg.norm(a.T @ (w * b)))
    same = replayed is not None and np.array_equal(replayed, estimate)
    return {
        "normal_equations": (rel <= NORMAL_REL_TOL, f"relative gradient {rel:.3g}"),
        "solve_replay": (same, "bit-identical" if same else "replayed estimate differs"),
    }


# --- negative control -----------------------------------------------------------


def corrupt_bundles(wl, outdir: str) -> None:
    """Clear the converged flag and shift one trend estimate in each bundle."""
    for bundle in bundle_dirs(wl, outdir):
        manifest_path = os.path.join(bundle, "manifest.json")
        manifest = _load_json(manifest_path)
        if manifest is not None:
            manifest["result"]["converged"] = False
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
        trends_path = os.path.join(bundle, "trends.csv")
        if os.path.exists(trends_path):
            rows = _read_trends(trends_path)
            rows[0]["trend"] = repr(float(rows[0]["trend"]) + 10.0)
            with open(trends_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)


def perturb(estimate: np.ndarray) -> np.ndarray:
    out = estimate.copy()
    out[0] += 1e-3 * max(1.0, abs(out[0]))
    return out
