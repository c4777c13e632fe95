"""The weight loop against the paper's multiplicative loop.

``paper_loop`` is an independent reference, written from the paper's rule
without ctrend's iteration code: rescale each weight by its variance-deficit
ratio (1 - r^2) / (1 - t^2) until both log ratios are within the
accuracy.  Wherever it converges, ``run`` must converge too,
in no more solves, at correlations that pass the stop rule.
"""

import numpy as np
import pytest

from ctrend.design import DesignSystem
from ctrend.domain import build_domain
from ctrend.ingest import ingest_records
from ctrend.iterate import IterationConfig, check_stop, run
from ctrend.simulate import preset, simulate
from ctrend.solve import SingularSystemError, adjacent_correlations, solve

# (level target, trend target): the pairs of ROADMAP direction 3
PAIRS = [(0.7, 0.9), (0.5, 0.9), (0.7, 0.8), (0.6, 0.85), (0.5, 0.8),
         (0.8, 0.85), (0.6, 0.95), (0.9, 0.95), (0.3, 0.6)]
CASES = {
    "table-seed0": ("table", {}),
    "linear-noise1-samples20": ("linear", {"noise_sd": 1.0, "samples_per_age": 20}),
}
ACCURACY = 0.05
MAX_ITER = 100


def paper_loop(system, level_target, trend_target):
    """Solve count at which the paper's loop converges, or None."""
    targets = np.array([trend_target, level_target])
    weights = np.ones(2)
    for count in range(1, MAX_ITER + 1):
        try:
            corr = adjacent_correlations(solve(system, *weights))
        except SingularSystemError:
            return None
        measured = np.array([corr.trend_smoothness, corr.level_smoothness])
        if not np.all(np.abs(measured) < 1.0):
            return None
        ratio = (1.0 - measured**2) / (1.0 - targets**2)
        if np.all(np.abs(np.log(ratio)) <= ACCURACY):
            return count
        weights = weights * ratio
    return None


@pytest.fixture(scope="module", params=sorted(CASES))
def system(request):
    name, kwargs = CASES[request.param]
    res = ingest_records(simulate(preset(name, seed=0, **kwargs)))
    domain = build_domain(res.cells, res.frame, mode=1)
    inside, _ = domain.filter_cells(res.cells)
    return DesignSystem.build(inside, domain)


@pytest.mark.parametrize("level_target, trend_target", PAIRS)
def test_no_more_solves_than_paper_loop(system, level_target, trend_target):
    reference = paper_loop(system, level_target, trend_target)
    config = IterationConfig(trend_target=trend_target, level_target=level_target,
                             trend_accuracy=ACCURACY, level_accuracy=ACCURACY,
                             max_iter=MAX_ITER)
    result = run(system, config)
    assert np.all(np.isfinite(result.solution.estimate))
    if reference is None:
        return
    assert result.converged, f"paper loop converged in {reference} solves"
    assert result.iterations <= reference
    last = result.trace[-1]
    assert check_stop(last.trend_smoothness, last.level_smoothness, config).stop
    assert (last.trend_weight, last.level_weight) == (
        result.solution.trend_weight, result.solution.level_weight)
