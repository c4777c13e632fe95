"""Fit orchestration: batch fits share one design and equal separate fits."""

from dataclasses import replace

import numpy as np

from ctrend.ingest import ingest_file
from ctrend.pipeline import FitOptions, batch_fit, run_fit
from ctrend.simulate import linear_trend_scenario, simulate, write_records


def test_batch_fit_equals_separate_fits(tmp_path):
    path = tmp_path / "survey.csv"
    write_records(simulate(linear_trend_scenario(seed=41, noise_sd=1.0, samples_per_age=3)), str(path))
    ingested = ingest_file(str(path), cell_min_count=0)
    options = FitOptions(cell_min_count=0, age_window=3, year_window=3)
    pairs = [(0.7, 0.9), (0.5, 0.85), (0.6, 0.8)]

    runs = batch_fit(ingested, options, pairs)
    assert list(runs) == pairs
    assert len({id(run.system) for run in runs.values()}) == 1
    for (level_target, trend_target), batched in runs.items():
        alone = run_fit(
            ingested, replace(options, level_target=level_target, trend_target=trend_target)
        )
        assert alone.system is not batched.system
        assert np.array_equal(batched.solution.estimate, alone.solution.estimate)
        assert [(r.trend_weight, r.level_weight) for r in batched.trace] == [
            (r.trend_weight, r.level_weight) for r in alone.trace
        ]
        assert batched.ingest_report == alone.ingest_report
