"""Cohort-trend estimation from independent cross-sectional surveys.

The pipeline: ingest survey records into unit year-age cell means, build
the analysis domain from the populated cells, assemble a penalized
least-squares system (data rows plus second-difference curvature blocks on
the trend field and on the cohort initial levels), and drive the two
smoothing weights with an iterative loop until the average correlations of
adjacent estimates hit their reference values.  A forward simulator and an
independent dense solver serve as verification oracles.
"""

from .design import DesignSystem, stack
from .domain import AnalysisDomain, build_domain
from .grid import ModelVector, ObservationalFrame, forward_levels, predict_observation
from .inference import ClusterReport, cluster_compare, prob_f
from .ingest import CellTable, SurveyRecord, aggregate, ingest_file
from .iterate import IterationConfig, IterationResult, check_stop, run
from .oracle import brute_force_fit
from .simulate import Scenario, SurveyPlan, energy_balance_to_trend, preset, simulate
from .solve import Solution, SingularSystemError, adjacent_correlations, solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisDomain",
    "CellTable",
    "ClusterReport",
    "DesignSystem",
    "IterationConfig",
    "IterationResult",
    "ModelVector",
    "ObservationalFrame",
    "Scenario",
    "SingularSystemError",
    "Solution",
    "SurveyPlan",
    "SurveyRecord",
    "adjacent_correlations",
    "aggregate",
    "brute_force_fit",
    "build_domain",
    "check_stop",
    "cluster_compare",
    "energy_balance_to_trend",
    "forward_levels",
    "ingest_file",
    "predict_observation",
    "preset",
    "prob_f",
    "run",
    "simulate",
    "solve",
    "stack",
    "__version__",
]
