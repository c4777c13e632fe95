"""Fit orchestration: ingest result -> domain -> system -> loop -> inference."""

from __future__ import annotations

import datetime
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .design import DesignSystem
from .domain import build_domain
from .inference import cluster_compare
from .ingest import DEFAULT_CELL_MIN_COUNT, CellTable, IngestResult
from .iterate import IterationConfig, IterationResult, run
from .report import manifest_digest

__all__ = ["FitOptions", "FitRun", "run_fit", "batch_fit", "build_manifest"]


@dataclass
class FitOptions(IterationConfig):
    """Everything configurable about one fit, with the documented defaults;
    the loop's settings and their checks are :class:`IterationConfig`'s."""

    trend_target: float = 0.9  # reference correlation for adjacent trends
    level_target: float = 0.7  # reference correlation for initial levels
    cell_min_count: int = DEFAULT_CELL_MIN_COUNT
    domain_mode: int = 1  # 1: all cohort segments; 2: two or more data cells
    weight_by_count: bool = False
    age_window: int = 5
    year_window: int = 5
    cohort_birth_year: int | None = None  # cohort-track selection; None: most data

    def __post_init__(self):
        super().__post_init__()  # rejects bad loop settings before any file is read
        if self.age_window < 1 or self.year_window < 1:
            raise ValueError(
                f"cluster windows must be >= 1, got ({self.age_window}, {self.year_window})"
            )
        if self.cell_min_count < 0:
            raise ValueError(f"cell_min_count must be >= 0, got {self.cell_min_count}")

    def iteration_config(self) -> IterationConfig:
        return self  # the options are the loop's configuration; perfbench asks for it


def _pick_track_slot(domain, birth_year: int | None):
    frame = domain.frame
    if birth_year is not None:
        slot = frame.birth_year(birth_year)  # the map is its own inverse
        if not domain.first_slot <= slot <= domain.last_slot:
            raise ValueError(
                f"cohort born {birth_year} is outside the estimated segment "
                f"(births {frame.birth_year(domain.last_slot)}..{frame.birth_year(domain.first_slot)})"
            )
        return slot
    ii, jj = np.nonzero(domain.mask)
    return int(np.argmax(np.bincount(frame.cohort_slots(ii, jj))))


@dataclass(frozen=True)
class _Prepared:
    """What a fit needs that does not depend on the reference pair."""

    cells: CellTable  # cells that entered the data block
    dropped_cells: CellTable  # in kept cells but outside the analysis domain
    system: DesignSystem
    track_slot: int
    ingest_report: dict
    input_sha256: str  # SHA-256 of the fitted file's bytes (IngestResult.sha256)


@dataclass(frozen=True)
class FitRun(_Prepared):
    """One fitted reference pair: the prepared design with its loop and inference."""

    options: FitOptions
    iteration: IterationResult
    clusters: object

    @property
    def solution(self):
        return self.iteration.solution

    @property
    def trace(self):
        return self.iteration.trace


def _prepare(ingest_result: IngestResult, options: FitOptions) -> _Prepared:
    """Domain, design, track cohort and ingest report; the options that
    shape them are ``domain_mode``, ``weight_by_count`` and
    ``cohort_birth_year``."""
    domain = build_domain(ingest_result.cells, ingest_result.frame, mode=options.domain_mode)
    inside, outside = domain.filter_cells(ingest_result.cells)
    return _Prepared(
        cells=inside,
        dropped_cells=outside,
        system=DesignSystem.build(inside, domain, weight_by_count=options.weight_by_count),
        track_slot=_pick_track_slot(domain, options.cohort_birth_year),
        ingest_report=ingest_result.report(),
        input_sha256=ingest_result.sha256,
    )


def _fit(prepared: _Prepared, options: FitOptions, measurements: dict | None = None) -> FitRun:
    """The weight loop and the inference over a prepared design;
    ``measurements`` as for :func:`ctrend.iterate.run`."""
    iteration = run(prepared.system, options, measurements)
    clusters = cluster_compare(
        iteration.solution,
        age_window=options.age_window,
        year_window=options.year_window,
    )
    return FitRun(**vars(prepared), options=options, iteration=iteration, clusters=clusters)


def run_fit(ingest_result: IngestResult, options: FitOptions | None = None) -> FitRun:
    options = options or FitOptions()
    return _fit(_prepare(ingest_result, options), options)


def batch_fit(ingest_result: IngestResult, options: FitOptions, pairs, each=None) -> dict:
    """Independent runs for several (level_target, trend_target) pairs:
    ``{pair: each(pair, run)}`` in the order of ``pairs``.

    ``each`` consumes a run as soon as it is fitted; the default keeps the
    run itself.  A run holds its Cholesky factor and selected inverse, so a
    consumer that keeps less, such as one that writes the bundle, lets each
    run go before the next pair is fitted and the batch's memory does not
    grow with its length.

    The reference pair enters only the weight loop, so the domain, the
    design and the ingest report are built once and every run shares them
    (nothing downstream mutates them).  The loops also share the
    measurements of their solves (trace values and correlations, floats
    only; :func:`ctrend.iterate.run`): every loop starts at the same
    initial weights, so that first solve is made once per batch.  The
    runs go one after another: most of an iteration is Python holding the
    interpreter lock, so a thread pool only adds CPU time.
    """
    each = each or (lambda pair, run: run)
    prepared = _prepare(ingest_result, options)
    measurements = {}
    # Each run is passed straight to ``each``, never bound to a name here,
    # so nothing in this frame holds it while the next pair is fitted.
    return {
        (level_target, trend_target): each(
            (level_target, trend_target),
            _fit(
                prepared,
                replace(options, level_target=level_target, trend_target=trend_target),
                measurements,
            ),
        )
        for level_target, trend_target in pairs
    }


def build_manifest(run: FitRun, inputs: list, extra: dict | None = None) -> dict:
    config = asdict(run.options)
    core = {
        "inputs": list(inputs),
        "input_sha256": run.input_sha256,
        "config": config,
        "version": __version__,
    }
    digest = manifest_digest(core)
    best = run.iteration.best
    warnings = list(run.solution.warnings)
    if not len(run.clusters.comparisons):
        warnings.append("no adjacent cluster pairs to compare: cluster_tests.csv has no rows")
    manifest = {
        "digest": digest,
        "tool": {"name": "ctrend", "version": __version__},
        "inputs": list(inputs),
        "config": config,
        "frame": asdict(run.solution.frame),
        "domain": run.solution.domain.summary(),
        "dropped_cells_outside_domain": len(run.dropped_cells),
        "references": {
            "trend_target": run.options.trend_target,
            "level_target": run.options.level_target,
            "trend_accuracy": run.options.trend_accuracy,
            "level_accuracy": run.options.level_accuracy,
        },
        "result": {
            "converged": run.iteration.converged,
            "reason": run.iteration.reason,
            "iterations": run.iteration.iterations,
            "fallback_steps": run.iteration.fallback_steps,
            "trend_weight": run.solution.trend_weight,
            "level_weight": run.solution.level_weight,
            "r2": run.solution.r2,
            "sigma2": run.solution.sigma2,
            "trend_smoothness": best.trend_smoothness,
            "level_smoothness": best.level_smoothness,
            "dof_convention": "n = data + curvature rows, p = compact parameters",
            "bandwidth": run.system.bandwidth,
            "condition": run.solution.condition,
            "warnings": warnings,
        },
        "track_cohort_slot": run.track_slot,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    return manifest
