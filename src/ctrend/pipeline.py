"""Fit orchestration: ingest result -> domain -> system -> loop -> inference."""

from __future__ import annotations

import datetime
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .design import DesignSystem
from .domain import build_domain
from .inference import cluster_compare
from .ingest import IngestResult
from .iterate import IterationConfig, IterationResult, run
from .report import manifest_digest

__all__ = ["FitOptions", "FitRun", "run_fit", "batch_fit", "build_manifest"]


@dataclass
class FitOptions:
    """Everything configurable about one fit, with the documented defaults."""

    trend_target: float = 0.9  # reference correlation for adjacent trends
    level_target: float = 0.7  # reference correlation for initial levels
    trend_accuracy: float = 0.05
    level_accuracy: float = 0.05
    trend_weight_init: float = 1.0
    level_weight_init: float = 1.0
    max_iter: int = 100
    damping: float = 1.0
    literal_level_denominator: bool = False
    cell_min_count: int = 5
    domain_mode: int = 1  # 1: all cohort segments; 2: two or more data cells
    weight_by_count: bool = False
    age_window: int = 5
    year_window: int = 5
    cohort_birth_year: int | None = None  # cohort-track selection; None: most data

    def iteration_config(self) -> IterationConfig:
        return IterationConfig(**{f.name: getattr(self, f.name) for f in fields(IterationConfig)})


@dataclass
class FitRun:
    options: FitOptions
    cells: list  # cells that entered the data block
    dropped_cells: list  # in kept cells but outside the analysis domain
    system: DesignSystem
    iteration: IterationResult
    clusters: object
    track_slot: int
    ingest_report: dict | None = None
    input_sha256: str = ""  # SHA-256 of the fitted file's bytes (IngestResult.sha256)

    @property
    def solution(self):
        return self.iteration.solution

    @property
    def trace(self):
        return self.iteration.trace


def _pick_track_slot(domain, birth_year: int | None):
    frame = domain.frame
    if birth_year is not None:
        slot = frame.year_cells + (frame.year_base - frame.age_base) - birth_year
        if not domain.first_slot <= slot <= domain.last_slot:
            raise ValueError(
                f"cohort born {birth_year} is outside the estimated segment "
                f"(births {frame.year_base - frame.age_base + frame.year_cells - domain.last_slot}"
                f"..{frame.year_base - frame.age_base + frame.year_cells - domain.first_slot})"
            )
        return slot
    counts: dict[int, int] = {}
    for cell in domain.trend_cells():
        slot = frame.cohort_slot(cell)
        counts[slot] = counts.get(slot, 0) + 1
    return max(sorted(counts), key=lambda s: counts[s])


@dataclass(frozen=True)
class _Prepared:
    """What a fit needs that does not depend on the reference pair."""

    cells: list  # cells that entered the data block
    dropped_cells: list  # in kept cells but outside the analysis domain
    system: DesignSystem
    ingest_report: dict
    input_sha256: str


def _prepare(ingest_result: IngestResult, options: FitOptions) -> _Prepared:
    """Domain, design and ingest report; the options that shape them are
    ``domain_mode`` and ``weight_by_count``."""
    domain = build_domain(ingest_result.cells, ingest_result.frame, mode=options.domain_mode)
    inside, outside = domain.filter_cells(ingest_result.cells)
    return _Prepared(
        cells=inside,
        dropped_cells=outside,
        system=DesignSystem.build(inside, domain, weight_by_count=options.weight_by_count),
        ingest_report=ingest_result.report(),
        input_sha256=ingest_result.sha256,
    )


def _fit(prepared: _Prepared, options: FitOptions) -> FitRun:
    """The weight loop and the inference over a prepared design."""
    iteration = run(prepared.system, options.iteration_config())
    clusters = cluster_compare(
        iteration.solution,
        age_window=options.age_window,
        year_window=options.year_window,
    )
    return FitRun(
        options=options,
        cells=prepared.cells,
        dropped_cells=prepared.dropped_cells,
        system=prepared.system,
        iteration=iteration,
        clusters=clusters,
        track_slot=_pick_track_slot(prepared.system.domain, options.cohort_birth_year),
        ingest_report=prepared.ingest_report,
        input_sha256=prepared.input_sha256,
    )


def run_fit(ingest_result: IngestResult, options: FitOptions | None = None) -> FitRun:
    options = options or FitOptions()
    return _fit(_prepare(ingest_result, options), options)


def batch_fit(ingest_result: IngestResult, options: FitOptions, pairs) -> dict:
    """Independent runs for several (level_target, trend_target) pairs, keyed
    and ordered by pair.

    The reference pair enters only the weight loop, so the domain, the
    design and the ingest report are built once and every run shares them
    (nothing downstream mutates them).  The runs go one after another.
    Most of an iteration is Python holding the interpreter lock, so a
    thread pool was slower: on a 2-core host, four pairs on `table` preset
    data took a median 1.61 s in a pool of four threads against 1.42 s in
    this loop, which was faster in 16 of 18 alternating runs.
    """
    prepared = _prepare(ingest_result, options)
    return {
        (level_target, trend_target): _fit(
            prepared, replace(options, level_target=level_target, trend_target=trend_target)
        )
        for level_target, trend_target in pairs
    }


def build_manifest(run: FitRun, inputs: list, extra: dict | None = None) -> dict:
    frame = run.solution.frame
    config = asdict(run.options)
    core = {
        "inputs": list(inputs),
        "input_sha256": run.input_sha256,
        "config": config,
        "version": __version__,
    }
    digest = manifest_digest(core)
    last = run.trace[-1]
    manifest = {
        "digest": digest,
        "tool": {"name": "ctrend", "version": __version__},
        "inputs": list(inputs),
        "config": config,
        "frame": {
            "y_min": frame.y_min,
            "y_max": frame.y_max,
            "a_min": frame.a_min,
            "a_max": frame.a_max,
        },
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
            "trend_weight": run.solution.trend_weight,
            "level_weight": run.solution.level_weight,
            "r2": run.solution.r2,
            "sigma2": run.solution.sigma2,
            "trend_smoothness": last.trend_smoothness,
            "level_smoothness": last.level_smoothness,
            "dof_convention": "n = data + curvature rows, p = compact parameters",
            "bandwidth": run.system.bandwidth,
            "condition": run.solution.condition,
            "warnings": run.solution.warnings,
        },
        "track_cohort_slot": run.track_slot,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    return manifest
