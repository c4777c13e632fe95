"""The outer smoothness-targeting loop.

Each pass solves the weighted system, measures the average adjacent-estimate
correlations, and either stops (both measured correlations close enough to
their reference values on the log(1 - r^2) scale) or moves the smoothing
weights and solves again.

The stop rule is the paper's.  The paper reaches it by rescaling each weight
by its measured-to-reference variance-deficit ratio, a step of the signed log
gap in log-weight space.  That step is a Newton step which assumes the gap
falls one for one with the log weight, and it converges linearly.  Here each
weight instead takes a secant step, with the slope of its gap estimated from
its last two solves; when the worst scaled gap does not fall, both slopes
reset to the paper's, so the next step is the paper step from the point just
solved (Broyden 1965; Dennis & Schnabel 1983, ch. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .design import DesignSystem
from .solve import SingularSystemError, Solution, adjacent_correlations, solve

__all__ = [
    "IterationConfig",
    "TraceRecord",
    "StopCheck",
    "IterationResult",
    "check_stop",
    "signed_gap",
    "run",
]

PAPER_SLOPE = -1.0  # d gap / d log weight that the paper's update assumes
SLOPE_MAX = -0.05  # flattest slope a secant step trusts: 20 paper steps
STEP_CLIP = 3.0  # largest secant step in log weight


@dataclass
class IterationConfig:
    """References and controls for the smoothness-targeting loop.

    ``trend_target`` and ``level_target`` are the reference average
    correlations (both in (0, 1)); the accuracies bound the absolute gap on
    the log(1 - r^2) scale.
    """

    trend_target: float
    level_target: float
    trend_accuracy: float = 0.05
    level_accuracy: float = 0.05
    trend_weight_init: float = 1.0
    level_weight_init: float = 1.0
    max_iter: int = 100
    literal_level_denominator: bool = False

    def __post_init__(self):
        for name in ("trend_target", "level_target"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        for name in ("trend_accuracy", "level_accuracy", "trend_weight_init", "level_weight_init"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class StopCheck:
    stop: bool
    trend_gap: float
    level_gap: float
    trend_ok: bool
    level_ok: bool
    degenerate: bool = False


def signed_gap(measured: float, target: float) -> float:
    """The signed log gap log((1 - measured^2) / (1 - target^2)).

    Positive when the estimate is rougher than the reference.  Defined for
    a measured correlation below 1 in magnitude; :func:`check_stop` marks
    any other measurement degenerate.
    """
    return math.log((1.0 - float(measured) * float(measured)) / (1.0 - target * target))


def check_stop(trend_smoothness: float, level_smoothness: float, config: IterationConfig) -> StopCheck:
    """Evaluate the two-sided stopping condition.

    Both gaps must pass (AND semantics).  A measured correlation at or
    beyond 1 in magnitude, or non-finite, marks the check degenerate and
    fails it.
    """
    degenerate = not (
        math.isfinite(trend_smoothness)
        and math.isfinite(level_smoothness)
        and abs(trend_smoothness) < 1.0
        and abs(level_smoothness) < 1.0
    )
    if degenerate:
        return StopCheck(False, math.inf, math.inf, False, False, True)
    trend_gap = abs(signed_gap(trend_smoothness, config.trend_target))
    level_gap = abs(signed_gap(level_smoothness, config.level_target))
    trend_ok = trend_gap <= config.trend_accuracy
    level_ok = level_gap <= config.level_accuracy
    return StopCheck(trend_ok and level_ok, trend_gap, level_gap, trend_ok, level_ok)


@dataclass(frozen=True)
class TraceRecord:
    """One solve of the loop: its weights, smoothness and objective parts.

    The fields in order are the columns of ``trace.csv``.  A record that
    the solves of one system share (:func:`run`'s ``measurements``) has
    iteration 0, is not converged and has no note; each loop's trace holds
    a copy with its own iteration, stop flag and note.
    """

    iteration: int
    trend_weight: float
    level_weight: float
    trend_smoothness: float
    level_smoothness: float
    data_misfit: float
    trend_curvature: float
    level_curvature: float
    r2: float | None
    converged: bool
    note: str = ""  # the step that produced the next weights, and any stop


def _record(solution: Solution, config: IterationConfig) -> TraceRecord:
    corr = adjacent_correlations(
        solution, literal_level_denominator=config.literal_level_denominator
    )
    return TraceRecord(
        0, solution.trend_weight, solution.level_weight, corr.trend_smoothness,
        corr.level_smoothness, solution.data_misfit, solution.trend_curvature,
        solution.level_curvature, solution.r2, False,
    )


@dataclass
class IterationResult:
    solution: Solution  # the solve at the best iteration's weights
    trace: list
    converged: bool
    reason: str
    best_iteration: int
    fallback_steps: int = 0  # paper steps taken because the worst gap did not fall

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def best(self) -> TraceRecord:
        """The trace row of the returned solution."""
        return self.trace[self.best_iteration - 1]


def _secant_slope(log_w: float, gap: float, prev_log_w: float, prev_gap: float) -> float:
    """Slope of the gap in log weight through the last two solves, clamped
    to [PAPER_SLOPE, SLOPE_MAX]."""
    step = log_w - prev_log_w
    if step == 0.0:
        return PAPER_SLOPE
    return min(max((gap - prev_gap) / step, PAPER_SLOPE), SLOPE_MAX)


def _step(weights, gaps, slopes) -> tuple:
    """Each weight moved by ``-gap / slope`` in log weight, the move clipped
    to [-STEP_CLIP, STEP_CLIP]."""
    return tuple(
        w * math.exp(min(max(-g / s, -STEP_CLIP), STEP_CLIP))
        for w, g, s in zip(weights, gaps, slopes)
    )


def run(system: DesignSystem, config: IterationConfig, measurements: dict | None = None) -> IterationResult:
    """Run the loop to convergence, iteration budget, a singular system or
    an unmeasurable correlation.

    Never a silent success: on any other stop the best solution
    seen (the one with the smallest worst gap relative to its accuracy; the
    first solution when no gap is finite) is returned with
    ``converged=False``.

    The loop holds one solution at a time: it lets each go before the next
    solve, and its trace holds the best iteration's weights.  The returned
    solution is the last solve's where that is the best, as on every
    converged or degenerate stop; otherwise it is solved again at the best
    weights, the same deterministic solve, so a stopped loop pays one more
    solve.  A singular system on the first solve raises
    :class:`SingularSystemError`.  Deterministic: the trace is a pure
    function of the system and configuration.  Each trace row's note names
    the step that produced the next weights.

    A degenerate measurement (a non-finite correlation, or one at or beyond
    1 in magnitude) stops the loop after that solve: no weight makes a
    structurally undefined correlation measurable, as when sigma^2 is
    undefined because the stacked rows equal the parameters.

    ``measurements`` holds the :class:`TraceRecord` of each solve over
    ``system``, keyed by its exact weights and measuring rule, and gains
    one for each solve the loop makes.  Loops over one system, such as a
    ``--pair`` batch's, share it: a loop reads a weight pair that another
    has solved instead of solving it again, as every pair's first
    iteration at the initial weights.  It holds records only, never a
    solution; a loop whose best iteration was read from it solves that one
    again at the end, like a stopped loop.  The solves are deterministic,
    so the trace is the same either way.
    """
    weights = (config.trend_weight_init, config.level_weight_init)
    targets = (config.trend_target, config.level_target)
    trace: list[TraceRecord] = []

    best_score = math.inf
    best_iter = 0
    solution: Solution | None = None
    converged = False
    reason = "max_iter"
    previous = None  # (log weights, signed gaps) of the last solve
    previous_score = math.inf
    fallback_steps = 0
    measurements = {} if measurements is None else measurements

    for it in range(1, config.max_iter + 1):
        solution = None  # not held through the next solve
        key = (*weights, config.literal_level_denominator)
        seen = measurements.get(key)
        if seen is None:
            try:
                solution = solve(system, *weights)
            except SingularSystemError:
                if not trace:
                    raise
                # an unreachable target can drive a weight to extremes; stop
                # with the best solution seen rather than failing silently
                reason = f"singular system at iteration {it} (weights {', '.join(f'{w:.3g}' for w in weights)})"
                break
            seen = measurements[key] = _record(solution, config)
        measured = (seen.trend_smoothness, seen.level_smoothness)
        checked = check_stop(*measured, config)
        # infinite when the measurement is degenerate
        score = max(
            checked.trend_gap / config.trend_accuracy,
            checked.level_gap / config.level_accuracy,
        )
        if best_iter == 0 or score < best_score or checked.stop:
            best_score, best_iter = score, it

        slopes = (PAPER_SLOPE, PAPER_SLOPE)
        if checked.stop:
            converged, reason, note = True, "converged", "converged"
        elif checked.degenerate:
            note = "degenerate correlation measurement"
            reason = (
                f"sigma^2 undefined: n_total = p = {system.param_count}"
                if system.n_total == system.param_count
                else f"correlation not measurable (trend {measured[0]:.4g}, level {measured[1]:.4g})"
            )
        else:
            gaps = tuple(map(signed_gap, measured, targets))
            log_w = tuple(map(math.log, weights))
            if previous is None:
                note = "paper step"
            elif score >= previous_score:
                fallback_steps += 1
                note = "paper step: worst gap did not fall"
            else:
                slopes = tuple(map(_secant_slope, log_w, gaps, *previous))
                note = "secant step"
            previous = (log_w, gaps)
        previous_score = score

        trace.append(replace(seen, iteration=it, converged=converged, note=note))
        if converged or checked.degenerate:
            break
        weights = _step(weights, gaps, slopes)

    if not converged:
        stop = f"; stopped: {reason}, best iteration {best_iter}"
        trace[-1] = replace(trace[-1], note=trace[-1].note + stop)
    if solution is None or trace[-1].iteration != best_iter:
        solution = None  # not held through the solve again
        best = trace[best_iter - 1]
        solution = solve(system, best.trend_weight, best.level_weight)
    return IterationResult(
        solution=solution,
        trace=trace,
        converged=converged,
        reason=reason,
        best_iteration=best_iter,
        fallback_steps=fallback_steps,
    )
