"""Command-line front end.

Subcommands: ``fit`` (estimate from a survey file and emit tables and
figures), ``simulate`` (write a synthetic survey file from a scenario
preset or file), ``verify`` (run the built-in verification suite),
``report`` (summarize a run directory and regenerate its figures).

Exit codes: 0 success, 2 input error, 3 non-convergence, 4 singular system,
5 no LAPACK found.  The output directory defaults to ``$CTREND_OUT_DIR``
when set.  No command imports scipy where numpy's BLAS exports the LAPACK
routines, as numpy's wheels do (:mod:`ctrend.solve`).  Every command runs
with the OpenBLAS pool of numpy's wheel at one thread, and scipy's too
where scipy is imported (:func:`ctrend.solve.one_blas_thread`); the
manifest records the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .domain import DomainError
from .grid import ObservationalFrame
from .ingest import ingest_file
from .pipeline import FitOptions, batch_fit, build_manifest
from .report import (
    BundleWriter,
    comparison_entry,
    manifest_digest,
    render_bundle_svgs,
    write_comparison_entries,
)
from .simulate import (
    PRESETS,
    Scenario,
    SurveyPlan,
    affine_scenario,
    preset,
    simulate,
    write_records,
)
from .solve import LapackUnavailableError, SingularSystemError, one_blas_thread, require_lapack
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SINGULAR = 4
EXIT_NO_LAPACK = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrend",
        description="Estimate birth-cohort trends from independent cross-sectional surveys.",
    )
    parser.add_argument("--version", action="version", version=f"ctrend {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a survey data file and write the output bundle")
    fit.add_argument("data", help="survey file (see the README for the format)")
    fit.add_argument("--out", default=None, help="output directory (default: $CTREND_OUT_DIR or ./ctrend-out)")
    fit.add_argument("--config", default=None, help="JSON config file; flags override its entries")
    fit.add_argument("--trend-target", type=float, default=None, help="reference adjacent-trend correlation (default 0.9)")
    fit.add_argument("--level-target", type=float, default=None, help="reference initial-level correlation (default 0.7)")
    fit.add_argument("--trend-accuracy", type=float, default=None, help="stopping accuracy for the trend gap (default 0.05)")
    fit.add_argument("--level-accuracy", type=float, default=None, help="stopping accuracy for the level gap (default 0.05)")
    fit.add_argument("--trend-weight-init", type=float, default=None, help="initial trend smoothing weight (default 1.0)")
    fit.add_argument("--level-weight-init", type=float, default=None, help="initial level smoothing weight (default 1.0)")
    fit.add_argument("--max-iter", type=int, default=None, help="iteration budget (default 100)")
    fit.add_argument("--cell-min-count", type=int, default=None, help="exclude cells with at most this many records (default 5)")
    fit.add_argument("--domain-mode", type=int, choices=(1, 2), default=None, help="1: all cohort segments; 2: cohorts with 2+ data cells (default 1)")
    fit.add_argument("--age-window", type=int, default=None, help="cluster width in ages (default 5)")
    fit.add_argument("--year-window", type=int, default=None, help="cluster width in years (default 5)")
    fit.add_argument("--cohort", dest="cohort_birth_year", metavar="COHORT", type=int, default=None, help="birth year for the cohort-track figure (default: best-covered cohort)")
    fit.add_argument("--weight-by-count", action="store_true", default=None, help="weight data rows by cell record counts")
    fit.add_argument("--literal-level-denominator", action="store_true", default=None, help="use the slot count instead of the link count in the level smoothness mean")
    fit.add_argument(
        "--pair",
        action="append",
        metavar="LEVEL:TREND",
        help="reference pair for batch mode, repeatable (e.g. --pair 0.7:0.9)",
    )

    sim = sub.add_parser("simulate", help="write a synthetic survey file")
    sim.add_argument("--preset", choices=sorted(PRESETS), default="table")
    sim.add_argument("--scenario", default=None, help="JSON scenario file (overrides --preset)")
    sim.add_argument("--out", required=True, help="output data file")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise", type=float, default=None, help="noise standard deviation")
    sim.add_argument("--samples", type=int, default=None, help="records per survey-age cell")

    ver = sub.add_parser("verify", help="run the built-in verification suite")
    ver.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb the solver outputs; the checks must then fail",
    )

    rep = sub.add_parser("report", help="summarize a run directory and regenerate figures")
    rep.add_argument("rundir")
    return parser


# The JSON values a config entry takes, by its FitOptions field's annotation:
# a boolean only where the field is a flag, never where it is a number.
_CONFIG_TYPES = {
    "bool": ((bool,), "a boolean"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "int | None": ((int, type(None)), "an integer or null"),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    annotation = {f.name: f.type for f in fields(FitOptions)}
    unknown = set(config) - set(annotation)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in config.items():
        accepted, kind = _CONFIG_TYPES[annotation[key]]
        if isinstance(value, bool) != (annotation[key] == "bool") or not isinstance(value, accepted):
            raise ValueError(f"{path}: config entry {key!r} must be {kind}, got {json.dumps(value)}")
    return config


def _fit_options(args) -> FitOptions:
    values = asdict(FitOptions())
    values.update(_load_config(args.config))
    values.update({k: getattr(args, k) for k in values if getattr(args, k) is not None})
    return FitOptions(**values)


def _r2_text(r2) -> str:
    """Summary text for R^2, which a solve leaves undefined (None) for
    fewer than two cells or targets with no variance."""
    return "R^2 undefined" if r2 is None else f"R^2 = {r2:.4f}"


def _pair_bundles(outdir: str, specs) -> dict:
    """Each ``--pair LEVEL:TREND`` as a (level, trend) pair, mapped to the
    ``R_<level>_<trend>`` directory its bundle goes to.  Two pairs that name
    the same directory are rejected, so no bundle overwrites another."""
    bundles, spec_of = {}, {}
    for spec in specs:
        try:
            level, trend = map(float, spec.split(":"))
        except ValueError:
            raise ValueError(f"bad --pair {spec!r}, expected LEVEL:TREND like 0.7:0.9")
        name = f"R_{level:g}_{trend:g}"
        if name in spec_of:
            raise ValueError(f"--pair {spec_of[name]} and --pair {spec} both write {name}")
        spec_of[name] = spec
        bundles[(level, trend)] = os.path.join(outdir, name)
    return bundles


def _cleanup(paths, made):
    """Remove the files a failed fit wrote, then the directories it made,
    deepest first, each only if it is empty."""
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    for directory in reversed(made):
        try:
            os.rmdir(directory)
        except OSError:
            pass


def cmd_fit(args) -> int:
    """Fit every reference pair and write its bundle.  A plain fit is the
    one pair of the options, written to the output directory itself; with
    ``--pair``, each bundle goes to its own directory beside a comparison
    sheet.  The pairs are fitted in sorted order, and each bundle is written
    as soon as its pair is fitted; the batch then keeps only the pair's
    comparison entry, manifest digest and converged flag.  One writer
    serves the call, so the files that do not depend on the pair are
    rendered once (:class:`~ctrend.report.BundleWriter`)."""
    outdir = args.out or os.environ.get("CTREND_OUT_DIR") or "ctrend-out"
    written, made = [], []
    writer = BundleWriter()

    def write(pair, fit):
        level, trend = pair
        bundle = bundles[pair]
        manifest = build_manifest(fit, [os.path.abspath(args.data)], extra={"runtime": args.runtime})
        written.extend(writer.write(bundle, fit, manifest))
        status = "converged" if fit.iteration.converged else fit.iteration.reason
        done = f"{status} in {fit.iteration.iterations} iteration(s)"
        r2 = _r2_text(fit.solution.r2)
        if args.pair:
            print(f"R({level:g}, {trend:g}): {done}, {r2} -> {bundle}")
        else:
            weights = f"({fit.solution.trend_weight:.4g}, {fit.solution.level_weight:.4g})"
            print(f"{done}; {r2}, weights = {weights}; outputs in {bundle}")
        return manifest["digest"], fit.iteration.converged, comparison_entry(pair, fit)

    try:
        options = _fit_options(args)
        if args.pair:
            bundles = _pair_bundles(outdir, args.pair)
        else:
            bundles = {(options.level_target, options.trend_target): outdir}
        made = [d for d in dict.fromkeys([outdir, *bundles.values()]) if not os.path.isdir(d)]
        ingest_result = ingest_file(args.data, cell_min_count=options.cell_min_count)
        kept = batch_fit(ingest_result, options, sorted(bundles), each=write)
        digests, converged, entries = zip(*kept.values())
        if args.pair:
            written += write_comparison_entries(outdir, entries, manifest_digest({"runs": list(digests)}))
        return EXIT_OK if all(converged) else EXIT_NO_CONVERGENCE
    except SingularSystemError as err:
        _cleanup(written, made)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except (OSError, ValueError, DomainError) as err:
        _cleanup(written, made)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


# The keys a scenario file may hold, at its top level and in each section.
_SCENARIO_KEYS = {
    "": {"frame", "surveys", "initial_levels", "trends", "noise_sd", "seed", "label"},
    "frame": {"y_min", "y_max", "a_min", "a_max"},
    "surveys": {"year", "age_min", "age_max", "samples_per_age", "start_month", "duration_months"},
    "initial_levels": {"base", "per_slot"},
    "trends": {"base", "per_year", "per_age"},
}
# The JSON values of the numeric keys among them, as for a config entry: int()
# would truncate a real number, and float() would take a boolean or a text.
_SCENARIO_NUMBERS = {
    **dict.fromkeys(
        ("seed", "year", "age_min", "age_max", "samples_per_age", "start_month", "duration_months"),
        _CONFIG_TYPES["int"],
    ),
    **dict.fromkeys(
        ("y_min", "y_max", "a_min", "a_max", "base", "per_slot", "per_year", "per_age", "noise_sd"),
        _CONFIG_TYPES["float"],
    ),
}


def _scenario_from_file(path: str, seed: int) -> Scenario:
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: scenario must be a JSON object")
    # A misspelt key would otherwise leave its field at the default.
    sections = [("", "", spec)]
    sections += [(name, f"{name}.", spec.get(name)) for name in ("frame", "initial_levels", "trends")]
    if isinstance(spec.get("surveys"), list):
        sections += [("surveys", f"surveys[{k}].", s) for k, s in enumerate(spec["surveys"])]
    entries = [(name, prefix, key, value) for name, prefix, section in sections
               if isinstance(section, dict) for key, value in section.items()]
    unknown = [prefix + key for name, prefix, key, _ in entries if key not in _SCENARIO_KEYS[name]]
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys {unknown}")
    for _, prefix, key, value in entries:
        if key in _SCENARIO_NUMBERS:
            accepted, kind = _SCENARIO_NUMBERS[key]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(
                    f"{path}: scenario entry {prefix + key!r} must be {kind}, got {json.dumps(value)}"
                )
    try:
        frame = ObservationalFrame(*(float(spec["frame"][k]) for k in ("y_min", "y_max", "a_min", "a_max")))
        surveys = [
            SurveyPlan(
                year=s["year"],
                age_min=s["age_min"],
                age_max=s["age_max"],
                samples_per_age=s.get("samples_per_age", 10),
                start_month=s.get("start_month", 1),
                duration_months=s.get("duration_months", 4),
            )
            for s in spec["surveys"]
        ]
        lv = spec.get("initial_levels", {})
        tr = spec.get("trends", {})
        return affine_scenario(
            frame,
            surveys,
            level_base=float(lv.get("base", 24.0)), per_slot=float(lv.get("per_slot", 0.0)),
            trend_base=float(tr.get("base", 0.1)),
            per_year=float(tr.get("per_year", 0.0)), per_age=float(tr.get("per_age", 0.0)),
            noise_sd=float(spec.get("noise_sd", 0.0)),
            seed=spec.get("seed", seed),
            label=spec.get("label", os.path.basename(path)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed scenario ({type(err).__name__}: {err})") from None


def cmd_simulate(args) -> int:
    try:
        if args.scenario:
            scenario = _scenario_from_file(args.scenario, args.seed)
        else:
            kwargs = {"seed": args.seed}
            if args.noise is not None:
                kwargs["noise_sd"] = args.noise
            if args.samples is not None:
                kwargs["samples_per_age"] = args.samples
            scenario = preset(args.preset, **kwargs)
        records = simulate(scenario)
        write_records(records, args.out)
        print(f"wrote {len(records)} records ({scenario.label or 'scenario'}) to {args.out}")
        return EXIT_OK
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def cmd_verify(args) -> int:
    passed = run_verification(negative_control=args.negative_control)
    return EXIT_OK if passed else 1


def cmd_report(args) -> int:
    manifest_path = os.path.join(args.rundir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        try:
            result, ref = manifest.get("result", {}), manifest.get("references", {})
            summary = (
                f"run {manifest.get('digest', '?')} (ctrend {manifest.get('tool', {}).get('version', '?')})\n"
                f"  inputs:     {', '.join(manifest.get('inputs', []))}\n"
                f"  references: trend {ref.get('trend_target')}, level {ref.get('level_target')}\n"
                f"  status:     {'converged' if result.get('converged') else result.get('reason')}"
                f" in {result.get('iterations')} iteration(s)\n"
                f"  R^2:        {result.get('r2')}\n"
                f"  weights:    trend {result.get('trend_weight')}, level {result.get('level_weight')}"
            )
        except (AttributeError, TypeError) as err:
            raise ValueError(f"{manifest_path}: malformed manifest ({type(err).__name__}: {err})") from None
        print(summary)
        rendered = render_bundle_svgs(args.rundir)
        print(f"  regenerated {len(rendered)} figure(s)")
        return EXIT_OK
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "fit": cmd_fit,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "report": cmd_report,
    }[args.command]
    if args.command in ("fit", "verify"):
        try:
            # before any input is read or output written, and before the
            # pin, which finds scipy's pool where the binding imports scipy
            require_lapack()
        except LapackUnavailableError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_NO_LAPACK
    with one_blas_thread() as blas_threads:
        args.runtime = {"blas_threads": blas_threads}
        return handler(args)


if __name__ == "__main__":
    sys.exit(main())
