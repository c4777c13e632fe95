"""Benchmark of ``ctrend fit`` on simulated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--negative-control]

With ``--trace 0`` the set-up (import ctrend, simulate, write the CSV) runs
SETUP_REPEATS times, each in a fresh process, and then one child process
repeats the workload's ``ctrend fit`` for S seconds; the end-to-end metrics
of BENCHMARK.json are printed.  With ``--trace 1`` one in-process traced run
times every layer and the per-layer metrics are printed (see layers.py).
Every fit's outputs are checked (see checks.py).

The last line of standard output is the result object; the line before it
lists the per-check counts, and the one before that the environment.  The
same record, with every sample, goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import checks
from workloads import ROOT, WORKLOADS, use_checkout_program, workload

SETUP_REPEATS = 3
WORK = ROOT / ".perfbench_work"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
CHILD_TIMEOUT_S = 170


def _worker(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _openblas_threads() -> dict:
    """Threads each bundled OpenBLAS (numpy's, scipy's) will use, where found."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        for path in glob.glob(os.path.join(os.path.dirname(pkg.__file__) + ".libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "negative_control": args.negative_control,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_numpy": blas(numpy.show_config),
        "blas_scipy": blas(scipy.show_config),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def measured_run(args, work: str):
    """Set-up SETUP_REPEATS times, then the timed fits in one child process."""
    data, expect = os.path.join(work, "input.csv"), os.path.join(work, "expect.json")
    flags = ["--smoke"] if args.smoke else []
    setups = [
        _worker("setup", args.workload, args.seed, data, expect, *flags,
                *(["--drop-row"] if args.negative_control else []))
        for _ in range(SETUP_REPEATS)
    ]
    fit = _worker("fit", args.workload, data, expect, os.path.join(work, "out"), args.seconds,
                  *flags, *(["--negative-control"] if args.negative_control else []))

    tally = checks.Tally()
    for sample in fit["samples"]:
        tally.record(sample["checks"])
    # Fastest, not median, fit: on a shared machine the slower repeats measure
    # other tenants, in slow phases that last tens of seconds (see README).
    values = {
        "fit_s": min(s["wall_s"] for s in fit["samples"]),
        "cpu_s": min(s["cpu_s"] for s in fit["samples"]),
        "peak_rss_mb": fit["peak_rss_mb"],
        "setup_s": statistics.median(s["import_s"] + s["simulate_s"] + s["write_s"] for s in setups),
        "fit_ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {"setup": setups, "fit": [{k: s[k] for k in ("wall_s", "cpu_s")} for s in fit["samples"]]}
    return values, tally, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--negative-control", action="store_true",
                        help="drop an input row, corrupt the bundle, perturb the estimate: every check must fail")
    args = parser.parse_args(argv)
    use_checkout_program()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            from layers import traced_run

            values, tally, spans = traced_run(
                workload(args.workload, args.smoke), args.seed, str(work), args.negative_control
            )
            samples = {"spans": spans}
        else:
            values, tally, samples = measured_run(args, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    env = environment(args)
    record = {"env": env, "result": result, "checks": tally.checks, "fits": tally.details, "samples": samples}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env))
    print("checks " + json.dumps(tally.checks))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
