"""Child processes of the benchmark; each prints one JSON object as its last line.

    worker.py setup WORKLOAD SEED CSV EXPECT [--smoke] [--drop-row]
        Fresh process: time ``import ctrend``, then make the workload input
        (simulate, rewrite flagged rows, write_records) and its expectations.

    worker.py fit WORKLOAD CSV EXPECT OUTDIR SECONDS [--smoke] [--negative-control]
        Repeat the workload's ``ctrend fit`` through ``ctrend.cli.main`` until
        SECONDS have passed, check every fit, and report wall and CPU seconds
        per fit and this process's peak RSS.  The process runs nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback

from workloads import fit_argv, make_input, use_checkout_program, workload


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import ctrend  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    timings, expect = make_input(workload(args.workload, args.smoke), args.seed, args.csv, args.drop_row)
    with open(args.expect, "w") as fh:
        json.dump(expect, fh)
    return dict(timings, import_s=import_s)


def cmd_fit(args) -> dict:
    from ctrend import cli

    import checks

    wl = workload(args.workload, args.smoke)
    with open(args.expect) as fh:
        expect = json.load(fh)
    argv = fit_argv(wl, args.csv, args.outdir)
    samples = []
    deadline = time.perf_counter() + args.seconds
    while True:
        shutil.rmtree(args.outdir, ignore_errors=True)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        except Exception:  # a crash is a failed fit; keep measuring the rest
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if args.negative_control:
            checks.corrupt_bundles(wl, args.outdir)
        samples.append({"wall_s": wall, "cpu_s": cpu, "checks": checks.check_fit(wl, args.outdir, code, expect)})
        if time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"samples": samples, "peak_rss_mb": peak_kb / 1024.0}


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    sub = parser.add_subparsers(dest="role", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload")
    setup.add_argument("seed", type=int)
    setup.add_argument("csv")
    setup.add_argument("expect")
    setup.add_argument("--smoke", action="store_true")
    setup.add_argument("--drop-row", action="store_true")
    fit = sub.add_parser("fit")
    fit.add_argument("workload")
    fit.add_argument("csv")
    fit.add_argument("expect")
    fit.add_argument("outdir")
    fit.add_argument("seconds", type=float)
    fit.add_argument("--smoke", action="store_true")
    fit.add_argument("--negative-control", action="store_true")
    args = parser.parse_args()
    use_checkout_program()
    result = {"setup": cmd_setup, "fit": cmd_fit}[args.role](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
