"""Allocation guards: ingest holds one block of rows at a time, the design
and a solve allocate little beyond the bands, factor and selected inverse
they keep, the weight loop holds one solution at a time, the cluster tests
copy their averaging map once, and a `--pair` batch holds one fitted pair
at a time.

``tracemalloc`` counts the bytes Python and NumPy allocate, and the counts
repeat exactly from run to run, so a whole-file row list or a batch-wide
temporary coming back shows as a fixed excess over these bounds.
"""

import contextlib
import io
import tracemalloc

from ctrend import cli
from ctrend.design import DesignSystem
from ctrend.domain import build_domain
from ctrend.inference import cluster_compare
from ctrend.ingest import BLOCK_ROWS, ingest_file
from ctrend.iterate import run
from ctrend.pipeline import FitOptions, run_fit
from ctrend.simulate import preset, simulate, write_records
from ctrend.solve import solve

MB = 1e6


def _traced_peak(call):
    """``call()``'s result and the most memory it held at once above what it
    started with, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _table_file(directory, **kwargs):
    path = str(directory / "table.csv")
    write_records(simulate(preset("table", seed=0, **kwargs)), path)
    return path


def test_ingest_holds_one_block_of_rows(tmp_path):
    """A 2950-row `table` file spans three blocks.  Its rows as Python lists
    take about 1.6 MB, so a parse that kept them all peaked at 2.3 MB; block
    by block the ingest peaks at 1.3 MB."""
    path = _table_file(tmp_path, samples_per_age=10)
    result, peak = _traced_peak(lambda: ingest_file(path))
    assert 2 * BLOCK_ROWS < result.n_input <= 3 * BLOCK_ROWS
    assert peak <= 2.0 * MB


def _table_system(directory):
    ingested = ingest_file(_table_file(directory))
    domain = build_domain(ingested.cells, ingested.frame)
    return DesignSystem.build(domain.filter_cells(ingested.cells)[0], domain)


def test_solve_allocates_little_beyond_its_result(tmp_path):
    """One `table` solve (p = 1395, half-bandwidth 64) keeps a 0.7 MB factor
    and the 0.7 MB band of its selected inverse, in the factor's storage,
    and peaks at 1.9 MB.  With 1.4 MB of inverse blocks (twice the band)
    it peaked at 2.4 MB, and with the band sum's temporaries, the factor's
    copy and the inverse's batch-wide blocks (0.7 MB each) at 7.3 MB."""
    system = _table_system(tmp_path)
    solve(system, 1.0, 1.0)  # the first call loads what later calls share
    _, peak = _traced_peak(lambda: solve(system, 1.0, 1.0))
    assert peak <= 2.2 * MB


def test_weight_loop_holds_one_solution(tmp_path):
    """The loop over a `table` design lets each solution go before the next
    solve and keeps the best iteration's weights, so it peaks at 2.0 MB,
    about one solve's peak.  Holding the best solution through each solve
    peaked at 4.7 MB.  A loop stopped by its budget after its best
    iteration solves that one again, after letting the last one go."""
    system = _table_system(tmp_path)
    converging = FitOptions()
    stopped = FitOptions(level_target=0.3, trend_target=0.6, max_iter=10)
    run(system, converging)  # the first call loads what later calls share
    for config in (converging, stopped):
        result, peak = _traced_peak(lambda: run(system, config))
        assert result.converged == (config is converging)
        assert result.best_iteration < result.iterations or result.converged
        assert peak <= 2.5 * MB


def test_design_allocates_little_beyond_its_bands(tmp_path):
    """`DesignSystem.build` on a `table` fit keeps three bands of 0.73 MB
    each and peaks at 3.0 MB: each row's products go straight into its
    band.  Forming the sparse Gram matrices and a COO copy of each peaked
    at 4.7 MB."""
    ingested = ingest_file(_table_file(tmp_path))
    domain = build_domain(ingested.cells, ingested.frame)
    cells = domain.filter_cells(ingested.cells)[0]
    DesignSystem.build(cells, domain)  # the first call loads what later calls share
    system, peak = _traced_peak(lambda: DesignSystem.build(cells, domain))
    assert peak <= system.bands.nbytes + 1.2 * MB


def test_cluster_tests_hold_one_forward_solve(tmp_path):
    """The block covariances of a `table` fit come from one forward solve
    over the averaging map, written straight into a 1395 x 63 array in
    banded order (0.70 MB) and solved in place: no dense 63 x 1395 map and
    no copy of it.  The tests peak at 0.8 MB; with the dense map and a
    two-sided solve over its copy they peaked at 2.16 MB."""
    run = run_fit(ingest_file(_table_file(tmp_path)))
    cluster_compare(run.solution)  # the first call loads what later calls share
    report, peak = _traced_peak(lambda: cluster_compare(run.solution))
    assert len(report.clusters) == 63
    assert peak <= 1.2 * MB


def test_pair_batch_holds_one_run_at_a_time(tmp_path):
    """Each bundle is written as soon as its pair is fitted and the run is
    let go, so a 4-pair fit peaks 0.2 MB above a 1-pair fit (8.3 MB) on a
    `table` file.  A batch that kept every run, with its factor and
    inverse blocks, until the last bundle peaked 6.8 MB above it."""
    path = _table_file(tmp_path, samples_per_age=10)
    pairs = ["0.7:0.9", "0.5:0.9", "0.7:0.8", "0.6:0.85"]

    def fit(n):
        argv = ["fit", path, "--out", str(tmp_path / f"pairs{n}")]
        for pair in pairs[:n]:
            argv += ["--pair", pair]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    fit(1)  # the first fit loads what later ones share
    one, one_peak = _traced_peak(lambda: fit(1))
    four, four_peak = _traced_peak(lambda: fit(4))
    assert (one, four) == (cli.EXIT_OK, cli.EXIT_OK)
    assert four_peak <= one_peak + 1.0 * MB
