"""Allocation guards: ingest holds one block of rows at a time, and a solve
allocates little beyond the factor and the selected inverse it keeps.

``tracemalloc`` counts the bytes Python and NumPy allocate, and the counts
repeat exactly from run to run, so a whole-file row list or a batch-wide
temporary coming back shows as a fixed excess over these bounds.
"""

import tracemalloc

from ctrend.design import DesignSystem
from ctrend.domain import build_domain
from ctrend.ingest import BLOCK_ROWS, ingest_file
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


def test_solve_allocates_little_beyond_its_result(tmp_path):
    """One `table` solve (p = 1395, half-bandwidth 64) keeps a 0.7 MB factor
    and 1.4 MB of inverse blocks, and peaks at 2.4 MB.  With the band sum's
    temporaries, the factor's copy and the inverse's batch-wide blocks
    (0.7 MB each) it peaked at 7.3 MB."""
    ingested = ingest_file(_table_file(tmp_path))
    domain = build_domain(ingested.cells, ingested.frame)
    system = DesignSystem.build(domain.filter_cells(ingested.cells)[0], domain)
    solve(system, 1.0, 1.0)  # the first call loads what later calls share
    _, peak = _traced_peak(lambda: solve(system, 1.0, 1.0))
    assert peak <= 3.0 * MB
