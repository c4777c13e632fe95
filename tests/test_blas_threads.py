"""The CLI's one-thread BLAS pin: set for each command, restored after it,
recorded in the manifest, and without effect on the bundle's tables."""

import csv
import ctypes
import importlib
import json
import sys

import pytest

from ctrend import cli, iterate
from ctrend.cli import EXIT_INPUT, EXIT_OK, main
from ctrend.ingest import ingest_file
from ctrend.pipeline import run_fit

solve = importlib.import_module("ctrend.solve")  # the package exports a function of that name


def _counts(pools):
    return {name: get() for name, (get, _) in pools.items()}


@pytest.fixture()
def pools():
    """The bundled OpenBLAS pools, set to two threads for the test and put
    back afterwards, so that a pin to one thread shows; empty where no
    OpenBLAS is found."""
    found = solve.openblas_pools()
    before = _counts(found)
    for _, set_threads in found.values():
        set_threads(2)
    try:
        yield found
    finally:
        for name, (_, set_threads) in found.items():
            set_threads(before[name])


@pytest.fixture()
def real_pools(pools):
    if not pools:
        pytest.skip("no bundled OpenBLAS found")
    if set(_counts(pools).values()) != {2}:
        pytest.skip("the OpenBLAS pools do not take two threads here")
    return pools


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--preset", "linear", "--noise", "1.0",
                 "--seed", "5", "--out", str(path)]) == EXIT_OK
    return str(path)


def _rows(path):
    """Header and data rows of a bundle table, as text."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def _record_solve_threads(monkeypatch, pools):
    """Record the pools' counts at every solve of the weight loop."""
    seen = []
    real_solve = iterate.solve

    def recording_solve(*args, **kwargs):
        seen.append(_counts(pools))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(iterate, "solve", recording_solve)
    return seen


@pytest.fixture()
def scipy_binding(monkeypatch):
    """LAPACK from scipy, as where numpy's BLAS exports none of the names:
    the binding is made (and scipy imported) before the test's pools are
    looked up, as ``cli.main`` makes it before the pin."""
    monkeypatch.setattr(solve, "_LAPACK_SYMBOLS", (("no_such_{}_", ctypes.c_int64),))
    solve._lapack.cache_clear()
    assert isinstance(solve._lapack(), solve._ScipyLapack)
    yield
    solve._lapack.cache_clear()


def test_pin_sets_one_thread_and_restores(real_pools):
    with solve.one_blas_thread() as threads:
        assert threads == {name: 1 for name in real_pools}
        # scipy's pool only where scipy is imported, as the tests do
        imported = {name for name in ("numpy", "scipy") if sys.modules.get(name) is not None}
        assert set(threads) == imported
        assert _counts(real_pools) == threads
    assert _counts(real_pools) == {name: 2 for name in real_pools}


def test_cli_fit_runs_pinned_and_restores(real_pools, data_file, tmp_path, monkeypatch):
    seen = _record_solve_threads(monkeypatch, real_pools)
    outdir = tmp_path / "run"
    assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0"]) == EXIT_OK
    assert seen and all(counts == {name: 1 for name in real_pools} for counts in seen)
    assert _counts(real_pools) == {name: 2 for name in real_pools}
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["runtime"] == {"blas_threads": {name: 1 for name in real_pools}}


def test_fallback_binding_pins_scipy_pool(scipy_binding, real_pools, data_file, tmp_path,
                                         monkeypatch):
    """Under the scipy binding the factor and solves run in scipy's pool,
    and the pin holds it at one thread with numpy's."""
    if "scipy" not in real_pools:
        pytest.skip("scipy's wheel bundles no OpenBLAS")
    with solve.one_blas_thread() as threads:
        assert threads == {"numpy": 1, "scipy": 1}
        assert _counts(real_pools) == threads
    assert _counts(real_pools) == {"numpy": 2, "scipy": 2}

    seen = _record_solve_threads(monkeypatch, real_pools)
    outdir = tmp_path / "run"
    assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0"]) == EXIT_OK
    assert seen and all(counts == {"numpy": 1, "scipy": 1} for counts in seen)
    assert _counts(real_pools) == {"numpy": 2, "scipy": 2}
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["runtime"] == {"blas_threads": {"numpy": 1, "scipy": 1}}


def test_cli_restores_after_input_error(real_pools, tmp_path, capsys):
    code = main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "run")])
    assert code == EXIT_INPUT
    assert _counts(real_pools) == {name: 2 for name in real_pools}


def test_cli_restores_after_exception(real_pools, data_file, tmp_path, monkeypatch):
    inside = []

    def failing_fit(*args, **kwargs):
        inside.append(_counts(real_pools))
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "batch_fit", failing_fit)
    with pytest.raises(RuntimeError, match="boom"):
        main(["fit", data_file, "--out", str(tmp_path / "run"), "--cell-min-count", "0"])
    assert inside == [{name: 1 for name in real_pools}]
    assert _counts(real_pools) == {name: 2 for name in real_pools}


def test_run_fit_leaves_pools_alone(real_pools, data_file, monkeypatch):
    seen = _record_solve_threads(monkeypatch, real_pools)
    run_fit(ingest_file(data_file, cell_min_count=0))
    assert seen and all(counts == {name: 2 for name in real_pools} for counts in seen)
    assert _counts(real_pools) == {name: 2 for name in real_pools}


def test_no_openblas_changes_nothing(pools, data_file, tmp_path, monkeypatch):
    monkeypatch.setattr(solve, "openblas_pools", lambda: {})
    before = _counts(pools)
    with solve.one_blas_thread() as threads:
        assert threads is None
        assert _counts(pools) == before
    outdir = tmp_path / "run"
    assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0"]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["runtime"] == {"blas_threads": None}
    assert _counts(pools) == before


def test_bundle_same_with_and_without_pin(pools, tmp_path, monkeypatch):
    """The pin moves only the cluster tables, in their last digits: the
    multi-right-hand-side banded solve there splits its work by thread."""
    data = tmp_path / "table.csv"
    assert main(["simulate", "--preset", "table", "--seed", "0", "--out", str(data)]) == EXIT_OK
    pinned, free = tmp_path / "pinned", tmp_path / "free"
    assert main(["fit", str(data), "--out", str(pinned)]) == EXIT_OK
    monkeypatch.setattr(solve, "openblas_pools", lambda: {})
    assert main(["fit", str(data), "--out", str(free)]) == EXIT_OK

    for name in ("trends.csv", "trace.csv", "levels.csv", "boundary_levels.csv", "observed.csv"):
        assert (pinned / name).read_bytes() == (free / name).read_bytes(), name
    for name in ("clusters.csv", "cluster_tests.csv"):
        a, b = (_rows(d / name) for d in (pinned, free))
        assert len(a) == len(b) and a[0] == b[0], name
        for row_a, row_b in zip(a[1:], b[1:]):
            for x, y in zip(row_a, row_b, strict=True):
                assert x == y or float(x) == pytest.approx(float(y), rel=1e-12, abs=0), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (pinned, free)]
    assert manifests[0]["digest"] == manifests[1]["digest"]
    assert manifests[1]["runtime"] == {"blas_threads": None}
