"""Command-line behaviour: subcommands, exit codes, cleanup, config."""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ctrend

from ctrend import cli, iterate, pipeline, report
from ctrend.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_NO_LAPACK,
    EXIT_OK,
    EXIT_SINGULAR,
    main,
)
from ctrend.solve import SingularSystemError


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    code = main(["simulate", "--preset", "linear", "--noise", "1.0",
                 "--seed", "5", "--out", str(path)])
    assert code == EXIT_OK
    return str(path)


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--preset", "stationary", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--preset", "stationary", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_file(self, tmp_path):
        spec = {
            "frame": {"y_min": 2000, "y_max": 2004, "a_min": 30, "a_max": 35},
            "surveys": [
                {"year": 2000, "age_min": 30, "age_max": 35, "samples_per_age": 4,
                 "duration_months": 12},
                {"year": 2002, "age_min": 30, "age_max": 34, "samples_per_age": 4},
            ],
            "initial_levels": {"base": 24.0, "per_slot": 0.1},
            "trends": {"base": 0.2, "per_age": -0.01},
            "noise_sd": 0.5,
            "seed": 9,
        }
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6 * 4 + 5 * 4

    def test_bad_scenario(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"frame": {"y_min": 2000, "y_max": 2004,
                                              "a_min": 30, "a_max": 35},
                                    "surveys": [{"year": 2030, "age_min": 30,
                                                 "age_max": 35}]}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1], "must be a JSON object"),
            ({"frame": None, "surveys": []}, "NoneType"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32}, "surveys": 5},
             "not iterable"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32, "sample_per_age": 50}],
              "nosie_sd": 1.0},
             "unknown scenario keys ['nosie_sd', 'surveys[0].sample_per_age']"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32, "amax": 33},
              "surveys": [], "initial_levels": {"bsae": 20.0}, "trends": {"per_yaer": 0.1}},
             "unknown scenario keys ['frame.amax', 'initial_levels.bsae', 'trends.per_yaer']"),
            # int() would make these 2000, 2 and 1: six records and exit 0
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000.9, "age_min": 30, "age_max": 32, "samples_per_age": 2.9}],
              "seed": 1.7},
             "scenario entry 'seed' must be an integer, got 1.7"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32},
                          {"year": 2001.0, "age_min": 30, "age_max": 32}]},
             "scenario entry 'surveys[1].year' must be an integer, got 2001.0"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32, "samples_per_age": True}]},
             "scenario entry 'surveys[0].samples_per_age' must be an integer, got true"),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32, "duration_months": "4"}]},
             "scenario entry 'surveys[0].duration_months' must be an integer, got \"4\""),
            # float() would take these as 2000.0 and 1.0
            ({"frame": {"y_min": "2000", "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32}]},
             "scenario entry 'frame.y_min' must be a number, got \"2000\""),
            ({"frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
              "surveys": [{"year": 2000, "age_min": 30, "age_max": 32}], "noise_sd": True},
             "scenario entry 'noise_sd' must be a number, got true"),
        ],
        ids=["list", "null frame", "number surveys", "misspelt noise and samples",
             "misspelt section keys", "real integers", "real survey year", "boolean samples",
             "text duration", "text frame bound", "boolean noise"],
    )
    def test_malformed_scenario_structure(self, tmp_path, capsys, spec, message):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scen}: ") and message in err
        assert not out.exists()


class TestFit:
    def test_fit_bundle_and_exit_codes(self, data_file, tmp_path):
        outdir = tmp_path / "run"
        code = main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--trend-target", "0.85"])
        assert code == EXIT_OK
        for name in ("manifest.json", "trends.csv", "trends.svg", "trace.csv"):
            assert (outdir / name).exists()

    def test_empty_input_no_outputs(self, tmp_path, capsys):
        header = b"survey,exam_date,age,bmi\n"
        inputs = {  # file bytes -> the error message
            "empty": (header, "no records to ingest"),
            "bom": (b"\xef\xbb\xbf" + header, "no records to ingest"),
            "all_flagged": (header + b"S1,1700.5,30,24.0\nS1,2000.5,30,\n", "every input row was flagged"),
            "ragged": (header + b"S1,2000.5,30,24,5\nS1,2000.5,31,24,7\n", "every input row was flagged"),
            "height_overflow": (
                b"survey,exam_date,age,weight,height\nS1,2000.5,30,80,1e200\n",
                "every input row was flagged",
            ),
            "not_utf8": (header + b"S\xff1,2000.5,30,24.0\n", "not UTF-8"),
        }
        for name, (content, message) in inputs.items():
            data = tmp_path / f"{name}.csv"
            data.write_bytes(content)
            outdir = tmp_path / f"run-{name}"
            assert main(["fit", str(data), "--out", str(outdir)]) == EXIT_INPUT, name
            assert message in capsys.readouterr().err, name
            assert not outdir.exists() or not list(outdir.iterdir())

    def test_sparse_preset_names_the_threshold(self, tmp_path, capsys):
        """The linear preset holds 2 records per cell, so a default fit keeps
        no cell: exit 2 with an error that says what to lower, no bundle."""
        data, outdir = tmp_path / "linear.csv", tmp_path / "run"
        assert main(["simulate", "--preset", "linear", "--out", str(data)]) == EXIT_OK
        capsys.readouterr()
        assert main(["fit", str(data), "--out", str(outdir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            "error: no analyzable cells: every populated cell fell at or below the count "
            "threshold 5 (the fullest cell has 2 records; lower cell_min_count / "
            "--cell-min-count or add records)\n"
        )
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_singular_input_exit_code(self, tmp_path):
        rows = ["id,survey,exam_date,age,bmi"]
        for k, t in enumerate([0.5, 0.5, 0.5, 0.9]):  # three collinear points
            rows.append(f"s{k},S1,{2000 + t},{30 + k},24.{k}")
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(rows) + "\n")
        outdir = tmp_path / "run"
        code = main(["fit", str(data), "--out", str(outdir), "--cell-min-count", "0"])
        assert code == EXIT_SINGULAR
        assert not outdir.exists() or not list(outdir.iterdir())

    def test_non_convergence_exit_code(self, data_file, tmp_path):
        outdir = tmp_path / "run"
        code = main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--trend-target", "0.85", "--max-iter", "1"])
        assert code == EXIT_NO_CONVERGENCE
        assert (outdir / "manifest.json").exists()  # flagged result still written
        manifest = json.load(open(outdir / "manifest.json"))
        assert manifest["result"]["converged"] is False

    @pytest.mark.parametrize("budget", [[], ["--max-iter", "1"]])
    def test_saturated_design_stops_with_first_solution(self, tmp_path, capsys, budget):
        # 2 years x 3 ages, fully covered: n_total = p = 10, so sigma^2 and
        # both adjacent correlations are NaN although the system at the
        # initial weights solves; the fit stops with that solution, exit 3
        spec = {
            "frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
            "surveys": [{"year": year, "age_min": 30, "age_max": 32, "samples_per_age": 8,
                         "duration_months": 12} for year in (2000, 2001)],
            "noise_sd": 1.0,
            "seed": 1,
        }
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(spec))
        data = tmp_path / "saturated.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(data)]) == EXIT_OK
        outdir = tmp_path / "run"
        code = main(["fit", str(data), "--out", str(outdir), "--cell-min-count", "0",
                     "--age-window", "1", "--year-window", "1"] + budget)
        assert code == EXIT_NO_CONVERGENCE
        result = json.load(open(outdir / "manifest.json"))["result"]
        assert result["converged"] is False
        assert result["trend_weight"] == result["level_weight"] == 1.0
        assert "Traceback" not in capsys.readouterr().err

    def test_one_cluster_block_writes_bundle(self, tmp_path, capsys):
        # the saturated design of the test above with the default 5 x 5
        # windows: one cluster block, so no pair to test; the bundle is
        # still written and the exit code follows the loop
        spec = {
            "frame": {"y_min": 2000, "y_max": 2002, "a_min": 30, "a_max": 32},
            "surveys": [{"year": year, "age_min": 30, "age_max": 32, "samples_per_age": 8,
                         "duration_months": 12} for year in (2000, 2001)],
            "noise_sd": 1.0,
            "seed": 1,
        }
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(spec))
        data = tmp_path / "saturated.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(data)]) == EXIT_OK
        outdir = tmp_path / "run"
        assert main(["fit", str(data), "--out", str(outdir), "--cell-min-count", "0"]) == EXIT_NO_CONVERGENCE
        result = json.load(open(outdir / "manifest.json"))["result"]
        assert result["reason"] == "sigma^2 undefined: n_total = p = 10"
        assert any("no adjacent cluster pairs" in w for w in result["warnings"])
        assert len((outdir / "trace.csv").read_text().splitlines()) == 3  # digest, header, one row
        assert (outdir / "cluster_tests.csv").read_text().splitlines()[1:] == [
            "year_start,age_start,direction,neighbour_year_start,neighbour_age_start,"
            "f_value,prob,degenerate"
        ]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--cohort", "1800"], ["--cohort", "1800", "--pair", "0.7:0.9", "--pair", "0.5:0.9"],
        ["--age-window", "0"], ["--year-window", "0"],
    ])
    def test_bad_option_rejected_before_first_solve(self, data_file, tmp_path, monkeypatch, flags):
        solves = []
        solve = iterate.solve
        monkeypatch.setattr(iterate, "solve", lambda *args: solves.append(args) or solve(*args))
        outdir = tmp_path / "run"
        code = main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0"] + flags)
        assert code == EXIT_INPUT
        assert solves == []
        assert not outdir.exists() or not list(outdir.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_cell_min_count(self, data_file, tmp_path, capsys, monkeypatch, source):
        """A negative record threshold is an input error, found before the
        data file is read."""
        reads = []
        monkeypatch.setattr(cli, "ingest_file", lambda *args, **kwargs: reads.append(args))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cell_min_count": -3}))
        option = ["--cell-min-count", "-1"] if source == "flag" else ["--config", str(config)]
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--out", str(outdir)] + option) == EXIT_INPUT
        value = -1 if source == "flag" else -3
        assert capsys.readouterr().err == f"error: cell_min_count must be >= 0, got {value}\n"
        assert reads == []
        assert not outdir.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--trend-accuracy", "nan"), ("--level-accuracy", "inf"),
        ("--trend-weight-init", "nan"), ("--level-weight-init", "inf"),
    ])
    def test_non_finite_loop_settings(self, data_file, tmp_path, capsys, flag, value):
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--out", str(outdir), flag, value]) == EXIT_INPUT
        assert "must be finite and positive" in capsys.readouterr().err
        assert not outdir.exists() or not list(outdir.iterdir())

    def test_config_file_with_cli_override(self, data_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trend_target": 0.8, "cell_min_count": 0,
                                      "age_window": 3, "year_window": 3}))
        outdir = tmp_path / "run"
        code = main(["fit", data_file, "--out", str(outdir), "--config", str(config),
                     "--trend-target", "0.85"])
        assert code == EXIT_OK
        manifest = json.load(open(outdir / "manifest.json"))
        assert manifest["references"]["trend_target"] == 0.85  # flag wins
        assert manifest["config"]["age_window"] == 3  # config survives

    def test_unknown_config_key(self, data_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nope": 1}))
        assert main(["fit", data_file, "--config", str(config),
                     "--out", str(tmp_path / "run")]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "entry, kind",
        [
            ({"max_iter": "ten"}, "an integer"),
            ({"age_window": "5"}, "an integer"),
            ({"trend_target": "0.9"}, "a number"),
            ({"cohort_birth_year": "1950"}, "an integer or null"),
            ({"cell_min_count": None}, "an integer"),
            ({"weight_by_count": "no"}, "a boolean"),
            ({"max_iter": True}, "an integer"),
            ({"level_target": False}, "a number"),
        ],
    )
    def test_mistyped_config_entry(self, data_file, tmp_path, capsys, entry, kind):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--config", str(config), "--out", str(outdir)]) == EXIT_INPUT
        (key, value), = entry.items()
        assert f"{config}: config entry {key!r} must be {kind}, got {json.dumps(value)}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_config_types_cover_every_option(self, data_file, tmp_path):
        assert {f.type for f in fields(pipeline.FitOptions)} <= set(cli._CONFIG_TYPES)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trend_target": 1, "level_target": 0.7, "max_iter": 100,
                                      "weight_by_count": False, "cohort_birth_year": None}))
        assert main(["fit", data_file, "--config", str(config), "--cell-min-count", "0",
                     "--trend-target", "0.85", "--out", str(tmp_path / "run")]) == EXIT_OK

    @pytest.mark.parametrize("pairs", [[], ["--pair", "0.7:0.9", "--pair", "0.7:0.85"]])
    def test_undefined_r2_is_reported(self, pairs, tmp_path, capsys):
        # The stationary preset's cell means have no variance, so R^2 is undefined.
        data = tmp_path / "stationary.csv"
        assert main(["simulate", "--preset", "stationary", "--out", str(data)]) == EXIT_OK
        outdir = tmp_path / "run"
        code = main(["fit", str(data), "--out", str(outdir), "--cell-min-count", "0"] + pairs)
        assert code == EXIT_OK
        assert "R^2 undefined" in capsys.readouterr().out
        manifests = list(outdir.rglob("manifest.json"))
        assert len(manifests) == max(1, len(pairs) // 2)
        assert all(json.load(open(m))["result"]["r2"] is None for m in manifests)

    def test_batch_mode(self, data_file, tmp_path):
        outdir = tmp_path / "batch"
        code = main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--pair", "0.7:0.7", "--pair", "0.7:0.85"])
        assert code == EXIT_OK
        assert (outdir / "comparison.csv").exists()
        assert (outdir / "comparison.svg").exists()
        assert (outdir / "R_0.7_0.7" / "manifest.json").exists()
        assert (outdir / "R_0.7_0.85" / "manifest.json").exists()

    def test_plain_fit_is_the_default_pair_bundle(self, data_file, tmp_path):
        plain, batch = tmp_path / "plain", tmp_path / "batch"
        flags = ["--cell-min-count", "0", "--age-window", "3", "--year-window", "3"]
        assert main(["fit", data_file, "--out", str(plain)] + flags) == EXIT_OK
        assert main(["fit", data_file, "--out", str(batch), "--pair", "0.7:0.9"] + flags) == EXIT_OK
        bundle = batch / "R_0.7_0.9"
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in bundle.iterdir())
        assert {n.rsplit(".", 1)[1] for n in names} == {"csv", "svg", "json"}
        for name in names:
            if name != "manifest.json":
                assert (plain / name).read_bytes() == (bundle / name).read_bytes(), name
        manifests = [json.load(open(d / "manifest.json")) for d in (plain, bundle)]
        for manifest in manifests:
            del manifest["created"]
        assert manifests[0] == manifests[1]

    def test_every_pair_is_its_plain_fit(self, data_file, tmp_path):
        # the batch renders its pair-independent files once and stamps each
        # bundle's digest into them: each bundle must still be its pair's plain fit
        flags = ["--cell-min-count", "0", "--age-window", "3", "--year-window", "3"]
        pairs = ["0.7:0.9", "0.5:0.9", "0.6:0.85"]
        batch = tmp_path / "batch"
        argv = ["fit", data_file, "--out", str(batch)] + flags
        for pair in pairs:
            argv += ["--pair", pair]
        assert main(argv) == EXIT_OK
        digests = set()
        for pair in pairs:
            level, trend = pair.split(":")
            plain = tmp_path / f"plain-{pair}"
            argv = ["fit", data_file, "--out", str(plain), "--level-target", level,
                    "--trend-target", trend] + flags
            assert main(argv) == EXIT_OK
            bundle = batch / f"R_{level}_{trend}"
            names = sorted(p.name for p in plain.iterdir())
            assert names == sorted(p.name for p in bundle.iterdir())
            for name in names:
                if name != "manifest.json":
                    assert (plain / name).read_bytes() == (bundle / name).read_bytes(), (pair, name)
            digests.add(json.loads((bundle / "manifest.json").read_text())["digest"])
        assert len(digests) == len(pairs)

    def test_pairs_sharing_a_bundle_directory(self, data_file, tmp_path, capsys, monkeypatch):
        # both pairs format to R_0.7_0.9: the second bundle would overwrite the first
        reads = []
        monkeypatch.setattr(cli, "ingest_file", lambda *args, **kwargs: reads.append(args))
        outdir = tmp_path / "run"
        code = main(["fit", data_file, "--out", str(outdir),
                     "--pair", "0.7:0.9", "--pair", "0.70000001:0.9"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "0.7:0.9" in err and "0.70000001:0.9" in err and "R_0.7_0.9" in err
        assert reads == []  # rejected before the file is read
        assert not outdir.exists()

    def test_pair_order_changes_nothing(self, data_file, tmp_path, capsys):
        pairs = ["0.7:0.7", "0.6:0.8", "0.7:0.85"]
        seen = []
        for label, order in (("given", pairs), ("reversed", pairs[::-1])):
            outdir = tmp_path / label
            argv = ["fit", data_file, "--out", str(outdir), "--cell-min-count", "0"]
            for pair in order:
                argv += ["--pair", pair]
            code = main(argv)
            files = {}
            for path in outdir.rglob("*"):
                name = str(path.relative_to(outdir))
                if path.name == "manifest.json":
                    files[name] = json.loads(path.read_text())
                    del files[name]["created"]
                elif path.is_file():
                    files[name] = path.read_bytes()
            seen.append((code, capsys.readouterr().out.replace(str(outdir), "OUT"), files))
        assert seen[0] == seen[1]
        code, out, files = seen[0]
        assert code == EXIT_OK
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "R(0.6, 0.8)", "R(0.7, 0.7)", "R(0.7, 0.85)"
        ]
        assert len(files) == 2 + 3 * 17  # the comparison sheet and three bundles

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("stage", ["fit", "write"])
    def test_failed_pair_leaves_nothing_behind(self, data_file, tmp_path, monkeypatch, stage, existing):
        # the second of three pairs fails after the first pair's bundle is written:
        # in its weight loop, or at the fourth file of its bundle
        code_expected, module, name, error, fail_at = {
            "fit": (EXIT_SINGULAR, pipeline, "run", SingularSystemError, 2),
            "write": (EXIT_INPUT, report, "atomic_write_text", OSError, 17 + 4),
        }[stage]
        real = getattr(module, name)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise error("injected")
            return real(*args)

        monkeypatch.setattr(module, name, failing)
        outdir = tmp_path / "run"
        if existing:  # directories the fit did not make stay, and so do other files
            (outdir / "R_0.6_0.8").mkdir(parents=True)
            (outdir / "notes.txt").write_text("kept\n")
        code = main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--pair", "0.7:0.85", "--pair", "0.6:0.8", "--pair", "0.7:0.7"])
        assert code == code_expected
        assert len(calls) == fail_at
        if existing:
            assert sorted(str(path.relative_to(outdir)) for path in outdir.rglob("*")) == [
                "R_0.6_0.8", "notes.txt"
            ]
        else:
            assert not outdir.exists()

    def test_bad_pair_spec(self, data_file, tmp_path):
        assert main(["fit", data_file, "--out", str(tmp_path / "x"),
                     "--pair", "oops"]) == EXIT_INPUT

    def test_out_dir_env_var(self, data_file, tmp_path, monkeypatch):
        outdir = tmp_path / "from-env"
        monkeypatch.setenv("CTREND_OUT_DIR", str(outdir))
        code = main(["fit", data_file, "--cell-min-count", "0", "--trend-target", "0.85"])
        assert code == EXIT_OK
        assert (outdir / "manifest.json").exists()


class TestReport:
    def test_report_summarizes_and_rerenders(self, data_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--trend-target", "0.85"]) == EXIT_OK
        svg = (outdir / "trends.svg").read_text()
        (outdir / "trends.svg").unlink()
        assert main(["report", str(outdir)]) == EXIT_OK
        assert (outdir / "trends.svg").read_text() == svg
        out = capsys.readouterr().out
        assert "references" in out

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == EXIT_INPUT

    @pytest.mark.parametrize("manifest", [[1], {"digest": "0", "result": []}], ids=["list", "list result"])
    def test_report_malformed_manifest(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed manifest")
        assert captured.out == ""

    @pytest.mark.parametrize("table", ["trends.csv", "levels.csv"])
    def test_report_damaged_table(self, data_file, tmp_path, capsys, table):
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--trend-target", "0.85"]) == EXIT_OK
        path = outdir / table
        lines = path.read_text().splitlines(keepends=True)
        if table == "trends.csv":  # one row cut to three fields
            lines[5] = ",".join(lines[5].split(",")[:3]) + "\n"
            bad_line = 6
        else:  # the file cut in the middle of its last row
            lines[-1] = lines[-1][: lines[-1].rindex(",")]
            bad_line = len(lines)
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["report", str(outdir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{table}, line {bad_line}" in err
        assert "Traceback" not in err

    def test_report_non_finite_label(self, data_file, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["fit", data_file, "--out", str(outdir), "--cell-min-count", "0",
                     "--trend-target", "0.85"]) == EXIT_OK
        path = outdir / "levels.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "nan" + lines[3][lines[3].index(","):]
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["report", str(outdir)]) == EXIT_INPUT
        assert "label is not a finite number" in capsys.readouterr().err


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle equivalence" in out
        assert "max estimate deviation" in out

    def test_negative_control_detected(self, capsys):
        assert main(["verify", "--negative-control"]) != EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("negative_control", [False, True])
    def test_cluster_covariances_against_the_oracle(self, negative_control):
        """Check 1 compares the cluster block covariances from the factor
        with the oracle's A C A^T; the negative control breaks them too."""
        from ctrend.verify import ORACLE_TOL_COV, run_verification

        lines = []
        run_verification(negative_control=negative_control, emit=lines.append)
        detail = next(line for line in lines if "oracle equivalence" in line)
        deviation = float(detail.split("max cluster covariance deviation ")[1].split()[0])
        assert (deviation > ORACLE_TOL_COV) == negative_control


@pytest.mark.parametrize("command", ["fit", "verify"])
def test_no_lapack_exits_before_any_work(command, data_file, tmp_path, capsys, no_lapack):
    out = tmp_path / "fit"
    argv = ["fit", data_file, "--out", str(out)] if command == "fit" else ["verify"]
    assert main(argv) == EXIT_NO_LAPACK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numpy's BLAS exports none of the LAPACK routines")
    assert "install scipy" in captured.err
    assert not out.exists()


def test_no_command_loads_scipy(tmp_path):
    """scipy is for the tests only: a process that runs every command
    through ``cli.main`` has no ``scipy`` module loaded at the end, and its
    fit pinned numpy's OpenBLAS pool alone (``null`` where none is found)."""
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from ctrend import cli

        out = sys.argv[1]
        data = out + "/data.csv"
        commands = [
            ["simulate", "--preset", "linear", "--noise", "1.0", "--seed", "5", "--out", data],
            ["fit", data, "--out", out + "/fit", "--cell-min-count", "0"],
            ["fit", data, "--out", out + "/pairs", "--cell-min-count", "0",
             "--pair", "0.7:0.9", "--pair", "0.6:0.85"],
            ["report", out + "/fit"],
            ["verify"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        print(json.dumps({"codes": codes, "scipy": loaded}))
        """
    )
    source = os.path.dirname(os.path.dirname(ctrend.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 5, "scipy": []}
    manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
    assert manifest["runtime"]["blas_threads"] in ({"numpy": 1}, None)


@pytest.fixture(scope="module")
def linear_bytes(tmp_path_factory):
    """A small valid survey file: the linear preset with 8 records per survey-age."""
    path = tmp_path_factory.mktemp("linear") / "linear.csv"
    assert main(["simulate", "--preset", "linear", "--samples", "8", "--out", str(path)]) == EXIT_OK
    return path.read_bytes()


@pytest.mark.filterwarnings("ignore:boundary-level segment")  # a file cut short can hold few cohorts
@pytest.mark.parametrize("kind", ["truncate", "delimiter", "quote", "not_utf8", "number"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_damaged_file_maps_to_an_exit_code(linear_bytes, kind, data):
    """A valid file damaged in one place (cut at a byte, a stray delimiter,
    an unclosed quote, a non-UTF-8 byte, an infinite, undefined or
    overflowing number) fits, or exits with a documented code; it never
    raises, and an input error leaves no output directory."""
    if kind == "truncate":
        content = linear_bytes[: data.draw(st.integers(0, len(linear_bytes)), label="cut")]
    else:
        lines = linear_bytes.split(b"\n")[:-1]  # the file ends with a newline
        row = data.draw(st.integers(0, len(lines) - 1), label="row")
        line = lines[row]
        if kind == "number":
            cells = line.split(b",")
            k = data.draw(st.integers(0, len(cells) - 1), label="field")
            cells[k] = data.draw(st.sampled_from([b"inf", b"nan", b"1e400"]), label="value")
            line = b",".join(cells)
        else:
            at = data.draw(st.integers(0, len(line)), label="at")
            line = line[:at] + {"delimiter": b",", "quote": b'"', "not_utf8": b"\xff"}[kind] + line[at:]
        lines[row] = line
        content = b"\n".join(lines) + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path, outdir = os.path.join(tmp, "damaged.csv"), os.path.join(tmp, "run")
        with open(path, "wb") as fh:
            fh.write(content)
        code = main(["fit", path, "--out", outdir])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_SINGULAR)
        if code == EXIT_INPUT:
            assert not os.path.exists(outdir)
