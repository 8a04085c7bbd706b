"""End-to-end command-line workflow tests."""

import dataclasses
import json
import logging
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import climbgen
from climbgen import dynamics, errors, evaluation, generative, learning, performance, pipeline
from climbgen.cli import main
from climbgen.generative import bound_profiles, fit_type_model, load_model, save_model
from climbgen.pipeline import filter_climbs, ingest, split


SCENARIO = {
    "types": {
        "NBJT": {"count": 90, "thrust_bias_n": -2500.0, "mode_sds": [1.0e5, 5e4]},
    },
    "blip_interval_s": 6.0,
    "alt_noise_ft": 0.0,
    "quantization_ft": 0.0,
}


def run_python(*args, env=None):
    """Run a fresh interpreter that imports climbgen from this source tree,
    with ``env`` added to the environment."""
    src = str(Path(climbgen.__file__).parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_cli(*args, env=None):
    """Run the CLI in a fresh interpreter, as a user would, with ``env``
    added to the environment."""
    return run_python("-m", "climbgen.cli", *args, env=env)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the full pipeline once; commands under test share the outputs."""
    root = tmp_path_factory.mktemp("cli")
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))

    assert main(["simulate", "--scenario", str(scenario_path),
                 "--out", str(root / "sim"), "--seed", "11"]) == 0
    assert main(["prepare", "--csv", str(root / "sim" / "blips.csv"),
                 "--out", str(root / "prep"), "--seed", "3"]) == 0
    assert main(["fit", "--train", str(root / "prep" / "train.csv"),
                 "--out", str(root / "models")]) == 0
    return root


class TestWorkflow:
    def test_simulate_outputs(self, workdir):
        assert (workdir / "sim" / "blips.csv").exists()
        assert (workdir / "sim" / "truth.json").exists()

    def test_prepare_outputs(self, workdir):
        summary = json.loads((workdir / "prep" / "prepare_summary.json").read_text())
        assert summary["train"] + summary["test"] == summary["filtered"]
        assert (workdir / "prep" / "train.csv").exists()
        assert (workdir / "prep" / "test.csv").exists()

    def test_fit_outputs(self, workdir):
        assert (workdir / "models" / "model_NBJT.json").exists()

    def test_sample(self, workdir):
        assert main(["sample", "--model", str(workdir / "models" / "model_NBJT.json"),
                     "--count", "7", "--seed", "5",
                     "--out", str(workdir / "samples")]) == 0
        text = (workdir / "samples" / "samples_NBJT.csv").read_text()
        assert text.splitlines()[0] == "sample_id,h_m,thrust_N"
        # 7 samples x 100 grid nodes
        assert len(text.splitlines()) == 1 + 7 * 100

    def test_bounds(self, workdir):
        assert main(["bounds", "--model", str(workdir / "models" / "model_NBJT.json"),
                     "--level", "0.95", "--out", str(workdir / "bounds")]) == 0
        assert (workdir / "bounds" / "bounds_thrust_NBJT.csv").exists()
        assert (workdir / "bounds" / "bounds_time_NBJT.csv").exists()

    def test_bounds_on_an_infeasible_climb_writes_no_file(self, workdir, tmp_path, capsys):
        model = load_model(workdir / "models" / "model_NBJT.json")
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 1e4,
                                    total_variance=model.basis.total_variance * 1e4)
        wide = generative.GenerativeClimbModel(model.type_code, basis, model.n_flights_fit)
        generative.save_model(wide, tmp_path / "model_NBJT.json")
        out = tmp_path / "bounds"
        capsys.readouterr()
        assert main(["bounds", "--model", str(tmp_path / "model_NBJT.json"),
                     "--level", "0.95", "--out", str(out)]) == 3
        # the slow bound climb is the one that fails, and the message names it
        assert re.fullmatch(r"data error: slow bound climb rate -?[0-9.]+ m/s at [0-9]+ m "
                            r"is at or below the 0\.5 m/s floor\n", capsys.readouterr().err)
        assert not out.exists()

    def test_bounds_builds_the_envelope_once(self, workdir, monkeypatch):
        original = generative.bound_profiles
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(generative, "bound_profiles", counting)
        assert main(["bounds", "--model", str(workdir / "models" / "model_NBJT.json"),
                     "--level", "0.9", "--out", str(workdir / "bounds90")]) == 0
        assert len(calls) == 1

    def test_predict_and_bounds_climb_through_model_climbs(self, workdir, tmp_path, count_calls):
        climbs = count_calls(evaluation, "model_climbs")
        model = str(workdir / "models" / "model_NBJT.json")
        assert main(["predict", "--model", model, "--out", str(tmp_path)]) == 0
        assert main(["bounds", "--model", model, "--out", str(tmp_path)]) == 0
        # one 2-row block each: mean and nominal, then slow and fast
        assert [values.shape[0] for _, _, values in climbs] == [2, 2]

    def test_predict(self, workdir):
        assert main(["predict", "--model", str(workdir / "models" / "model_NBJT.json"),
                     "--out", str(workdir / "pred")]) == 0
        doc = json.loads((workdir / "pred" / "predict_NBJT.json").read_text())
        assert doc["model_t_fl250_s"] < doc["model_t_fl325_s"]

    def test_evaluate(self, workdir):
        assert main(["evaluate", "--model-dir", str(workdir / "models"),
                     "--test", str(workdir / "prep" / "test.csv"),
                     "--out", str(workdir / "eval"), "--seed", "2"]) == 0
        text = (workdir / "eval" / "metrics_report.csv").read_text()
        assert text.splitlines()[0].startswith("type_code")
        assert len(text.splitlines()) == 2

    def test_evaluate_counts_the_types_it_skips(self, workdir, tmp_path, capsys, caplog):
        # the fitted model with its spectrum widened 1e4 times has an
        # infeasible envelope climb, so its one test type is skipped: with
        # no type scored, the data error counts it and points to the warning
        model = load_model(workdir / "models" / "model_NBJT.json")
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 1e4,
                                    total_variance=model.basis.total_variance * 1e4)
        wide = generative.GenerativeClimbModel(model.type_code, basis, model.n_flights_fit)
        generative.save_model(wide, tmp_path / "models" / "model_NBJT.json")

        def evaluate(models, status):
            capsys.readouterr()
            assert main(["evaluate", "--model-dir", str(models),
                         "--test", str(workdir / "prep" / "test.csv"),
                         "--out", str(tmp_path / f"eval{status}"), "--seed", "2"]) == status
            return capsys.readouterr()

        assert "warning" not in evaluate(workdir / "models", 0).out
        printed = evaluate(tmp_path / "models", 3)
        # the warnings, named as a fresh process prints them, then the count
        skipped, empty, counted = printed.err.splitlines()
        assert re.fullmatch(r"WARNING climbgen\.evaluation: type NBJT: lower-envelope climb "
                            r"rate .* m/s floor; row skipped", skipped)
        assert empty.startswith("WARNING climbgen.evaluation: run_report: ")
        assert counted == "data error: 1 of 1 type(s) skipped; see the warnings"
        assert "nothing to evaluate" not in printed.out + printed.err
        assert re.search(r"type NBJT: lower-envelope climb rate .* m/s floor; row skipped",
                         caplog.text)
        assert not (tmp_path / "eval3").exists()   # no report that looks like a finished run

    def test_evaluate_skips_a_type_with_too_few_test_flights(self, workdir, tmp_path, capsys,
                                                             caplog):
        # a second type, NBJT's record and model under another code, has two
        # test flights, fewer than the KL needs: its row alone is skipped
        records = json.loads(performance.default_catalog_path().read_text())
        (tmp_path / "perf.json").write_text(json.dumps(records + [{**records[0],
                                                                   "type_code": "NBJ2"}]))
        model = load_model(workdir / "models" / "model_NBJT.json")
        save_model(model, tmp_path / "models" / "model_NBJT.json")
        save_model(dataclasses.replace(model, type_code="NBJ2"),
                   tmp_path / "models" / "model_NBJ2.json")
        lines = (workdir / "prep" / "test.csv").read_text().splitlines()
        first_two = list(dict.fromkeys(line.split(",", 1)[0] for line in lines[1:]))[:2]
        copies = ["X" + line.replace(",NBJT,", ",NBJ2,") for line in lines[1:]
                  if line.split(",", 1)[0] in first_two]
        (tmp_path / "test.csv").write_text("\n".join(lines + copies) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--model-dir", str(tmp_path / "models"),
                     "--test", str(tmp_path / "test.csv"),
                     "--perf-file", str(tmp_path / "perf.json"),
                     "--out", str(tmp_path / "eval"), "--seed", "2"]) == 0
        assert "warning: 1 of 2 type(s) skipped; see the warnings\n" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records if "row skipped" in r.getMessage()] == [
            f"type NBJ2: kl_divergence: need at least {evaluation.MIN_KL_SAMPLES} points per "
            "sample; row skipped"]
        rows = (tmp_path / "eval" / "metrics_report.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("NBJT,")
        assert {p.name for p in (tmp_path / "eval").glob("*_NBJT.csv")} == {
            f"{kind}_NBJT.csv" for kind in ("profiles", "arrivals_test", "kde")}
        assert not list((tmp_path / "eval").glob("*NBJ2*"))

    def test_evaluate_excludes_a_flight_out_of_order(self, workdir, tmp_path, caplog):
        # A-ODD reaches FL325 at t = 50 s and FL150 only at t = 129.5 s:
        # its FL325 arrival comes first, so the MAE and the KL exclude it
        # with a warning and the report is still written
        odd = [f"A-ODD,NBJT,{t},{alt}" for t, alt in
               [(0.0, 30000.0), (60.0, 33000.0), (120.0, 14000.0), (300.0, 33000.0)]]
        lines = (workdir / "prep" / "test.csv").read_text().splitlines()
        (tmp_path / "test.csv").write_text("\n".join(lines + odd) + "\n")
        assert main(["evaluate", "--model-dir", str(workdir / "models"),
                     "--test", str(tmp_path / "test.csv"),
                     "--out", str(tmp_path / "eval"), "--seed", "2"]) == 0
        assert [r.getMessage() for r in caplog.records if "A-ODD" in r.getMessage()] == [
            "type NBJT: 1 test flight(s) cross the report levels out of order; excluded "
            "(first: A-ODD)",
            "type NBJT: 1 test flight(s) have window blips before their FL150 crossing; "
            "those blips skipped from coverage (first: A-ODD)"]
        rows = (tmp_path / "eval" / "metrics_report.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("NBJT,")
        assert "A-ODD" not in (tmp_path / "eval" / "arrivals_test_NBJT.csv").read_text()

    def test_evaluate_level_sets_profile_envelope(self, workdir):
        assert main(["evaluate", "--model-dir", str(workdir / "models"),
                     "--test", str(workdir / "prep" / "test.csv"),
                     "--out", str(workdir / "eval90"), "--seed", "2", "--level", "0.90"]) == 0
        lines = (workdir / "eval90" / "profiles_NBJT.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        model = load_model(workdir / "models" / "model_NBJT.json")
        lower, upper = bound_profiles(model, 0.90)
        lower95, _ = bound_profiles(model, 0.95)
        assert np.array_equal(table[:, header.index("lower_N")], lower)
        assert np.array_equal(table[:, header.index("upper_N")], upper)
        assert not np.array_equal(lower, lower95)

    @pytest.mark.parametrize("command", ["sample", "bounds", "predict"])
    def test_commands_deterministic(self, workdir, command, tmp_path):
        args = {
            "sample": ["sample", "--model", str(workdir / "models" / "model_NBJT.json"),
                       "--count", "5", "--seed", "9"],
            "bounds": ["bounds", "--model", str(workdir / "models" / "model_NBJT.json")],
            "predict": ["predict", "--model", str(workdir / "models" / "model_NBJT.json")],
        }[command]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("cls", [value for value in vars(errors).values()
                                     if isinstance(value, type)
                                     and issubclass(value, errors.ClimbgenError)],
                             ids=lambda cls: cls.__name__)
    def test_every_error_class_has_an_exit_code(self, cls):
        # main maps ValidationError to 2 and DataError to 3, and nothing
        # raises the bare base class, so every error gets its code
        assert (cls is errors.ClimbgenError
                or issubclass(cls, (errors.ValidationError, errors.DataError)))

    def test_missing_scenario_is_validation_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2

    def test_log_level_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLIMBGEN_LOG", "DEBUG")
        assert main(["simulate", "--scenario", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2

    @pytest.mark.parametrize("value", ["verbose", "10", "Warning "])
    def test_log_level_env_var_naming_no_level_is_validation_error(self, tmp_path, workdir,
                                                                   monkeypatch, capsys, value):
        # one error line naming the variable, its value and the levels, and
        # no --out directory
        monkeypatch.setenv("CLIMBGEN_LOG", value)
        package = logging.getLogger("climbgen")
        level, handlers = package.level, list(package.handlers)
        assert main(["prepare", "--csv", str(workdir / "sim" / "blips.csv"),
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: CLIMBGEN_LOG={value!r} names no logging level; "
            "use DEBUG, INFO, WARNING, ERROR or CRITICAL"]
        assert not (tmp_path / "o").exists()
        assert package.level == level and package.handlers == handlers

    def test_the_cli_logger_keeps_its_name_under_python_m(self, tmp_path, workdir):
        # run as python -m climbgen.cli, the module is __main__; its warning
        # still goes through the package's handler, named as the module
        records = json.loads(performance.default_catalog_path().read_text())
        perf = tmp_path / "perf.json"
        perf.write_text(json.dumps([r for r in records if r["type_code"] != "NBJT"]))
        proc = run_cli("fit", "--train", str(workdir / "prep" / "train.csv"),
                       "--perf-file", str(perf), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "WARNING climbgen.cli: type NBJT missing from the performance catalog; skipped",
            "data error: no type could be fitted"]

    def test_bad_interval_is_validation_error(self, tmp_path, workdir):
        # the modeled window is fixed, so --interval is not an option
        proc = run_cli("prepare", "--csv", str(workdir / "sim" / "blips.csv"),
                       "--out", str(tmp_path / "o"), "--interval", "FL160:FL320")
        assert proc.returncode == 2, proc.stderr
        assert "unrecognized arguments: --interval" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["prepare", "fit"])
    def test_window_flags_are_gone(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "--interval" not in text and "--rocd-min" not in text
        data = "--csv" if command == "prepare" else "--train"
        for flag, value in (("--interval", "FL150:FL325"), ("--rocd-min", "500")):
            with pytest.raises(SystemExit) as info:
                main([command, data, str(tmp_path / "blips.csv"), "--out", str(tmp_path / "o"),
                      flag, value])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("interval_fl", [145.0, 330.0]),
        ("n_flights_fit", 2.5), ("n_flights_fit", True), ("n_flights_fit", -4),
        ("n_flights_fit", 0), ("n_flights_fit", "7"),
        ("type_code", 17), ("type_code", ""), ("type_code", None),
        ("type_code", "A/B"), ("type_code", "../NBJT"), ("type_code", "NB JT"),
    ], ids=["window", "n-fraction", "n-true", "n-negative", "n-zero", "n-string",
            "type-number", "type-empty", "type-null",
            "type-slash", "type-parent", "type-space"])
    def test_model_provenance_not_valid_is_validation_error(self, tmp_path, workdir, key, value):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        doc[key] = value
        bad = tmp_path / "model_bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("sample", "--model", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(bad) in proc.stderr and key in proc.stderr
        assert f"got {json.dumps(value)}" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_bad_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["prepare", "--csv", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_quoted_header_is_data_error(self, tmp_path, capsys):
        # the header is read as write_blocks writes it: no field is quoted
        bad = tmp_path / "quoted.csv"
        bad.write_text('"flight_id","type_code","t_s","alt_ft"\nA,NBJT,0.0,1000\nA,NBJT,6.0,1100\n')
        assert main(["prepare", "--csv", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "header must be exactly flight_id,type_code,t_s,alt_ft" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["latin1", "header"])
    def test_unreadable_csv_is_data_error(self, tmp_path, kind):
        bad = tmp_path / "blips.csv"
        if kind == "latin1":
            bad.write_bytes("flight_id,type_code,t_s,alt_ft\nA\xe9,NBJT,0.0,1000\n".encode("latin-1"))
        else:
            bad.write_text("flight_id,type,t_s,alt_ft\nA,NBJT,0.0,1000\n")
        proc = run_cli("prepare", "--csv", str(bad), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert str(bad) in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["prepare", "fit"])
    def test_missing_or_unreadable_csv_is_validation_error(self, tmp_path, command, kind):
        # a blip file that cannot be opened is a bad argument, as a JSON input is
        bad = tmp_path / "blips.csv"
        if kind == "directory":
            bad.mkdir()
        flag = "--csv" if command == "prepare" else "--train"
        proc = run_cli(command, flag, str(bad), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        message = "blip file not found" if kind == "missing" else "cannot read blip file"
        assert f"error: {message}" in proc.stderr and str(bad) in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "prepare", "fit", "sample", "bounds",
                                         "predict", "evaluate"])
    def test_missing_input_leaves_no_out_directory(self, tmp_path, workdir, command, capsys):
        missing = str(tmp_path / "missing")
        args = {
            "simulate": ["--scenario", missing],
            "prepare": ["--csv", missing],
            "fit": ["--train", missing],
            "sample": ["--model", missing],
            "bounds": ["--model", missing],
            "predict": ["--model", missing],
            "evaluate": ["--model-dir", str(workdir / "models"), "--test", missing],
        }[command]
        assert main([command, *args, "--out", str(tmp_path / "o")]) == 2
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "prepare"])
    def test_unwritable_output_is_validation_error(self, tmp_path, workdir, command):
        # an output path that is a directory cannot be written as a file
        argv, name = {
            "predict": (["predict", "--model", str(workdir / "models" / "model_NBJT.json")],
                        "predict_NBJT.csv"),
            "prepare": (["prepare", "--csv", str(workdir / "sim" / "blips.csv")], "train.csv"),
        }[command]
        (tmp_path / "o" / name).mkdir(parents=True)
        proc = run_cli(*argv, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(tmp_path / "o" / name) in proc.stderr

    @pytest.mark.parametrize("case", ["model-dir", "model-latin1", "scenario-dir",
                                      "scenario-latin1", "perf-dir", "perf-latin1", "out-file"])
    def test_unreadable_input_is_validation_error(self, tmp_path, case):
        kind, _, fault = case.partition("-")
        bad = tmp_path / f"{kind}.json"
        if fault == "dir":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"type_code": "NBJ\xe9"}')
        command = {
            "model": ["predict", "--model", str(bad), "--out", str(tmp_path / "o")],
            "scenario": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")],
            "perf": ["fit", "--perf-file", str(bad), "--train", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "o")],
            "out": ["simulate", "--scenario", str(tmp_path / "one.json"), "--out", str(bad)],
        }[kind]
        # a valid scenario, so that the --out that is a file is what fails
        (tmp_path / "one.json").write_text(json.dumps({"types": {"NBJT": {"count": 1}}}))
        proc = run_cli(*command)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(bad) in proc.stderr

    @pytest.mark.parametrize("types", [[], "NBJT", 3, None], ids=["array", "string", "number", "null"])
    def test_scenario_types_not_an_object_is_validation_error(self, tmp_path, types):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO, "types": types}))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(bad) in proc.stderr

    @pytest.mark.parametrize("count", [1.9, True, "3"], ids=["fraction", "true", "string"])
    def test_scenario_count_not_an_integer_is_validation_error(self, tmp_path, count):
        nbjt = {**SCENARIO["types"]["NBJT"], "count": count}
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO, "types": {"NBJT": nbjt}}))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stdout
        assert "Traceback" not in proc.stderr
        assert '"count" must be a JSON integer' in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, key", [("scenario", "quantisation_ft"), ("scenario", "fl_low"),
                                            ("type", "thrust_bias"), ("scenario", "fl_start"),
                                            ("scenario", "fl_end"), ("type", "t_dof")],
                             ids=["misspelt", "removed", "per-type", "fl-start", "fl-end", "t-dof"])
    def test_scenario_unknown_key_is_validation_error(self, tmp_path, where, key):
        doc = json.loads(json.dumps(SCENARIO))
        (doc if where == "scenario" else doc["types"]["NBJT"])[key] = 5.0
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"unknown key(s) {key}" in proc.stderr
        assert ("type NBJT: " in proc.stderr) == (where == "type")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, key, value", [
        ("scenario", "blip_interval_s", math.nan), ("scenario", "quantization_ft", math.inf),
        ("scenario", "alt_noise_ft", True), ("type", "thrust_bias_n", -math.inf),
        ("type", "contam_frac", "0.1"), ("type", "mode_sds", [1e5, True]),
    ], ids=["nan", "infinity", "true", "minus-infinity", "text", "mode-sd-true"])
    def test_scenario_number_not_finite_is_validation_error(self, tmp_path, capsys,
                                                            where, key, value):
        doc = json.loads(json.dumps(SCENARIO))
        (doc if where == "scenario" else doc["types"]["NBJT"])[key] = value
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f'"{key}"' in err and "must be a finite number" in err
        assert not (tmp_path / "o").exists()

    def test_integer_too_long_to_read_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(SCENARIO)[:-1] + ', "delta_t_k": ' + "1" * 5000 + "}")
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"scenario file {bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alt_noise_ft", "quantization_ft"])
    def test_scenario_negative_noise_is_validation_error(self, tmp_path, capsys, key):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO, key: -5.0}))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"{key} must not be negative" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("interval", [1e-300, 0.05, 0.0, -6.0])
    def test_blip_interval_below_its_floor_is_validation_error(self, tmp_path, capsys, interval):
        # a tiny interval would ask for one huge blip array per flight
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO, "blip_interval_s": interval}))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: scenario file {bad}: blip_interval_s must be at least 0.1 s"]
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bom.csv"
        bad.write_bytes(b"\xef\xbb\xbfflight_id,type_code,t_s,alt_ft\n"
                        b"A,NBJT,0.0,16000\nA,NBJT,6.0,16100\n")
        assert main(["prepare", "--csv", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "starts with a UTF-8 byte-order mark" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["variance", "total_variance", "mean_N", "modes"])
    def test_model_array_not_finite_names_the_file(self, tmp_path, workdir, capsys, key):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        if key == "total_variance":
            doc[key] = math.inf
        else:
            (doc["modes"][0] if key == "modes" else doc[key])[0] = math.nan
        bad = tmp_path / "model_bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("sample", "predict"):
            assert main([command, "--model", str(bad), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert f'model file {bad}: "{key}"' in err and "must be a finite number, got" in err
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_model_grid_under_two_nodes_is_validation_error(self, tmp_path, workdir, n_nodes):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        doc["grid_m"] = doc["grid_m"][:n_nodes]
        doc["mean_N"] = doc["mean_N"][:n_nodes]
        doc["modes"] = [mode[:n_nodes] for mode in doc["modes"]]
        bad = tmp_path / "model_short.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("sample", "--model", str(bad), "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"model file {bad}: grid_m is not the modeled window's grid" in proc.stderr

    def test_model_grid_off_the_modeled_grid_is_validation_error(self, tmp_path, workdir):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        doc["grid_m"] = [h + 100.0 for h in doc["grid_m"]]
        models = tmp_path / "models"
        models.mkdir()
        bad = models / "model_NBJT.json"
        bad.write_text(json.dumps(doc))
        for command in (["sample", "--model", str(bad), "--seed", "1"],
                        ["evaluate", "--model-dir", str(models),
                         "--test", str(workdir / "prep" / "test.csv")]):
            proc = run_cli(*command, "--out", str(tmp_path / command[0]))
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert str(bad) in proc.stderr and "grid_m" in proc.stderr
            assert not (tmp_path / command[0]).exists()

    def test_model_modes_not_orthonormal_name_the_file(self, tmp_path, workdir):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        doc["modes"][0] = [2.0 * v for v in doc["modes"][0]]
        models = tmp_path / "models"
        models.mkdir()
        bad = models / "model_NBJT.json"
        bad.write_text(json.dumps(doc))
        for command in (["sample", "--model", str(bad), "--seed", "1"],
                        ["evaluate", "--model-dir", str(models),
                         "--test", str(workdir / "prep" / "test.csv")]):
            proc = run_cli(*command, "--out", str(tmp_path / command[0]))
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert f"model file {bad}: basis modes are not orthonormal" in proc.stderr
            assert not (tmp_path / command[0]).exists()

    # per reader and case: how the valid document is spoilt, and what the error says
    READER_CASES = {
        "catalog": {
            "not-an-object": (lambda d: ["NBJT", *d[1:]], "record 0: expected a JSON object"),
            "missing-key": (lambda d: [{k: v for k, v in d[0].items() if k != "c_D0"}, *d[1:]],
                            "record 0: missing key(s) c_D0"),
            "unknown-key": (lambda d: [{**d[0], "c_D9": 0.0}, *d[1:]],
                            "record 0: unknown key(s) c_D9"),
            "true-for-a-number": (lambda d: [{**d[0], "c_D0": True}, *d[1:]],
                                  "NBJT: field c_D0 must be a finite number, got true"),
            "scalar-for-an-array": (lambda d: d[0]["c_D0"], "expected a non-empty JSON array"),
        },
        "scenario": {
            "not-an-object": (lambda d: {**d, "types": {"NBJT": 90}},
                              "type NBJT: expected a JSON object, got 90"),
            "missing-key": (lambda d: {k: v for k, v in d.items() if k != "types"},
                            "missing key(s) types"),
            "unknown-key": (lambda d: {**d, "fl_low": 150.0}, "unknown key(s) fl_low"),
            "true-for-a-number": (
                lambda d: {**d, "types": {"NBJT": {**d["types"]["NBJT"], "count": True}}},
                'type NBJT: "count" must be a JSON integer >= 1, got true'),
            "scalar-for-an-array": (
                lambda d: {**d, "types": {"NBJT": {**d["types"]["NBJT"], "mode_sds": 1e5}}},
                'type NBJT: "mode_sds" must be an array of finite numbers, got 100000.0'),
        },
        "model": {
            "not-an-object": (lambda d: [d], "expected a JSON object"),
            "missing-key": (lambda d: {k: v for k, v in d.items() if k != "variance"},
                            "missing key(s) variance"),
            "unknown-key": (lambda d: {**d, "extra": 1}, "unknown key(s) extra"),
            "true-for-a-number": (lambda d: {**d, "n_flights_fit": True},
                                  '"n_flights_fit" must be a JSON integer >= 1, got true'),
            "scalar-for-an-array": (lambda d: {**d, "variance": d["variance"][0]},
                                    '"variance" must be an array of finite numbers'),
        },
    }

    @pytest.mark.parametrize("case", list(READER_CASES["model"]))
    @pytest.mark.parametrize("reader", list(READER_CASES))
    def test_bad_json_input_names_the_file_and_the_key(self, tmp_path, workdir, reader, case):
        spoil, message = self.READER_CASES[reader][case]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        valid = {"catalog": performance.default_catalog_path(), "scenario": scenario,
                 "model": workdir / "models" / "model_NBJT.json"}[reader]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spoil(json.loads(valid.read_text()))))
        command = {"catalog": ["simulate", "--scenario", str(scenario), "--perf-file", str(bad)],
                   "scenario": ["simulate", "--scenario", str(bad)],
                   "model": ["sample", "--model", str(bad)]}[reader]
        proc = run_cli(*command, "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{bad}: " in proc.stderr and message in proc.stderr, proc.stderr
        assert not (tmp_path / "o").exists()

    def test_catalog_type_code_not_a_file_name_is_validation_error(self, tmp_path):
        records = json.loads(performance.default_catalog_path().read_text())
        nbjt = next(r for r in records if r["type_code"] == "NBJT")
        perf = tmp_path / "perf.json"
        perf.write_text(json.dumps(records + [{**nbjt, "type_code": "A/B"}]))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, "types": {"A/B": SCENARIO["types"]["NBJT"]}}))
        proc = run_cli("simulate", "--scenario", str(scenario), "--perf-file", str(perf),
                       "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "record 3: type_code" in proc.stderr and '"A/B"' in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("legs, scenario_type, where", [
        ({"v_cas_ms": 1e200}, "NBJT", ""), ({"mach": 1e-200}, "NBJT", ""),
        ({"v_cas_ms": 1e-300}, "NBJT", ""),
        ({"v_cas_ms": 250, "mach": 0.5}, "NBJT", "; they cross at -7688 m"),
        ({"v_cas_ms": 250, "mach": 0.5}, "WBJT", "; they cross at -7688 m"),
    ], ids=["overflow", "underflow", "cas-underflow", "below-0-m", "other-type-flown"])
    def test_catalog_schedule_whose_legs_do_not_cross_is_validation_error(
            self, tmp_path, legs, scenario_type, where):
        # one error line naming the file, the type and both legs, and no
        # numpy warning before it, also where the crossover's closed form
        # gives a pressure of inf or 0.  The catalog is refused as it is
        # read, so a scenario that flies only other types does not pass it
        records = json.loads(performance.default_catalog_path().read_text())
        perf = tmp_path / "perf.json"
        perf.write_text(json.dumps([{**r, **legs} if r["type_code"] == "NBJT" else r
                                    for r in records]))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, "types": {
            scenario_type: SCENARIO["types"]["NBJT"]}}))
        proc = run_cli("simulate", "--scenario", str(scenario), "--perf-file", str(perf),
                       "--out", str(tmp_path / "o"), "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        nbjt = {**next(r for r in records if r["type_code"] == "NBJT"), **legs}
        assert proc.stderr.splitlines() == [
            f"error: performance file {perf}: NBJT: CAS/Mach legs of v_cas "
            f"{float(nbjt['v_cas_ms'])} m/s and mach {float(nbjt['mach'])} "
            f"do not cross in [0, 20000] m{where}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, spoil, message", [
        ("predict", {"m_nom_kg": 1e308}, "NBJT: climb-rate gain is not positive and finite"),
        ("simulate", {"m_nom_kg": 1e308}, "NBJT: climb-rate gain is not positive and finite"),
        ("simulate", {"delta_t_k": 6e305},
         "NBJT: delta_T 6e+305 K: T + delta_T not positive, or gas law overflows"),
        ("simulate", {"delta_t_k": 1e306},
         "NBJT: delta_T 1e+306 K: T + delta_T not positive, or gas law overflows"),
    ], ids=["heavy-predict", "heavy-simulate", "gas-law-simulate", "density-simulate"])
    def test_rate_factors_no_climb_can_use_are_validation_error(self, tmp_path, workdir,
                                                               command, spoil, message):
        # one error line naming the type, and no numpy warning before it: the
        # mass makes the climb-rate gain 0 and the drag infinite, and the
        # temperature offsets overflow the gas law
        records = json.loads(performance.default_catalog_path().read_text())
        perf = tmp_path / "perf.json"
        perf.write_text(json.dumps([{**r, **spoil} if r["type_code"] == "NBJT"
                                    and "m_nom_kg" in spoil else r for r in records]))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, **spoil} if "delta_t_k" in spoil
                                       else SCENARIO))
        args = {"predict": ["--model", str(workdir / "models" / "model_NBJT.json")],
                "simulate": ["--scenario", str(scenario), "--seed", "1"]}[command]
        proc = run_cli(command, *args, "--perf-file", str(perf), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("quantization_ft", 1e-320), ("quantization_ft", 1e-12),
                                            ("alt_noise_ft", 1e308), ("alt_noise_ft", 60001.0)],
                             ids=["step-overflows", "step-below-floor", "noise-overflows",
                                  "noise-above-ceiling"])
    def test_radar_setting_the_radar_stage_cannot_take_is_validation_error(self, tmp_path,
                                                                         key, value):
        # before, a 1e-320 ft step wrote inf altitudes and 1e308 ft of noise
        # altitudes such as -6.4e307, which ingest refuses, after an overflow
        # warning; now the scenario is refused, naming the key
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO, key: value}))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"),
                       "--seed", "1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: scenario file {bad}: {key} must not be negative, and if positive must lie "
            f"in [1.33e-11, 60000] ft, got {value}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", [
        {"mode_sds": [1e5], "weight_dist": "contaminated", "contam_frac": 0.99,
         "contam_scale": 1e306},
        # a whole first block of draws: at count 3 the first block's draws
        # are finite and its first climb has one blip, which the radar stage
        # refuses before a later block's draw overflows
        {"count": dynamics.BLOCK_CLIMBS, "mode_sds": [1e308, 1e308]},
    ], ids=["contaminated", "normal"])
    def test_a_thrust_draw_that_overflows_is_validation_error(self, tmp_path, spec):
        # before, the draw overflowed with a numpy warning, a traceback under
        # PYTHONWARNINGS=error, and the integrator refused it naming no key;
        # now the truth stage refuses it, naming the type and the keys
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({"types": {"NBJT": {"count": 3, **spec}}}))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"),
                       "--seed", "1", env={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: type NBJT: a thrust draw is not finite; "
            "lower mode_sds, contam_scale or thrust_bias_n"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, blips", [
        ({"types": {"NBJT": {"count": 3, "mode_sds": [1e300]}}}, 0),
        ({"types": {"NBJT": {"count": 3}}, "blip_interval_s": 5000}, 0),
        ({"types": {"NBJT": {"count": 3}}, "blip_interval_s": 400}, 1),
        ({"types": {"NBJT": {"count": 30}}, "blip_interval_s": 250}, 2),
        ({"types": {"NBJT": {"count": 30}}, "blip_interval_s": 200}, 3),
    ], ids=["huge-thrust-draw", "interval-longer-than-the-climb", "two-blips-a-climb",
            "two-blips-in-the-window", "three-blips-in-the-window"])
    def test_a_climb_too_short_to_profile_is_validation_error(self, tmp_path, scenario, blips):
        # before, simulate exited 0 with flights of too few blips in the
        # modeled window, which prepare then refused (exit 3): one or two
        # blips in all, or four in all and three or two in the window.  Now
        # the radar stage refuses the first such climb, naming its type,
        # flight, window blip count and the keys, and a nested --out leaves
        # no directory
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        proc = run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path / "o" / "sim"),
                       "--seed", "1", env={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: type NBJT: flight NBJT-00000 has {blips} blip(s) in the modeled window, "
            f"fewer than the {learning.MIN_PROFILE_BLIPS} a thrust profile needs; lower "
            "blip_interval_s, mode_sds, contam_scale or thrust_bias_n"]
        assert not (tmp_path / "o").exists()

    def test_unknown_model_version_is_validation_error(self, tmp_path, workdir, capsys):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        bad = tmp_path / "model_bad.json"
        for version, message in ((42, f"model file {bad}: unsupported schema_version 42"),
                                 (1, f"model file {bad}: schema_version 1 is no longer read")):
            bad.write_text(json.dumps({**doc, "schema_version": version}))
            assert main(["sample", "--model", str(bad), "--out", str(tmp_path / "o"),
                         "--seed", "1"]) == 2
            err = capsys.readouterr().err
            assert message in err
        assert "re-run climbgen fit" in err


    def test_two_models_of_one_type_are_validation_error(self, tmp_path, workdir, capsys):
        doc = json.loads((workdir / "models" / "model_NBJT.json").read_text())
        models = tmp_path / "models"
        models.mkdir()
        (models / "model_NBJT.json").write_text(json.dumps(doc))
        (models / "model_NBJT_old.json").write_text(json.dumps({**doc, "n_flights_fit": 7}))
        assert main(["evaluate", "--model-dir", str(models),
                     "--test", str(workdir / "prep" / "test.csv"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(models / "model_NBJT.json") in err
        assert str(models / "model_NBJT_old.json") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "prepare", "sample", "evaluate"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_must_be_a_non_negative_integer(self, command, seed, tmp_path, workdir,
                                                 capsys):
        models = workdir / "models"
        args = {
            "simulate": ["--scenario", str(tmp_path / "scenario.json")],
            "prepare": ["--csv", str(workdir / "sim" / "blips.csv")],
            "sample": ["--model", str(models / "model_NBJT.json")],
            "evaluate": ["--model-dir", str(models), "--test", str(workdir / "prep" / "test.csv")],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([command, *args, "--out", str(tmp_path / "o"), "--seed", seed])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--seed: must be a non-negative integer" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

class TestRateRule:
    """A fit inverts the climb rates of the blips it is given, so fitting the
    filtered flights in process and fitting the train.csv that prepare
    writes from them give the same model file."""

    def test_in_process_fit_matches_prepare_then_fit(self, catalog, tmp_path):
        nbjt = {"count": 150, "thrust_bias_n": -2500.0, "mode_sds": [9e4, 5e4, 3e4]}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"types": {"NBJT": nbjt}, "blip_interval_s": 6.0,
                                        "alt_noise_ft": 0.0, "quantization_ft": 25.0}))
        blips = tmp_path / "sim" / "blips.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(blips.parent),
                     "--seed", "3"]) == 0
        assert main(["prepare", "--csv", str(blips), "--out", str(tmp_path / "prep"),
                     "--seed", "3"]) == 0
        assert main(["fit", "--train", str(tmp_path / "prep" / "train.csv"),
                     "--out", str(tmp_path / "models")]) == 0
        train = split(filter_climbs(ingest(blips)), seed=3).train
        save_model(fit_type_model(catalog["NBJT"], train), tmp_path / "in_process.json")
        assert ((tmp_path / "in_process.json").read_bytes()
                == (tmp_path / "models" / "model_NBJT.json").read_bytes())


class TestDegenerateType:
    """A type whose flights all fly the same climb has thrust profiles
    without variance: ``fit`` skips it by name, whatever its flight count,
    and fits the others."""

    WBJT = {"count": 30, "thrust_bias_n": -5000.0, "mode_sds": [1.7e5, 0.8e5]}

    @pytest.fixture(scope="class", params=[16, 20, 24])
    def blips(self, request, tmp_path_factory):
        root = tmp_path_factory.mktemp("degenerate")
        scenario = root / "scenario.json"
        scenario.write_text(json.dumps({"types": {"NBJT": {"count": request.param}, "WBJT": self.WBJT},
                                        "quantization_ft": 0.0}))
        assert main(["simulate", "--scenario", str(scenario), "--out", str(root), "--seed", "1"]) == 0
        return root / "blips.csv"

    def test_other_types_are_fitted(self, blips, tmp_path):
        proc = run_cli("fit", "--train", str(blips), "--out", str(tmp_path / "models"))
        assert proc.returncode == 0, proc.stderr
        assert "type NBJT: the thrust profiles have no variance" in proc.stderr
        assert "fitted WBJT" in proc.stdout
        assert [p.name for p in (tmp_path / "models").iterdir()] == ["model_WBJT.json"]

    def test_no_fitted_type_is_data_error(self, blips, tmp_path):
        lines = blips.read_text().splitlines()
        alone = tmp_path / "nbjt.csv"
        alone.write_text("\n".join([lines[0]] + [x for x in lines[1:] if ",NBJT," in x]) + "\n")
        proc = run_cli("fit", "--train", str(alone), "--out", str(tmp_path / "models"))
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "type NBJT: the thrust profiles have no variance" in proc.stderr
        assert not (tmp_path / "models").exists()


class TestReadme:
    """The README quick start runs as written."""

    def test_quick_start_runs_as_written(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Quick start", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = iter(block.splitlines())
        commands = []
        for line in lines:
            words = shlex.split(line, comments=True)
            if words[:2] == ["cat", ">"]:
                # a heredoc: cat > FILE <<'EOF' ... EOF
                heredoc = list(iter(lines.__next__, "EOF"))
                (tmp_path / words[2]).write_text("\n".join(heredoc) + "\n")
            elif words:
                assert words[0] == "climbgen", line
                commands.append(words[1:])
        assert [c[0] for c in commands] == ["simulate", "prepare", "fit", "sample",
                                            "bounds", "predict", "evaluate"]
        monkeypatch.chdir(tmp_path)   # the quick start's relative paths land here
        for argv in commands:
            assert main(argv) == 0, argv
        assert (tmp_path / "report" / "metrics_report.csv").exists()


def test_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The installed-package quick start's fit (90 NBJT flights) writes the
    same model bytes with one BLAS thread as with two."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"types": {"NBJT": {
        "count": 90, "thrust_bias_n": -2500.0, "mode_sds": [9e4, 5e4, 3e4]}}}))
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "sim"),
                 "--seed", "7"]) == 0
    assert main(["prepare", "--csv", str(tmp_path / "sim" / "blips.csv"),
                 "--out", str(tmp_path / "prep"), "--seed", "7"]) == 0
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"models{threads}"
        proc = run_cli("fit", "--train", str(tmp_path / "prep" / "train.csv"), "--out", str(out),
                       env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        models.append((out / "model_NBJT.json").read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("command", ["simulate", "prepare", "fit", "sample", "bounds",
                                     "predict", "evaluate"])
def test_climb_commands_do_not_import_numpy_ma(workdir, tmp_path, command):
    """``numpy.ma`` costs 15-35 ms to import; ``np.unique`` without optional
    outputs and ``np.percentile`` import it, and no command needs it."""
    if run_python("-c", "import sys, numpy; print('numpy.ma' in sys.modules)").stdout == "True\n":
        pytest.skip("importing numpy already imports numpy.ma")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**SCENARIO, "types": {"NBJT": {"count": 5}}}))
    model = str(workdir / "models" / "model_NBJT.json")
    args = {"simulate": ["--scenario", str(scenario), "--seed", "1"],
            "prepare": ["--csv", str(workdir / "sim" / "blips.csv"), "--seed", "3"],
            "fit": ["--train", str(workdir / "prep" / "train.csv")],
            "sample": ["--model", model, "--count", "20", "--seed", "1"],
            "bounds": ["--model", model, "--level", "0.95"],
            "predict": ["--model", model],
            "evaluate": ["--model-dir", str(workdir / "models"),
                         "--test", str(workdir / "prep" / "test.csv"), "--seed", "7"]}[command]
    proc = run_python("-c", "import sys; from climbgen.cli import main; "
                      "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)",
                      command, *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


MODULES = sorted(info.name for info in pkgutil.iter_modules(climbgen.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_on_its_own(module):
    """Each module loads when a fresh interpreter imports it first: the
    package imports none of them, so no fixed order hides an import cycle."""
    proc = run_python("-c", f"import climbgen.{module}")
    assert proc.returncode == 0, proc.stderr


def test_the_package_binds_no_names():
    """Every name is imported from its module; the package loads none."""
    assert len(MODULES) == 9
    proc = run_python("-c", "import sys, climbgen; print("
                      "[n for n in vars(climbgen) if not n.startswith('__')], "
                      "[m for m in sys.modules if m.startswith('climbgen.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


# calls main four times in one interpreter, each call with its own
# CLIMBGEN_LOG and its own redirected stderr, and puts a handler on the root
# logger after the first call; prints each call's exit code and stderr, and
# the messages that root handler received, as one JSON line
MAIN_CALLS = """
import contextlib, io, json, logging, os, sys
from climbgen.cli import main

class Kept(logging.Handler):
    messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

blips, out = sys.argv[1:]
calls = []
for k, level in enumerate(["WARNING", "INFO", "ERROR", "WARNING"]):
    os.environ["CLIMBGEN_LOG"] = level
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["prepare", "--csv", blips, "--out", f"{out}/{k}", "--seed", "3"])
    calls.append([code, err.getvalue()])
    if k == 0:
        kept = Kept()
        logging.getLogger().addHandler(kept)
print(json.dumps({"calls": calls, "kept": kept.messages,
                  "root": logging.getLogger().handlers == [kept]}))
"""


def test_each_main_call_logs_at_its_level_to_its_stderr(workdir, tmp_path):
    """Each ``main`` call in one process logs at its own ``CLIMBGEN_LOG``
    level to the stderr of that call, each line once, in the format a fresh
    process prints, and a handler on the root logger receives every record."""
    lines = (workdir / "sim" / "blips.csv").read_text().splitlines(keepends=True)
    blips = tmp_path / "blips.csv"
    blips.write_text("".join(lines[:2] + ["A,NBJT,x,16000\n"] + lines[2:]))
    proc = run_python("-c", MAIN_CALLS, str(blips), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    got = json.loads(proc.stdout.splitlines()[-1])
    (code1, err1), (code2, err2), (code3, err3), (code4, err4) = got["calls"]
    assert [code1, code2, code3, code4] == [0, 0, 0, 0]
    line, count = err1.splitlines()
    assert line.startswith(f"WARNING climbgen.pipeline: {blips} line 3: ")
    assert line.endswith("; row skipped")
    assert count == f"WARNING climbgen.pipeline: {blips}: skipped 1 malformed row(s)"
    info = [x for x in err2.splitlines() if not x.startswith("WARNING ")]
    assert [x for x in err2.splitlines() if x not in info] == [line, count]
    assert info and all(x.startswith("INFO climbgen.") for x in info)
    assert "INFO climbgen.pipeline: filter_climbs: kept " in err2
    assert err3 == ""
    assert err4 == err1
    # the root handler got calls 2 and 4's records, at each call's level
    assert sum("malformed" in m for m in got["kept"]) == 2
    assert sum(m.startswith("filter_climbs: kept ") for m in got["kept"]) == 1
    assert got["root"]


def traced_peak(call, *args):
    """The traced peak of memory while ``call(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_prepare_peak_memory_is_ingest_peak(tmp_path):
    """``prepare`` holds one copy of the flights: the flights the filter
    keeps whole are views of the ingested ones, so its traced peak is
    ingest's on the same file plus the command's own objects (the parser,
    the split's lists): 0.05 to 0.2 MiB, within a margin of 0.5 MiB.  A
    copy of the kept blips beside the ingested ones read 0.7 MiB over."""
    n = 32 * pipeline.BLOCK_LINES
    k = np.arange(n)
    path = tmp_path / "blips.csv"
    # 820 climbs of 320 blips wholly inside the modeled window, in order
    pipeline.write_blocks(path, "flight_id,type_code,t_s,alt_ft",
                          [([f"F{i:04d}" for i in (k // 320).tolist()], ["NBJT"] * n,
                            (k % 320) * 6.0, 15000.0 + (k % 320) * 50.0)])
    ingest_peak, flights = traced_peak(ingest, path)
    assert sum(tr.n_blips for tr in flights) == n
    del flights
    peak, code = traced_peak(main, ["prepare", "--csv", str(path), "--out", str(tmp_path / "prep"),
                                    "--seed", "1"])
    assert code == 0
    assert json.loads((tmp_path / "prep" / "prepare_summary.json").read_text())["filtered"] == 820
    assert peak < ingest_peak + 2**19, f"{(peak - ingest_peak) / 2**10:.0f} KiB over ingest"


def test_sample_writes_one_draw_a_block_at_a_time(workdir, tmp_path):
    """``sample`` draws and writes ``dynamics.BLOCK_CLIMBS`` = 64 profiles
    at a time from one random stream, a lone last row joining the block
    before it: its file is byte for byte the one written from every
    profile drawn at once, and its traced peak does not grow with
    ``--count``.  Holding every sample at once read 6.6 MiB over at
    ``--count 3000``."""
    model_path = str(workdir / "models" / "model_NBJT.json")
    model = load_model(model_path)
    grid = model.basis.grid
    count = 3 * dynamics.BLOCK_CLIMBS + 1   # three blocks and a lone row

    def sample(n, out):
        return main(["sample", "--model", model_path, "--count", str(n), "--seed", "5",
                     "--out", str(out)])

    assert sample(count, tmp_path / "blocks") == 0
    values = np.concatenate(list(generative.sample_blocks(model, count, 5)))
    pipeline.write_blocks(tmp_path / "whole.csv", "sample_id,h_m,thrust_N",
                          [(pipeline.repeat_each([str(k) for k in range(count)], [grid.size] * count),
                            np.tile(grid, count), values.ravel())])
    assert ((tmp_path / "blocks" / "samples_NBJT.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())
    (small, code_small), (large, code_large) = (traced_peak(sample, n, tmp_path / str(n))
                                                for n in (300, 3000))
    assert code_small == code_large == 0
    assert large < small + 2**20, f"{(large - small) / 2**10:.0f} KiB over --count 300"
