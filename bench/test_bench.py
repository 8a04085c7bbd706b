"""Self-tests of the benchmark: tiny-size runs of every workload, and
output checks that must reject corrupted outputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = ["--scale", "0.05", "--seconds", "1"]


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_what_the_code_reports():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench_run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["fleet_pipeline", "fleet_many_types", "model_queries"])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = _benchmark_json()["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith("metric failed_frac") for line in lines)
    else:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert m["generative.confidence_radius.calls"] == 100 * m["generative.bound_profiles.calls"]
        if workload == "model_queries":
            assert m["pipeline.ingest.calls"] == 0
            assert m["dynamics.integrate_climb.calls"] > 0
        else:
            assert m["pipeline.ingest.calls"] == 3   # prepare, fit, evaluate
            assert m["cli.simulate.self_s"] > 0


@pytest.mark.parametrize("workload", ["fleet_pipeline", "model_queries"])
def test_counts_do_not_depend_on_how_long_a_run_is(workload):
    """Runs of one seed attempt and fail the same operations, however
    many repeats fit in the time."""
    counts = []
    for seconds in ("0", "4"):
        proc = _run("--workload", workload, "--seed", "3", "--trace", "0",
                    "--scale", "0.05", "--seconds", seconds)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_fastest_rate_times_each_query_class_at_its_fastest_repeat():
    queries = [("NBJT", "predict", None)] * 3 + [("NBJT", "bounds", 0.9),
                                                  ("NBJT", "bounds", 0.99)]
    stream = {"queries": queries, "latency": [0.004, 0.001, 0.002, 0.010, 0.030],
              "outputs": [(b"", ())] * 4 + ["ClimbgenError"]}
    assert workloads.fastest_rate(stream) == pytest.approx(4 / (3 * 0.001 + 0.010))


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fleet_pipeline", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_fleet(tmp_path_factory):
    """Two passes of a tiny fleet_pipeline, run in-process."""
    work = tmp_path_factory.mktemp("fleet")
    workloads.make_inputs("fleet_pipeline", 5, 0.05, work / "inputs")
    setup = workloads.Setup("fleet_pipeline", work / "inputs")
    passes = [work / "pass_0", work / "pass_1"]
    results = [workloads.fleet_pass(setup, out) for out in passes]
    return setup, passes, results


def _copy(tiny_fleet, tmp_path):
    setup, passes, results = tiny_fleet
    copies = [tmp_path / p.name for p in passes]
    for src, dst in zip(passes, copies):
        shutil.copytree(src, dst)
    return setup, copies, results


def test_tiny_fleet_passes_the_checks(tiny_fleet):
    setup, passes, results = tiny_fleet
    assert workloads.check_fleet(setup, passes, results) == []


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("corruption", [
    "report_value", "model_worse_than_nominal", "truth_missing_flight",
    "split_counts", "model_missing", "pass_differs", "stage_failed",
])
def test_corrupted_output_fails_the_checks(tiny_fleet, tmp_path, corruption):
    setup, passes, results = _copy(tiny_fleet, tmp_path)
    out = passes[0]
    if corruption == "report_value":
        _edit_json(out / "eval" / "metrics_report.json",
                   lambda rows: rows[0].update(kl_fl250=-1.0))
    elif corruption == "model_worse_than_nominal":
        _edit_json(out / "eval" / "metrics_report.json",
                   lambda rows: rows[0].update(mae_fl325_model=1e9))
    elif corruption == "truth_missing_flight":
        _edit_json(out / "sim" / "truth.json", lambda doc: doc["flights"].popitem())
    elif corruption == "split_counts":
        _edit_json(out / "prep" / "prepare_summary.json",
                   lambda doc: doc.update(test=doc["test"] + 1))
    elif corruption == "model_missing":
        next((out / "models").glob("model_*.json")).unlink()
    elif corruption == "pass_differs":
        path = passes[1] / "prep" / "test.csv"
        path.write_bytes(path.read_bytes() + b"\n")
    else:
        results = [dict(results[0], codes={**results[0]["codes"], "fit": 3}), results[1]]
    assert workloads.check_fleet(setup, passes, results) != []


def test_bounds_check_needs_the_mean_between_the_bounds():
    assert workloads.check_query("bounds", (100.0, 120.0), 110.0) is None
    assert workloads.check_query("bounds", (100.0, 120.0), 130.0) is not None
    assert workloads.check_query("predict", (50.0, 90.0, 60.0, 100.0), 0.0) is None
    assert workloads.check_query("predict", (50.0, float("nan"), 60.0, 100.0), 0.0) is not None


def test_wrappers_are_removed_and_a_missing_function_fails_loudly(monkeypatch):
    import climbgen.dynamics
    import climbgen.pipeline

    original = climbgen.dynamics.integrate_climb
    uninstall = spans.install(spans.Tracer())
    assert climbgen.pipeline.integrate_climb is not original
    uninstall()
    assert climbgen.pipeline.integrate_climb is original
    assert climbgen.dynamics.integrate_climb is original

    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (("dynamics", "no_such_function"),))
    with pytest.raises(LookupError, match="no_such_function"):
        spans.install(spans.Tracer())
    assert climbgen.pipeline.integrate_climb is original
