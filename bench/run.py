"""climbgen benchmark: one workload per invocation, measured in fresh
subprocesses.

    python3 bench/run.py --workload fleet_pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; climbgen is imported from its
``src/`` directory.  Scratch files go under ``.bench_work/`` in the
checkout.  Human-readable metric lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
its per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans
from measure import QUERY_TIMINGS, STAGE_TIMINGS
from workloads import STAGES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}


class BenchError(Exception):
    """A run that cannot produce a result."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for layer, func in spans.WRAPPED:
        units[f"{layer}.{func}.calls"] = "count"
        units[f"{layer}.{func}.self_s"] = "s"
        units[f"{layer}.{func}.total_s"] = "s"
    units.update({f"cli.{stage}.self_s": "s" for stage in STAGES})
    units.update({
        "atmosphere.isa_state.nodes": "count",
        "atmosphere.ns_per_node": "ns",
        "dynamics.integrate_climb.nodes": "count",
        "dynamics.integrate_climb.infeasible": "count",
        "dynamics.integrate_climb.feasible_ratio": "ratio",
        "dynamics.integrate_climb.us_per_node": "us",
        "learning.profile_from_flight.rejected": "count",
        "learning.profile_from_flight.accepted_ratio": "ratio",
        "generative.sample_thrust.profiles": "count",
        "pipeline.simulate_fleet.bytes_written": "B",
        "pipeline.ingest.rows": "count",
        "pipeline.ingest.rows_per_s": "1/s",
        "pipeline.filter_climbs.kept_ratio": "ratio",
        "pipeline.write_trajectories_csv.bytes_written": "B",
        "evaluation.run_report.rows": "count",
        "evaluation.run_report.rows_skipped": "count",
        "trace.overhead_frac": "ratio",
        "host.probe_ms": "ms",
        "host.steal_frac": "ratio",
        "quality.modes_kept_mean": "count",
        "quality.coverage_pct_mean": "%",
        "quality.mae_fl325_model_over_nominal": "ratio",
        "failed_frac": "ratio",
    })
    units.update({name: "s" for name in STAGE_TIMINGS})
    units.update({name: "ms" for name in QUERY_TIMINGS})
    return units


def child_env() -> dict[str, str]:
    """Environment of the worker processes: BLAS threads capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(limit, nproc))
    return env


class Runner:
    """Starts worker subprocesses under one overall deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.log = work / "worker.log"

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time ({DEADLINE_S:.0f} s budget)")
        return left

    def worker(self, role: str, workload: str, *extra: str) -> None:
        """Run one worker role to completion.  The worker starts set-up
        probes of its own, so it runs in its own process group, and on a
        timeout the whole group is killed and waited for."""
        argv = [sys.executable, str(BENCH / "worker.py"), role, "--workload", workload,
                "--work", str(self.work), *extra]
        with open(self.log, "a", encoding="utf-8") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env, cwd=ROOT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=self._remaining())
            except BaseException as exc:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchError(f"worker {role} did not finish in time") from None
                raise
        if code != 0:
            raise BenchError(f"worker {role} exited {code}; see the log below")


def measure(args, work: Path) -> dict:
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    runner.worker("inputs", args.workload, "--seed", str(args.seed), "--scale", str(args.scale))
    runner.worker("run", args.workload, "--seconds", str(args.seconds),
                  "--trace", str(args.trace))
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    setups = result["setup_samples_s"]
    result["setup_s"] = min(setups) if setups else None
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    correct = not result["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if not args.trace:
        lines = {"setup_s": (result["setup_s"], "s"), "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                 "items_per_s": (result["items_per_s"], "1/s")}
        lines.update({name: tuple(v) for name, v in result["human"].items()})
        lines["failed_frac"] = (result["failed_frac"], "ratio")
        for name, (value, unit) in lines.items():
            print(f"metric {name:<16} {value:>12.6g} {unit}")
    for name, value in sorted(result["quality"].items()):
        print(f"quality {name} {value:.6g}")
    for name, count in sorted(result.get("errors", {}).items()):
        print(f"errors {name} {count}")
    print(f"checks {'passed' if correct else 'FAILED'}; attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_frac {result['failed_frac']:.4f})")
    for problem in result["problems"]:
        print(f"problem {problem}")
    if args.trace:
        units = per_layer_units()
        missing = set(units) ^ set(result["per_layer"])
        if missing:
            raise BenchError(f"per-layer metrics out of sync with their units: {sorted(missing)}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
                  "items_per_s": result["items_per_s"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="climbgen benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the self-tests use 0.05)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "climbgen" / "__init__.py").is_file():
        print(f"error: no climbgen sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
        final = report(args, result)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = work / "worker.log"
        if log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
        return 1
    results = ROOT / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**result, "final": final}, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        shutil.copyfile(work / "spans.jsonl", results / f"{stem}-spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
