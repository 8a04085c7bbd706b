"""The timed part of one benchmark run, inside the worker process.

Untraced runs measure the end-to-end metrics.  Traced runs do the same
work once untraced and once with every layer wrapped, and report the
per-layer metrics, the tracing overhead between the two, and the untraced
stage and query timings.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

MIN_PASSES = 2              # so that the repeats can be compared byte for byte
MAX_PASSES = 3              # bounds a run when the host is fast
QUERY_SEGMENTS = 4          # set-up probes run between segments of the query stream
PROBES_PER_BREAK = 2
STAGE_TIMINGS = tuple(f"{stage}_s" for stage in workloads.STAGES)
QUERY_TIMINGS = ("predict_p50_ms", "bounds_p50_ms", "sample_p50_ms", "query_p99_ms")


def host_probe_ms() -> float:
    """Median time of a fixed numpy loop: a speed reading of the host."""
    x = np.linspace(0.0, 1.0, 4096)
    times = []
    for _ in range(7):
        t0 = perf_counter()
        for _ in range(200):
            float(np.sqrt(x * x + 1.0).sum())
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_frac(before, after) -> float:
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbes:
    """Times fresh ``worker.py setup`` processes, from start to ready.

    The probes run in breaks of the timed work, so they sample the host
    at several moments of the run; its speed changes every few seconds.
    The first probe only warms the file and bytecode caches.
    """

    def __init__(self, workload: str, work: Path) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
                     "setup", "--workload", workload, "--work", str(work)]
        self.samples: list[float] = []
        self._probe()

    def _probe(self) -> float:
        started = time.monotonic()
        proc = subprocess.run(self.argv, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=60)
        return float(proc.stdout.strip().splitlines()[-1]) - started

    def take(self) -> None:
        self.samples += [self._probe() for _ in range(PROBES_PER_BREAK)]


def run(workload: str, inputs: Path, work: Path, seconds: float, trace: bool) -> dict:
    """Measure one workload; the result is JSON-ready."""
    setup = workloads.Setup(workload, inputs)
    probe = host_probe_ms()
    ticks = cpu_ticks()
    tracer = spans.Tracer() if trace else None
    probes = None if trace else SetupProbes(workload, work)
    if workload in workloads.FLEETS:
        result = _run_fleet(setup, work, seconds, tracer, probes)
    else:
        result = _run_queries(setup, seconds, tracer, probes)
    result["setup_samples_s"] = probes.samples if probes else []
    env = environment()
    env["host.probe_ms"] = probe
    env["host.steal_frac"] = steal_frac(ticks, cpu_ticks())
    result["env"] = env
    result["failed_frac"] = result["failed"] / result["attempted"]
    if tracer is not None:
        result["problems"] += spans.check_accounting(tracer.spans)
        layer = result["per_layer"]
        layer.update(spans.layer_metrics(tracer))
        layer.update(result["quality"])
        layer["host.probe_ms"] = probe
        layer["host.steal_frac"] = env["host.steal_frac"]
        layer["failed_frac"] = result["failed_frac"]
        tracer.write(work / "spans.jsonl")
    return result


def _run_fleet(setup, work: Path, seconds: float, tracer, probes) -> dict:
    """Repeat the pipeline pass for ``seconds``, MIN_PASSES to MAX_PASSES
    times.  Every repeat must reproduce the first pass byte for byte, so
    the operations attempted and failed are those of one pass, the same
    for a given seed however many passes fit in the time.  Traced: one
    untraced pass, then one traced pass."""
    flights = workloads.scenario_flights(setup)
    passes, results = [], []
    if probes:
        probes.take()
    start = perf_counter()
    while True:
        out = work / f"pass_{len(passes)}"
        if tracer is not None and passes:
            uninstall = spans.install(tracer)
            try:
                results.append(workloads.fleet_pass(setup, out, tracer))
            finally:
                uninstall()
        else:
            results.append(workloads.fleet_pass(setup, out))
        passes.append(out)
        if probes and len(passes) <= MIN_PASSES:   # the same number of probes in every run
            pause = perf_counter()
            probes.take()
            start += perf_counter() - pause
        if tracer is not None and len(passes) == 2:
            break
        if len(passes) >= MAX_PASSES or (len(passes) >= MIN_PASSES
                                         and perf_counter() - start >= seconds):
            break
    rss = peak_rss_mb()

    problems = workloads.check_fleet(setup, passes, results)
    rows = [len(workloads.report_rows(out)) for out in passes]
    timed = results[:1] if tracer is not None else results
    stage_s = {stage: statistics.mean(r["seconds"][stage] for r in timed)
               for stage in workloads.STAGES}
    flights_per_s = sum(flights.values()) / sum(stage_s.values())
    human = {f"{stage}_s": (value, "s") for stage, value in stage_s.items()}
    human["flights_per_s"] = (flights_per_s, "flights/s")
    result = {
        "attempted": len(workloads.STAGES) + len(flights),
        "failed": len(flights) - rows[0] + len(problems),
        "problems": problems,
        "peak_rss_mb": rss,
        "items_per_s": flights_per_s,
        "human": human,
        "quality": workloads.fleet_quality(passes[0]),
        "report_rows": rows,
        "pass_seconds": [r["seconds"] for r in results],
    }
    if tracer is not None:
        overhead = sum(results[1]["seconds"].values()) / sum(results[0]["seconds"].values())
        result["per_layer"] = {"trace.overhead_frac": overhead - 1.0,
                               **{name: human[name][0] for name in STAGE_TIMINGS},
                               **{name: 0.0 for name in QUERY_TIMINGS}}
    return result


def _run_queries(setup, seconds: float, tracer, probes) -> dict:
    """Cycle through the seed's fixed list of queries for ``seconds``, and
    at least once plus REPLAYED_QUERIES repeats.  The list is attempted and
    checked once; every repeat must give its first output again, so the
    counts are the same for a given seed however many queries fit in the
    time.  Traced: the untraced stream, then all of it again traced."""
    queries = workloads.query_list(setup.spec["seed"], setup.spec["min_queries"])
    distinct = len(queries)
    cycle = itertools.cycle(queries)
    if tracer is not None:
        stream = workloads.run_queries(setup, cycle, 0.0, distinct + workloads.REPLAYED_QUERIES)
    else:
        parts = []
        probes.take()
        per_part = math.ceil((distinct + workloads.REPLAYED_QUERIES) / QUERY_SEGMENTS)
        for _ in range(QUERY_SEGMENTS):
            parts.append(workloads.run_queries(setup, cycle, seconds / QUERY_SEGMENTS, per_part))
            probes.take()
        stream = {key: [x for p in parts for x in p[key]]
                  for key in ("queries", "latency", "outputs")}
        stream["elapsed"] = sum(p["elapsed"] for p in parts)
    rss = peak_rss_mb()
    means = workloads.mean_t325(setup)
    scored = workloads.score_queries({"queries": queries,
                                      "outputs": stream["outputs"][:distinct]}, means)
    problems = list(scored["problems"])
    digests = workloads.score_queries(stream, means)["digests"]
    repeats_same = all(d == scored["digests"][i % distinct] for i, d in enumerate(digests))
    if not repeats_same:
        problems.append(f"repeating the {distinct} queries gave different outputs")

    replay_same = True
    if tracer is not None:
        uninstall = spans.install(tracer)
        try:
            # set-up again under the tracer, so catalog and model loads get spans
            traced_setup = workloads.Setup(setup.workload, setup.inputs)
            replay = workloads.run_queries(traced_setup, iter(stream["queries"]), 0.0,
                                           len(stream["queries"]), tracer)
        finally:
            uninstall()
        replay_same = workloads.score_queries(replay, means)["digests"] == digests
        if not replay_same:
            problems.append("the traced replay gave different outputs")

    timings = workloads.latency_metrics(stream)
    human = {name: (timings[name], "ms") for name in QUERY_TIMINGS}
    human["queries_per_s"] = (timings["queries_per_s"], "1/s")
    modes = [model.basis.n_modes for model in setup.models.values()]
    result = {
        "attempted": distinct,
        "failed": scored["failed"] + (not repeats_same) + (not replay_same),
        "problems": problems,
        "errors": scored["errors"],
        "peak_rss_mb": rss,
        "items_per_s": timings["items_per_s"],
        "human": human,
        "quality": {"quality.modes_kept_mean": float(np.mean(modes)),
                    "quality.coverage_pct_mean": 0.0,
                    "quality.mae_fl325_model_over_nominal": 0.0},
    }
    if tracer is not None:
        result["per_layer"] = {"trace.overhead_frac": replay["elapsed"] / stream["elapsed"] - 1.0,
                               **{name: 0.0 for name in STAGE_TIMINGS},
                               **{name: timings[name] for name in QUERY_TIMINGS}}
    return result
