"""The three benchmark workloads: input generation, the timed work, and
the output checks.

Everything here drives climbgen from outside: the fleet workloads through
``climbgen.cli.main([...])``, the query workload through the library's
public functions.  Inputs are generated from the benchmark seed only.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

STAGES = ("simulate", "prepare", "fit", "evaluate")

# Per-archetype truth: thrust bias (N) and the three mode deviations.
ARCHETYPES = {
    "NBJT": (-2500.0, [9.0e4, 5.0e4, 3.0e4]),
    "WBJT": (-5000.0, [1.7e5, 0.8e5, 0.4e5]),
    "CPJT": (-400.0, [1.0e4, 0.5e4, 0.25e4]),
}
MASS_FACTORS = (0.94, 0.97, 1.00, 1.03, 1.06, 1.09, 1.12, 1.15)
WEIGHT_DISTS = ("normal", "student_t", "contaminated")
MIN_FLIGHTS_PER_TYPE = 90   # evaluate needs 20 test flights per type for KL

QUERY_TYPES = ("CPJT", "NBJT", "WBJT")
QUERY_MIX = (("predict", 0.5), ("bounds", 0.3), ("sample", 0.2))
BOUND_LEVELS = (0.90, 0.95, 0.99)
SAMPLES_PER_QUERY = 20
MIN_QUERIES = 1000          # so that p99 has at least ten samples beyond it
REPLAYED_QUERIES = 100
FL325_M = 32500.0 * 0.3048

FLEETS = ("fleet_pipeline", "fleet_many_types")
WORKLOADS = FLEETS + ("model_queries",)


def _flights(count: int, scale: float) -> int:
    return max(MIN_FLIGHTS_PER_TYPE, round(count * scale))


def _type_spec(code: str, count: int, **extra) -> dict:
    bias, sds = ARCHETYPES[code]
    return {"count": count, "thrust_bias_n": bias, "mode_sds": sds, **extra}


def fleet_pipeline_scenario(scale: float) -> dict:
    """NBJT and WBJT, 1500 flights each, 3-mode truth, 25 ft quantization."""
    return {
        "types": {code: _type_spec(code, _flights(1500, scale)) for code in ("NBJT", "WBJT")},
        "blip_interval_s": 6.0,
        "alt_noise_ft": 0.0,
        "quantization_ft": 25.0,
    }


def many_types_inputs(catalog_records: list[dict], scale: float) -> tuple[dict, list[dict]]:
    """24 types: 8 nominal-mass variants of each shipped archetype, with the
    weight-draw family cycling normal / student_t / contaminated."""
    n_variants = len(MASS_FACTORS) if scale >= 1.0 else max(1, round(len(MASS_FACTORS) * scale))
    records, types = [], {}
    for record in catalog_records:
        for factor in MASS_FACTORS[:n_variants]:
            code = f"{record['type_code']}{round(factor * 100):03d}"
            records.append({**record, "type_code": code,
                            "m_nom_kg": record["m_nom_kg"] * factor})
            types[code] = _type_spec(record["type_code"], _flights(90, scale),
                                     weight_dist=WEIGHT_DISTS[len(types) % len(WEIGHT_DISTS)])
    scenario = {
        "types": types,
        "blip_interval_s": 4.0,
        "alt_noise_ft": 0.0,
        "quantization_ft": 25.0,
        "delta_t_k": 10.0,
    }
    return scenario, records


def query_fleet_scenario(scale: float) -> dict:
    """The 3 x 300-flight fleet the query workload's models are fitted on."""
    return {
        "types": {code: _type_spec(code, _flights(300, scale)) for code in QUERY_TYPES},
        "blip_interval_s": 6.0,
        "alt_noise_ft": 0.0,
        "quantization_ft": 25.0,
    }


def split_seed(flights: dict[str, int], seed: int) -> int:
    """The ``prepare --seed`` for a fleet: the first of seed, seed + 1000003,
    ... whose train/test split leaves every type the test flights that
    ``evaluate`` needs for its KL metric.  With fewer, ``evaluate`` exits 3
    for the whole report (a documented data error), which at 90 flights per
    type happens on about a quarter of splits.  Assumes every simulated
    flight passes the climb filter, as it does on these noise-free fleets."""
    from types import SimpleNamespace

    from climbgen.evaluation import MIN_KL_SAMPLES
    from climbgen.pipeline import split

    stand_ins = [SimpleNamespace(flight_id=f"{code}-{i:05d}", type_code=code)
                 for code, n in flights.items() for i in range(n)]
    for k in range(100):
        candidate = seed + 1000003 * k
        counts = Counter(tr.type_code for tr in split(stand_ins, seed=candidate).test)
        if all(counts[code] >= MIN_KL_SAMPLES for code in flights):
            return candidate
    raise RuntimeError(f"no split seed from {seed} leaves {MIN_KL_SAMPLES} test flights per type")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, scale: float, inputs: Path) -> None:
    """Write the workload's generated inputs under ``inputs``.

    The query workload's models are fitted here (simulate, prepare, fit),
    outside any timing.
    """
    from climbgen import performance
    from climbgen.cli import main

    inputs.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "scale": scale}
    if workload in FLEETS:
        if workload == "fleet_pipeline":
            scenario = fleet_pipeline_scenario(scale)
        else:
            records = json.loads(performance.default_catalog_path().read_text(encoding="utf-8"))
            scenario, perf_records = many_types_inputs(records, scale)
            _write_json(inputs / "perf.json", perf_records)
            spec["perf_file"] = str(inputs / "perf.json")
        _write_json(inputs / "scenario.json", scenario)
        spec["prepare_seed"] = split_seed(
            {code: t["count"] for code, t in scenario["types"].items()}, seed)
    else:
        _write_json(inputs / "scenario.json", query_fleet_scenario(scale))
        fit_dir = inputs / "fit"
        for argv in (
            ["simulate", "--scenario", str(inputs / "scenario.json"),
             "--out", str(fit_dir / "sim"), "--seed", str(seed)],
            ["prepare", "--csv", str(fit_dir / "sim" / "blips.csv"),
             "--out", str(fit_dir / "prep"), "--seed", str(seed)],
            ["fit", "--train", str(fit_dir / "prep" / "train.csv"),
             "--out", str(inputs / "models")],
        ):
            if main(argv) != 0:
                raise RuntimeError(f"input generation failed: climbgen {' '.join(argv)}")
        spec["min_queries"] = max(50, round(MIN_QUERIES * scale))
    _write_json(inputs / "spec.json", spec)


class Setup:
    """What a user loads before the first operation: the package, the
    catalog and, for queries, the three model files."""

    def __init__(self, workload: str, inputs: Path) -> None:
        from climbgen import generative, performance

        self.workload = workload
        self.inputs = inputs
        self.spec = json.loads((inputs / "spec.json").read_text(encoding="utf-8"))
        perf_file = self.spec.get("perf_file")
        self.catalog = performance.load_performance(
            perf_file or performance.default_catalog_path())
        self.models = {}
        if workload == "model_queries":
            self.models = {code: generative.load_model(inputs / "models" / f"model_{code}.json")
                           for code in QUERY_TYPES}


# --- fleet workloads -------------------------------------------------------

def stage_argv(setup: Setup, out: Path) -> dict[str, list[str]]:
    seed = str(setup.spec["seed"])
    perf = ["--perf-file", setup.spec["perf_file"]] if "perf_file" in setup.spec else []
    return {
        "simulate": ["simulate", "--scenario", str(setup.inputs / "scenario.json"),
                     "--out", str(out / "sim"), "--seed", seed] + perf,
        "prepare": ["prepare", "--csv", str(out / "sim" / "blips.csv"),
                    "--out", str(out / "prep"), "--seed", str(setup.spec["prepare_seed"])],
        "fit": ["fit", "--train", str(out / "prep" / "train.csv"),
                "--out", str(out / "models")] + perf,
        "evaluate": ["evaluate", "--model-dir", str(out / "models"),
                     "--test", str(out / "prep" / "test.csv"),
                     "--out", str(out / "eval"), "--seed", seed] + perf,
    }


def fleet_pass(setup: Setup, out: Path, tracer=None) -> dict:
    """One simulate -> prepare -> fit -> evaluate pass; stage wall times
    and exit codes."""
    from climbgen.cli import main

    seconds, codes = {}, {}
    for stage, argv in stage_argv(setup, out).items():
        t0 = perf_counter()
        if tracer is None:
            codes[stage] = main(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                codes[stage] = main(argv)
        seconds[stage] = perf_counter() - t0
    return {"seconds": seconds, "codes": codes}


def scenario_flights(setup: Setup) -> dict[str, int]:
    scenario = json.loads((setup.inputs / "scenario.json").read_text(encoding="utf-8"))
    return {code: spec["count"] for code, spec in scenario["types"].items()}


def report_rows(out: Path) -> list[dict]:
    path = out / "eval" / "metrics_report.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def tree_digest(out: Path) -> dict[str, str]:
    """sha256 of every file under a pass directory, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_fleet(setup: Setup, passes: list[Path], results: list[dict]) -> list[str]:
    """Invariant checks on every pass; an empty list means all passed."""
    from climbgen import generative
    from climbgen.errors import ClimbgenError

    problems = []
    flights = scenario_flights(setup)
    for out, result in zip(passes, results):
        tag = out.name
        for stage, code in result["codes"].items():
            if code != 0:
                problems.append(f"{tag}: {stage} exited {code}")
        try:
            summary = json.loads((out / "prep" / "prepare_summary.json").read_text())
            truth = json.loads((out / "sim" / "truth.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{tag}: unreadable stage output: {exc}")
            continue
        if summary["train"] + summary["test"] != summary["filtered"]:
            problems.append(f"{tag}: train {summary['train']} + test {summary['test']} "
                            f"!= filtered {summary['filtered']}")
        if not 0 < summary["filtered"] <= summary["ingested"] <= sum(flights.values()):
            problems.append(f"{tag}: flight counts out of order: {summary}")
        expected_ids = {f"{code}-{i:05d}" for code, n in flights.items() for i in range(n)}
        if set(truth.get("flights", {})) != expected_ids:
            problems.append(f"{tag}: truth.json does not list every simulated flight")
        elif any(rec["type_code"] != fid.rsplit("-", 1)[0]
                 for fid, rec in truth["flights"].items()):
            problems.append(f"{tag}: truth.json type codes disagree with flight ids")
        model_files = sorted((out / "models").glob("model_*.json"))
        if [p.name for p in model_files] != [f"model_{c}.json" for c in sorted(flights)]:
            problems.append(f"{tag}: expected one model per type, found "
                            f"{[p.name for p in model_files]}")
        for path in model_files:
            try:
                model = generative.load_model(path)
            except ClimbgenError as exc:
                problems.append(f"{tag}: {path.name} does not load: {exc}")
                continue
            if f"model_{model.type_code}.json" != path.name:
                problems.append(f"{tag}: {path.name} holds type {model.type_code}")
        rows = report_rows(out)
        problems += _check_report(tag, rows, flights, summary["train"])
        if setup.workload == "fleet_pipeline":
            by_type = {row["type_code"]: row for row in rows}
            for code in flights:
                row = by_type.get(code)
                if row is None or not row["mae_fl325_model"] < row["mae_fl325_nominal"]:
                    problems.append(f"{tag}: {code} model MAE at FL325 is not below nominal")
    reference = tree_digest(passes[0])
    for out in passes[1:]:
        if tree_digest(out) != reference:
            problems.append(f"{out.name}: artifacts differ from {passes[0].name} "
                            "with the same seed")
    return problems


def _check_report(tag: str, rows: list[dict], flights: dict[str, int],
                  n_train: int) -> list[str]:
    problems = []
    codes = [row["type_code"] for row in rows]
    if len(set(codes)) != len(codes) or not set(codes) <= set(flights):
        problems.append(f"{tag}: report rows name unexpected or repeated types: {codes}")
    for row in rows:
        values = [row[k] for k in ("mae_fl250_model", "mae_fl250_nominal", "mae_fl325_model",
                                   "mae_fl325_nominal", "kl_fl250", "kl_fl325")]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            problems.append(f"{tag}: {row['type_code']} has a negative or non-finite metric")
        if not 0.0 <= row["coverage_pct"] <= 100.0:
            problems.append(f"{tag}: {row['type_code']} coverage {row['coverage_pct']} "
                            "outside [0, 100]")
        if not 0 < row["n_f"] <= n_train:
            problems.append(f"{tag}: {row['type_code']} n_f {row['n_f']} outside "
                            f"(0, {n_train}]")
    return problems


def fleet_quality(out: Path) -> dict[str, float]:
    """Deterministic model-health counters of one pass."""
    modes = [len(json.loads(p.read_text())["modes"])
             for p in sorted((out / "models").glob("model_*.json"))]
    rows = report_rows(out)
    return {
        "quality.modes_kept_mean": float(np.mean(modes)) if modes else 0.0,
        "quality.coverage_pct_mean": (float(np.mean([r["coverage_pct"] for r in rows]))
                                      if rows else 0.0),
        "quality.mae_fl325_model_over_nominal": (
            float(np.mean([r["mae_fl325_model"] / r["mae_fl325_nominal"] for r in rows]))
            if rows else 0.0),
    }


# --- query workload --------------------------------------------------------

def query_list(seed: int, count: int) -> list[tuple]:
    """About ``count`` (type, kind, argument) queries in the exact mix:
    kinds in QUERY_MIX shares, types in equal shares within each kind, and
    bound levels in equal shares.  The order and the sample seeds come from
    ``seed``; a fixed mix keeps the cost of the list the same for every
    seed."""
    rng = np.random.default_rng(seed)
    queries = []
    for kind, share in QUERY_MIX:
        for i in range(round(count * share)):
            code = QUERY_TYPES[i % len(QUERY_TYPES)]
            if kind == "bounds":
                arg = BOUND_LEVELS[i // len(QUERY_TYPES) % len(BOUND_LEVELS)]
            elif kind == "sample":
                arg = int(rng.integers(2**31))
            else:
                arg = None
            queries.append((code, kind, arg))
    return [queries[i] for i in rng.permutation(len(queries))]


def run_query(setup: Setup, code: str, kind: str, arg):
    """One query, as a library user would issue it; returns its result."""
    from climbgen import dynamics, evaluation, generative, learning, performance

    model = setup.models[code]
    perf = setup.catalog[code]
    grid = model.basis.grid
    h0, h1 = float(grid[0]), float(grid[-1])
    mass = perf.nominal_mass
    if kind == "predict":
        mean_traj = dynamics.integrate_climb(perf, mass, model.mean_profile(), h0, h1)
        nominal = learning.ThrustProfile(grid.copy(), performance.nominal_thrust(perf, grid))
        nominal_traj = dynamics.integrate_climb(perf, mass, nominal, h0, h1)
        return (evaluation.arrival_times(mean_traj), evaluation.arrival_times(nominal_traj))
    if kind == "bounds":
        return generative.bound_trajectories(model, perf, mass, h0, h1, arg)
    profiles = generative.sample_thrust(model, SAMPLES_PER_QUERY, arg)
    return [evaluation.arrival_times(dynamics.integrate_climb(perf, mass, p, h0, h1))
            for p in profiles]


def _arrival_floats(sample) -> list[float]:
    return [math.nan, math.nan] if sample is None else [sample.t_fl250, sample.t_fl325]


def summarize_query(kind: str, result) -> tuple[bytes, tuple]:
    """Digest of a query's output plus the values its check needs."""
    if kind == "predict":
        values = _arrival_floats(result[0]) + _arrival_floats(result[1])
        return struct.pack(f"{len(values)}d", *values), tuple(values)
    if kind == "bounds":
        slow, fast = result
        digest = hashlib.sha256(slow.t.tobytes() + fast.t.tobytes()).digest()
        return digest, (float(fast.time_at(FL325_M)), float(slow.time_at(FL325_M)))
    values = [v for sample in result for v in _arrival_floats(sample)]
    return struct.pack(f"{len(values)}d", *values), tuple(values)


def check_query(kind: str, values: tuple, mean_t325: float) -> str | None:
    """Problem with one query's output, or None."""
    if kind == "bounds":
        t_fast, t_slow = values
        if not (t_fast <= mean_t325 * (1 + 1e-12) and mean_t325 <= t_slow * (1 + 1e-12)):
            return f"bounds do not bracket the mean at FL325: {t_fast} / {mean_t325} / {t_slow}"
        return None
    pairs = list(zip(values[0::2], values[1::2]))
    if not all(math.isfinite(a) and math.isfinite(b) and 0.0 < a < b for a, b in pairs):
        return f"{kind}: arrival times missing or out of order"
    return None


def mean_t325(setup: Setup) -> dict[str, float]:
    """Time to FL325 of each model's mean climb (the bounds check's middle)."""
    from climbgen import dynamics

    out = {}
    for code, model in setup.models.items():
        perf = setup.catalog[code]
        grid = model.basis.grid
        traj = dynamics.integrate_climb(perf, perf.nominal_mass, model.mean_profile(),
                                        float(grid[0]), float(grid[-1]))
        out[code] = float(traj.time_at(FL325_M))
    return out


def run_queries(setup: Setup, queries, seconds: float, min_count: int,
                tracer=None) -> dict:
    """Closed loop, one client: issue each query after the previous one
    returns, until ``seconds`` have passed and ``min_count`` were issued.

    ``queries`` is an iterator of query tuples; those issued are recorded so
    the same list can be replayed.  Each output is reduced to its digest and
    check values as soon as it is timed, so memory does not grow with the
    number of queries; a query that raised records its exception's name.
    """
    from climbgen.errors import ClimbgenError

    issued, latency, outputs = [], [], []
    start = perf_counter()
    for query in queries:
        code, kind, arg = query
        t0 = perf_counter()
        try:
            if tracer is None:
                result = run_query(setup, code, kind, arg)
            else:
                with tracer.span(f"client.{kind}"):
                    result = run_query(setup, code, kind, arg)
        except ClimbgenError as exc:
            latency.append(perf_counter() - t0)
            outputs.append(type(exc).__name__)
        else:
            latency.append(perf_counter() - t0)
            outputs.append(summarize_query(kind, result))
        issued.append(query)
        if len(issued) >= min_count and perf_counter() - start >= seconds:
            break
    elapsed = perf_counter() - start
    return {"queries": issued, "latency": latency, "outputs": outputs, "elapsed": elapsed}


def score_queries(stream: dict, means: dict[str, float]) -> dict:
    """Failures, check problems and per-query digests of one stream."""
    failed, problems, digests = 0, [], []
    errors: dict[str, int] = {}
    for (code, kind, _), output in zip(stream["queries"], stream["outputs"]):
        if isinstance(output, str):
            failed += 1
            name = f"{code}.{kind}.{output}"
            errors[name] = errors.get(name, 0) + 1
            digests.append(output.encode())
            continue
        digest, values = output
        digests.append(digest)
        problem = check_query(kind, values, means[code])
        if problem is not None:
            failed += 1
            problems.append(f"{code}: {problem}")
    return {"failed": failed, "problems": problems, "digests": digests, "errors": errors}


def latency_metrics(stream: dict) -> dict[str, float]:
    """Median per kind, p99 over all queries, and throughput, in ms and 1/s;
    only queries that returned are timed."""
    by_kind: dict[str, list[float]] = {kind: [] for kind, _ in QUERY_MIX}
    ok = []
    for (code, kind, _), t, output in zip(stream["queries"], stream["latency"],
                                          stream["outputs"]):
        if not isinstance(output, str):
            by_kind[kind].append(t)
            ok.append(t)
    m = {f"{kind}_p50_ms": 1e3 * float(np.median(v)) if v else 0.0 for kind, v in by_kind.items()}
    m["query_p99_ms"] = 1e3 * float(np.percentile(ok, 99)) if ok else 0.0
    m["queries_per_s"] = len(ok) / stream["elapsed"]
    m["items_per_s"] = fastest_rate(stream)
    return m


def fastest_rate(stream: dict) -> float:
    """Queries per second with each query that returned timed at the
    fastest repeat of its class: same type and kind, and for ``bounds`` the
    same level.  The host's speed changes every few seconds; the fastest
    repeat is the one it slowed least, so this varies less from run to run
    than the mean throughput does."""
    fastest: dict[tuple, float] = {}
    classes = []
    for (code, kind, arg), t, output in zip(stream["queries"], stream["latency"],
                                            stream["outputs"]):
        if not isinstance(output, str):
            key = (code, kind, arg if kind == "bounds" else None)
            fastest[key] = min(t, fastest.get(key, t))
            classes.append(key)
    return len(classes) / sum(fastest[key] for key in classes) if classes else 0.0
