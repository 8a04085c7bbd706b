"""Command-line pipeline: simulate, prepare, fit, sample, bounds, predict,
evaluate.

Outputs land under --out, which the first file written makes.  Exit
codes: 0 on success; 2 on a validation error (bad arguments, schemas, or
a missing or unreadable input) or an OS error writing an output; 3 on a
data error (well-formed inputs that cannot support the operation).
``fit`` and ``evaluate`` skip a type whose work raises a data error, with
one warning, and exit 3 only when no type yields a model or a row.  Set
``CLIMBGEN_LOG`` to a level name (DEBUG, INFO, ...) to control logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation, generative, learning, performance, pipeline
from .errors import DataError, ValidationError, write_json

logger = logging.getLogger("climbgen.cli")   # not "__main__" under python -m

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, perf: bool = False,
                seed: bool = False, level: bool = False) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    if perf:
        parser.add_argument("--perf-file", default=None,
                            help="aircraft performance JSON (default: shipped catalog)")
    if seed:
        parser.add_argument("--seed", type=_seed, default=0, help="random seed (>= 0)")
    if level:
        parser.add_argument("--level", type=float, default=0.95, help="confidence level")


def _load_catalog(args) -> dict[str, performance.AircraftPerformance]:
    path = args.perf_file or performance.default_catalog_path()
    return performance.load_performance(path)


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    catalog = _load_catalog(args)
    scenario = pipeline.load_scenario(args.scenario)
    counts = pipeline.simulate_fleet(catalog, scenario, args.seed, out / "blips.csv",
                                     out / "truth.json")
    total = sum(counts.values())
    print(f"simulated {total} flights ({', '.join(f'{k}: {v}' for k, v in sorted(counts.items()))})")
    print(f"wrote {out / 'blips.csv'} and {out / 'truth.json'}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    out = Path(args.out)
    trajectories = pipeline.ingest(args.csv)
    ingested = len(trajectories)
    filtered = pipeline.filter_climbs(trajectories)
    del trajectories   # only their count is written; the kept flights view their blips
    if not filtered:
        raise DataError("no flights survive the climb filter")
    split_data = pipeline.split(filtered, seed=args.seed)
    pipeline.write_trajectories_csv(split_data.train, out / "train.csv")
    pipeline.write_trajectories_csv(split_data.test, out / "test.csv")
    summary = {
        "ingested": ingested,
        "filtered": len(filtered),
        "train": len(split_data.train),
        "test": len(split_data.test),
        "seed": args.seed,
        "interval_fl": list(learning.INTERVAL_FL),
        "rocd_min_fpm": pipeline.ROCD_MIN_FPM,
    }
    write_json(out / "prepare_summary.json", summary)
    print(f"kept {len(filtered)}/{ingested} flights -> "
          f"{len(split_data.train)} train / {len(split_data.test)} test")
    return EXIT_OK


def _cmd_fit(args) -> int:
    catalog = _load_catalog(args)
    trajectories = pipeline.ingest(args.train)

    by_type: dict[str, list[pipeline.Trajectory]] = {}
    for tr in trajectories:
        by_type.setdefault(tr.type_code, []).append(tr)

    fitted = 0
    for type_code in sorted(by_type):
        if type_code not in catalog:
            logger.warning("type %s missing from the performance catalog; skipped", type_code)
            continue
        try:
            model = generative.fit_type_model(catalog[type_code], by_type[type_code])
        except DataError as exc:
            logger.warning("type %s: %s; skipped", type_code, exc)
            continue
        generative.save_model(model, Path(args.out) / f"model_{type_code}.json")
        fitted += 1
        basis = model.basis
        print(f"fitted {type_code}: {model.n_flights_fit} flights, "
              f"{basis.n_modes} modes, ev={np.round(basis.explained_variance, 4).tolist()}")
    if fitted == 0:
        raise DataError("no type could be fitted")
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = generative.load_model(args.model)
    grid = model.basis.grid
    samples = generative.sample_blocks(model, args.count, args.seed)

    def blocks():   # one row per sample and grid node
        start = 0
        for values in samples:
            n = len(values)
            yield (pipeline.repeat_each([str(k) for k in range(start, start + n)], [grid.size] * n),
                   np.tile(grid, n), values.ravel())
            start += n
    path = Path(args.out) / f"samples_{model.type_code}.csv"
    pipeline.write_blocks(path, "sample_id,h_m,thrust_N", blocks())
    print(f"wrote {args.count} sampled profiles to {path}")
    return EXIT_OK


def _model_and_perf(args):
    """The model of ``--model`` and its type's performance record."""
    catalog = _load_catalog(args)
    model = generative.load_model(args.model)
    if model.type_code not in catalog:
        raise ValidationError(f"type {model.type_code} missing from the performance catalog")
    return model, catalog[model.type_code]


def _cmd_bounds(args) -> int:
    out = Path(args.out)
    model, perf = _model_and_perf(args)
    lower, upper = generative.bound_profiles(model, args.level)
    # the slow and fast bound climbs of generative.bound_trajectories, from
    # the envelope above, integrated before either file is written
    climbs = evaluation.model_climbs(perf, model.basis.grid, np.array([lower, upper]))
    climbs.raise_infeasible(["slow bound", "fast bound"])
    pipeline.write_blocks(out / f"bounds_thrust_{model.type_code}.csv", "h_m,lower_N,mean_N,upper_N",
                          [(model.basis.grid, lower, model.basis.mean, upper)])
    pipeline.write_blocks(out / f"bounds_time_{model.type_code}.csv", "h_m,t_fast_s,t_slow_s",
                          [(climbs.h, climbs.t[1], climbs.t[0])])
    print(f"wrote thrust and time bounds for {model.type_code} at level {args.level}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    out = Path(args.out)
    model, perf = _model_and_perf(args)
    grid = model.basis.grid
    climbs = evaluation.model_climbs(perf, grid, np.array(
        [model.basis.mean, performance.nominal_thrust(perf, grid)]))
    climbs.raise_infeasible(["mean", "nominal"])
    path = out / f"predict_{model.type_code}.csv"
    pipeline.write_blocks(path, "h_m,t_model_s,t_nominal_s", [(climbs.h, *climbs.t)])
    # the window's climbs always span the report levels
    (model_250, nominal_250), (model_325, nominal_325) = evaluation.arrival_columns(climbs).tolist()
    write_json(out / f"predict_{model.type_code}.json", {
        "type_code": model.type_code, "model_t_fl250_s": model_250, "model_t_fl325_s": model_325,
        "nominal_t_fl250_s": nominal_250, "nominal_t_fl325_s": nominal_325})
    print(f"wrote mean and nominal climb predictions to {path}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = Path(args.out)
    catalog = _load_catalog(args)
    model_dir = Path(args.model_dir)
    models, files = {}, {}
    for path in sorted(model_dir.glob("model_*.json")):
        model = generative.load_model(path)
        if model.type_code in files:
            raise ValidationError(f"{files[model.type_code]} and {path} both hold a model "
                                  f"of type {model.type_code}")
        models[model.type_code] = model
        files[model.type_code] = path
    if not models:
        raise ValidationError(f"no model_*.json files under {model_dir}")
    test_trajectories = pipeline.ingest(args.test)
    split_data = pipeline.DatasetSplit(train=[], test=test_trajectories)
    reports = evaluation.run_report(models, split_data, catalog, out,
                                    seed=args.seed, level=args.level)
    for report in reports:
        print(f"{report.type_code}: n_f={report.n_f} "
              f"mae325 model/nominal = {report.mae_fl325_model:.1f}/{report.mae_fl325_nominal:.1f} s, "
              f"kl = {report.kl_fl250:.3f}/{report.kl_fl325:.3f} nats, "
              f"coverage = {report.coverage_pct:.1f}%")
    n_types = len({tr.type_code for tr in test_trajectories})
    skipped = f"{n_types - len(reports)} of {n_types} type(s) skipped; see the warnings"
    if not reports:
        raise DataError(skipped)
    if len(reports) < n_types:
        print(f"warning: {skipped}")
    print(f"wrote {out / 'metrics_report.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climbgen",
        description="Learn and evaluate generative thrust corrections for climbing aircraft.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic radar dataset")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_common(p, perf=True, seed=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("prepare", help="ingest, filter climbs through the modeled window, "
                                       "and split train/test")
    p.add_argument("--csv", required=True, help="blip CSV file")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("fit", help="fit a generative model per aircraft type")
    p.add_argument("--train", required=True, help="training blip CSV")
    _add_common(p, perf=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="sample synthetic thrust profiles from a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--count", type=int, default=100, help="number of samples")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bounds", help="compute confidence envelopes and bound climbs")
    p.add_argument("--model", required=True, help="model JSON file")
    _add_common(p, perf=True, level=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("predict", help="mean-model and nominal climb predictions")
    p.add_argument("--model", required=True, help="model JSON file")
    _add_common(p, perf=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score models against a test dataset")
    p.add_argument("--model-dir", required=True, help="directory of model_*.json files")
    p.add_argument("--test", required=True, help="test blip CSV")
    _add_common(p, perf=True, seed=True, level=True)
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the call logs at its own CLIMBGEN_LOG level to the sys.stderr of the
    # call; the handler sits on the package logger, so the root logger's
    # handlers still get every record, and it goes when the call returns
    package = logging.getLogger("climbgen")
    level = package.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package.addHandler(handler)
    try:
        name = os.environ.get("CLIMBGEN_LOG") or "WARNING"
        if not isinstance(logging.getLevelName(name.upper()), int):   # before any output
            raise ValidationError(f"CLIMBGEN_LOG={name!r} names no logging level; "
                                  "use DEBUG, INFO, WARNING, ERROR or CRITICAL")
        package.setLevel(name.upper())
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:   # names the output it could not write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
