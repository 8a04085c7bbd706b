"""Arrival-time metrics, distribution distance, confidence-bound coverage,
and the per-type evaluation report.

All arrival times are zero-referenced at the flight's upward crossing of
the reference flight level ``REF_FL``, the bottom of the modeled window
``learning.INTERVAL_FL``, so observed, predicted, and sampled climbs share
a common origin.  The second report level is the window's top, and
coverage counts the test blips inside the window.

``model_climbs``, the climbs of a block of thrust profiles through the
modeled window at nominal mass, is the climb that every model query and
score uses, and ``arrival_columns`` reads a block's arrival times.
``evaluate_type`` scores one type and only then writes its five
plot-ready CSVs, so a type that raises writes none; ``run_report`` calls
it a type at a time and holds nothing of a type while it scores the
next.  Each type's thrust envelope is built once and reused by
``profiles_<type>.csv``.  CSV artifacts are written by
``pipeline.write_columns`` and JSON ones by ``errors.write_json``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atmosphere import FT, fl_to_m
# integrate_climb is bound here only because the benchmark's span table
# (bench/spans.py REQUIRED_BINDINGS) requires it
from .dynamics import (BLOCK_CLIMBS, ClimbBlock, ClimbTrajectory, integrate_climb,  # noqa: F401
                       integrate_climb_block)
from .errors import DataError, DomainError, InfeasibleClimbError, write_json
from .generative import GenerativeClimbModel, bound_profiles, sample_values
from .learning import INTERVAL_FL, ThrustProfile, default_grid
from .performance import AircraftPerformance, min_level_thrust, nominal_thrust
from .pipeline import DatasetSplit, Trajectory, repeat_each, write_columns

logger = logging.getLogger(__name__)

REF_FL = INTERVAL_FL[0]
REPORT_FLS = (250.0, INTERVAL_FL[1])
EXTRAP_TOL_FT = 500.0   # how far beyond the data a boundary crossing may be extrapolated
KDE_GRID_SIZE = 1024
KDE_PLOT_SIZE = 256     # points per flight level in kde_<type>.csv
DENSITY_FLOOR = 1e-12
MIN_KL_SAMPLES = 20
_WINDOW_M = (fl_to_m(INTERVAL_FL[0]), fl_to_m(INTERVAL_FL[1]))


@dataclass(frozen=True)
class ArrivalSample:
    """Zero-referenced arrival times (s) at the two report flight levels."""

    flight_id: str
    t_fl250: float
    t_fl325: float

    def __post_init__(self):
        if not self.t_fl250 < self.t_fl325:
            raise DomainError(
                f"{self.flight_id}: FL250 arrival {self.t_fl250} not before "
                f"FL325 arrival {self.t_fl325}"
            )


@dataclass(frozen=True)
class MetricsReport:
    """One evaluation row per aircraft type."""

    type_code: str
    n_f: int
    mae_fl250_model: float
    mae_fl250_nominal: float
    mae_fl325_model: float
    mae_fl325_nominal: float
    kl_fl250: float
    kl_fl325: float
    coverage_pct: float

    def __post_init__(self):
        values = (self.mae_fl250_model, self.mae_fl250_nominal,
                  self.mae_fl325_model, self.mae_fl325_nominal,
                  self.kl_fl250, self.kl_fl325)
        if any(v < 0.0 for v in values) or not 0.0 <= self.coverage_pct <= 100.0:
            raise DomainError(f"{self.type_code}: metrics out of range")


def _crossing(alt_ft: np.ndarray, target_ft: float):
    """How the time of the first upward crossing of ``target_ft`` is read
    from the times at the altitudes ``alt_ft``: a function of those times,
    along their first axis, so that one altitude column serves every
    column of a block of climbs' transposed times; None when the target is
    out of reach.

    The crossing is the first exact hit or the first segment that brackets
    the target, whichever comes first.  A segment that ends on the first
    exact hit counts as that hit.  When the data start just above / end
    just below the target (clipped trajectories), it is a short linear
    extrapolation from the boundary segment.
    """
    # Data that start above the target cross it only after their first
    # blip at or below it; from there, the first blip at or above the
    # target is the exact hit, or ends the first bracketing segment.
    start = 0
    if alt_ft[0] > target_ft:
        start = int(np.argmax(alt_ft <= target_ft))
    k = start + int(np.argmax(alt_ft[start:] >= target_ft))
    if alt_ft[start] <= target_ft <= alt_ft[k]:
        if alt_ft[k] == target_ft:
            return lambda t: t[k]
        frac = (target_ft - alt_ft[k - 1]) / (alt_ft[k] - alt_ft[k - 1])
        return lambda t: t[k - 1] + frac * (t[k] - t[k - 1])
    if alt_ft[0] > target_ft >= alt_ft[0] - EXTRAP_TOL_FT and alt_ft[1] > alt_ft[0]:
        rise, below = alt_ft[1] - alt_ft[0], alt_ft[0] - target_ft
        return lambda t: t[0] - (t[1] - t[0]) / rise * below
    if alt_ft[-1] < target_ft <= alt_ft[-1] + EXTRAP_TOL_FT and alt_ft[-1] > alt_ft[-2]:
        rise, above = alt_ft[-1] - alt_ft[-2], target_ft - alt_ft[-1]
        return lambda t: t[-1] + (t[-1] - t[-2]) / rise * above
    return None


def _crossing_time(t: np.ndarray, alt_ft: np.ndarray, target_ft: float) -> float | None:
    """Time of the first upward crossing of ``target_ft`` by one track, as
    ``_crossing`` reads it; None when the target is out of reach."""
    read = _crossing(alt_ft, target_ft)
    return None if read is None else float(read(t))


def arrival_columns(climbs: ClimbBlock) -> np.ndarray:
    """The arrival times of ``arrival_times`` for every climb of a block,
    one row per report flight level ``REPORT_FLS`` and one column per
    climb; no column when the climbs, which share their altitudes, do not
    span the levels.  Each crossing is located once on the shared
    altitudes and read from every row."""
    alt = climbs.h / FT
    reads = [_crossing(alt, fl * 100.0) for fl in (REF_FL, *REPORT_FLS)]
    if None in reads:
        return np.empty((len(REPORT_FLS), 0))
    t0 = reads[0](climbs.t.T)
    return np.array([read(climbs.t.T) - t0 for read in reads[1:]])


def arrival_times(traj: Trajectory | ClimbTrajectory) -> ArrivalSample | None:
    """Arrival times at the report flight levels ``REPORT_FLS``,
    zero-referenced at the ``REF_FL`` crossing; None when the trajectory
    does not span them."""
    if isinstance(traj, ClimbTrajectory):
        t, alt, flight_id = traj.t, traj.h / FT, "model"
    else:
        t, alt, flight_id = traj.t_s, traj.alt_ft, traj.flight_id
    if t.size < 2:
        return None
    t0 = _crossing_time(t, alt, REF_FL * 100.0)
    if t0 is None:
        return None
    times = []
    for fl in REPORT_FLS:
        tq = _crossing_time(t, alt, fl * 100.0)
        if tq is None:
            return None
        times.append(tq - t0)
    return ArrivalSample(flight_id=flight_id, t_fl250=times[0], t_fl325=times[1])


def mae(predicted: float | np.ndarray, observed: np.ndarray) -> float:
    """Mean absolute error between predictions and observations (s)."""
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0:
        raise DataError("mae: empty observation set")
    pred = np.broadcast_to(np.asarray(predicted, dtype=float), obs.shape)
    return float(np.mean(np.abs(pred - obs)))


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Silverman's rule-of-thumb bandwidth for a Gaussian KDE."""
    s = np.asarray(sample, dtype=float)
    std = float(np.std(s, ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    if scale <= 0.0:
        raise DataError("degenerate (zero-variance) sample")
    return 0.9 * scale * s.size ** (-0.2)


def kde_density(sample: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density of a sample evaluated on a grid."""
    z = (grid[:, None] - sample[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (sample.size * bandwidth * np.sqrt(2.0 * np.pi))
    return dens


def _kde_pair(p: np.ndarray, q: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A shared grid of ``size`` points and the kernel densities of ``p``
    and ``q`` on it.

    Each density uses its sample's Silverman bandwidth; the grid spans both
    samples plus three of the larger bandwidth on either side.
    """
    bw_p = silverman_bandwidth(p)
    bw_q = silverman_bandwidth(q)
    pad = 3.0 * max(bw_p, bw_q)
    grid = np.linspace(min(p.min(), q.min()) - pad, max(p.max(), q.max()) + pad, size)
    return grid, kde_density(p, grid, bw_p), kde_density(q, grid, bw_q)


def kl_divergence(sample_p: np.ndarray, sample_q: np.ndarray) -> float:
    """KL(P || Q) in nats between kernel density estimates of two samples.

    The densities of ``_kde_pair`` on ``KDE_GRID_SIZE`` points are floored
    at 1e-12 before integrating by the trapezoidal rule.
    """
    p = np.asarray(sample_p, dtype=float)
    q = np.asarray(sample_q, dtype=float)
    if p.size < MIN_KL_SAMPLES or q.size < MIN_KL_SAMPLES:
        raise DataError(f"kl_divergence: need at least {MIN_KL_SAMPLES} points per sample")
    grid, dens_p, dens_q = _kde_pair(p, q, KDE_GRID_SIZE)
    dens_p = np.maximum(dens_p, DENSITY_FLOOR)
    dens_q = np.maximum(dens_q, DENSITY_FLOOR)
    kl = float(np.trapezoid(dens_p * np.log(dens_p / dens_q), grid))
    return max(kl, 0.0)   # quadrature truncation can dip epsilon-negative


def coverage(
    test_trajectories: list[Trajectory],
    slow: ClimbTrajectory,
    fast: ClimbTrajectory,
) -> float:
    """Percentage of the test blips inside ``INTERVAL_FL`` whose time,
    zero-referenced at the ``REF_FL`` crossing, lies within
    [fast.t(alt), slow.t(alt)]."""
    low_ft, high_ft = INTERVAL_FL[0] * 100.0, INTERVAL_FL[1] * 100.0
    inside = 0
    total = 0
    for tr in test_trajectories:
        t0 = _crossing_time(tr.t_s, tr.alt_ft, REF_FL * 100.0)
        if t0 is None:
            logger.warning("coverage: flight %s has no FL%.0f crossing; skipped",
                           tr.flight_id, REF_FL)
            continue
        mask = (tr.alt_ft >= low_ft) & (tr.alt_ft <= high_ft)
        if not np.any(mask):
            continue
        alt_m = tr.alt_ft[mask] * FT
        tau = tr.t_s[mask] - t0
        t_fast = fast.time_at(alt_m)
        t_slow = slow.time_at(alt_m)
        eps = 1e-9
        inside += int(np.count_nonzero((tau >= t_fast - eps) & (tau <= t_slow + eps)))
        total += int(np.count_nonzero(mask))
    if total == 0:
        raise DataError("coverage: no test blips inside the interval")
    return 100.0 * inside / total


# metrics_report.csv: (column, MetricsReport field, format) per column
_REPORT_COLUMNS = (
    ("type_code", "type_code", "{}"),
    ("n_f", "n_f", "{}"),
    ("mae_fl250_model_s", "mae_fl250_model", "{:.4f}"),
    ("mae_fl250_nominal_s", "mae_fl250_nominal", "{:.4f}"),
    ("mae_fl325_model_s", "mae_fl325_model", "{:.4f}"),
    ("mae_fl325_nominal_s", "mae_fl325_nominal", "{:.4f}"),
    ("kl_fl250_nats", "kl_fl250", "{:.6f}"),
    ("kl_fl325_nats", "kl_fl325", "{:.6f}"),
    ("coverage_pct", "coverage_pct", "{:.4f}"),
)
REPORT_HEADER = ",".join(column for column, _, _ in _REPORT_COLUMNS)


def nominal_profile(perf: AircraftPerformance) -> ThrustProfile:
    """The nominal max-climb thrust of ``perf`` on ``learning.default_grid()``."""
    grid = default_grid()
    return ThrustProfile(grid, nominal_thrust(perf, grid))


def model_climbs(perf: AircraftPerformance, grid: np.ndarray, values: np.ndarray) -> ClimbBlock:
    """The climbs that the rows of ``values``, thrust on ``grid``, drive
    through the modeled window ``INTERVAL_FL`` at ``perf.nominal_mass``, as
    one block: the climbs that every prediction, bound and score
    integrates.  An infeasible climb is flagged, and
    ``ClimbBlock.raise_infeasible`` raises the first one's error."""
    return integrate_climb_block(perf, perf.nominal_mass, grid, values, *_WINDOW_M)


def evaluate_type(
    model: GenerativeClimbModel,
    perf: AircraftPerformance,
    test_trajectories: list[Trajectory],
    out: str | Path,
    seed: int,
    level: float = 0.95,
) -> MetricsReport:
    """Score one aircraft type, then write its five plot-ready CSVs
    (``profiles``, ``sampled_thrust``, ``trajectories_model``,
    ``arrivals_test`` and ``kde_<type>.csv``) under ``out``.

    Every climb is integrated and the report built before the first file
    is written, so a type that raises writes none.  The mean, nominal,
    lower and upper envelope climbs are one block of ``model_climbs``; the
    sampled profiles (``generative.sample_values``) are integrated
    ``dynamics.BLOCK_CLIMBS`` rows at a time.  The first infeasible row of
    a block raises its ``InfeasibleClimbError``.  Arrival times are read as
    columns of each block by ``arrival_columns``, and a sampled climb is
    kept only as its arrival times and a copy of every tenth node.
    """
    code = model.type_code
    grid = model.basis.grid
    nominal = nominal_profile(perf)
    # the bound climbs of generative.bound_trajectories, keeping the envelope
    lower, upper = bound_profiles(model, level)
    climbs = model_climbs(perf, grid, np.array([model.basis.mean, nominal.values,
                                                lower.values, upper.values]))
    climbs.raise_infeasible()

    observed = []
    for tr in test_trajectories:
        sample = arrival_times(tr)
        if sample is None:
            logger.warning("flight %s does not span the report levels; excluded", tr.flight_id)
            continue
        observed.append(sample)
    if not observed:
        raise DataError(f"{code}: no test flight spans the report levels")
    obs250 = np.array([s.t_fl250 for s in observed])
    obs325 = np.array([s.t_fl325 for s in observed])

    predicted = arrival_columns(climbs)   # model, nominal, lower, upper
    if not predicted.size:
        raise DataError(f"{code}: model trajectories do not span the report levels")

    curves = [(name, climbs.h, t) for name, t in
              zip(("mean_traj", "nominal_traj", "slow", "fast"), climbs.t)]
    slow, fast = (ClimbTrajectory(t=t, h=climbs.h) for t in climbs.t[2:])
    samples = sample_values(model, len(observed), seed)
    generated = []
    for start in range(0, len(samples), BLOCK_CLIMBS):
        block = model_climbs(perf, grid, samples[start:start + BLOCK_CLIMBS])
        block.raise_infeasible()
        # copies: a slice is a view that would keep the whole block alive
        h, t = block.h[::10].copy(), block.t[:, ::10].copy()
        curves += [(f"sample_{start + k}", h, row) for k, row in enumerate(t)]
        generated.append(arrival_columns(block))
    gen250, gen325 = np.concatenate(generated, axis=1)

    report = MetricsReport(
        type_code=code,
        n_f=model.n_flights_fit,
        mae_fl250_model=mae(predicted[0, 0], obs250),
        mae_fl250_nominal=mae(predicted[0, 1], obs250),
        mae_fl325_model=mae(predicted[1, 0], obs325),
        mae_fl325_nominal=mae(predicted[1, 1], obs325),
        kl_fl250=kl_divergence(obs250, gen250),
        kl_fl325=kl_divergence(obs325, gen325),
        coverage_pct=coverage(test_trajectories, slow, fast),
    )

    out = Path(out)
    write_columns(
        out / f"profiles_{code}.csv", "h_m,mean_N,lower_N,upper_N,nominal_N,min_level_N",
        grid, model.mean_profile().values, lower.values, upper.values,
        nominal.values, min_level_thrust(perf, grid),
    )
    write_samples_csv(out / f"sampled_thrust_{code}.csv", grid, samples)
    names, h, t = zip(*curves)
    write_columns(
        out / f"trajectories_model_{code}.csv", "series,h_m,t_s",
        repeat_each(names, [x.size for x in h]), np.concatenate(h), np.concatenate(t),
    )
    write_columns(
        out / f"arrivals_test_{code}.csv", "flight_id,t_s,alt_ft",
        repeat_each([s.flight_id for s in observed], [2] * len(observed)),
        np.column_stack((obs250, obs325)).ravel(),
        [repr(fl * 100.0) for fl in REPORT_FLS] * len(observed),
    )
    kde = [_kde_pair(obs250, gen250, KDE_PLOT_SIZE), _kde_pair(obs325, gen325, KDE_PLOT_SIZE)]
    write_columns(
        out / f"kde_{code}.csv", "fl,t_s,density_test,density_generated",
        repeat_each([f"{fl:.0f}" for fl in REPORT_FLS], [KDE_PLOT_SIZE] * len(REPORT_FLS)),
        *(np.concatenate(column) for column in zip(*kde)),
    )
    return report


def run_report(
    models: dict[str, GenerativeClimbModel],
    split_data: DatasetSplit,
    catalog: dict[str, AircraftPerformance],
    out_dir: str | Path,
    seed: int = 0,
    level: float = 0.95,
) -> list[MetricsReport]:
    """Evaluate every test-set type with a fitted model, one type at a
    time: ``evaluate_type`` writes each type's plot-ready CSVs under
    out_dir once the type is scored, and nothing of a type is held while
    the next is scored.  A type whose bound climb is unbounded is skipped
    and writes no file.  Last comes the metrics table (CSV + JSON twin)."""
    out = Path(out_dir)

    by_type: dict[str, list[Trajectory]] = {}
    for tr in split_data.test:
        by_type.setdefault(tr.type_code, []).append(tr)

    reports = []
    for index, type_code in enumerate(sorted(by_type)):
        if type_code not in models:
            logger.warning("no fitted model for type %s; row skipped", type_code)
            continue
        if type_code not in catalog:
            logger.warning("no performance record for type %s; row skipped", type_code)
            continue
        try:
            reports.append(evaluate_type(models[type_code], catalog[type_code],
                                         by_type[type_code], out, seed=seed + index, level=level))
        except InfeasibleClimbError as exc:
            logger.warning("type %s: bound climb unbounded (%s); row skipped",
                           type_code, exc)

    reports.sort(key=lambda r: (-r.n_f, r.type_code))
    write_columns(out / "metrics_report.csv", REPORT_HEADER,
                  *([fmt.format(getattr(r, field)) for r in reports]
                    for _, field, fmt in _REPORT_COLUMNS))
    write_json(out / "metrics_report.json", [r.__dict__ for r in reports])
    if not reports:
        logger.warning("run_report: empty test set or no evaluable types")
    return reports


def write_samples_csv(path: str | Path, grid: np.ndarray, values: np.ndarray) -> None:
    """Sampled thrust profiles, thrust on ``grid`` one sample per row of
    ``values``, as one CSV row per sample and grid node."""
    write_columns(
        path, "sample_id,h_m,thrust_N",
        repeat_each([str(s) for s in range(len(values))], [grid.size] * len(values)),
        np.tile(grid, len(values)),
        values.ravel(),
    )
