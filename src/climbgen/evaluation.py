"""Arrival-time metrics, distribution distance, confidence-bound coverage,
and the per-type evaluation report.

All arrival times are zero-referenced at the flight's upward crossing of
the reference flight level ``REF_FL``, the bottom of the modeled window
``learning.INTERVAL_FL``, so observed, predicted, and sampled climbs share
a common origin.  The second report level is the window's top, and
coverage counts the test blips inside the window from that crossing on.

``model_climbs``, the climbs of a block of thrust profiles through the
modeled window at nominal mass, is the climb that every model query and
score uses.  One reader locates every crossing: ``_crossing`` finds a
level's crossing on a track's altitudes once and reads its time along
the first axis of the times, so a block of climbs, which share their
altitudes, is read a column per climb (``arrival_columns``), and one
observed flight or one climb is a one-column block (``arrival_times``,
``coverage``).  The MAE and the KL read the test flights that cross
``REF_FL``, FL250 and then FL325: ``evaluate_type`` reads each flight
once, and that read gives its arrivals or its reason for exclusion.
Coverage reads each flight's window blips at or after its ``REF_FL``
crossing.  A track of fewer than two blips has no crossing.  A flight
that a metric cannot read is skipped, not fatal, and logged once per
type and reason, with the count and the first three ids: the MAE and
the KL name the flights that miss a level apart from those that cross
the levels out of order, and coverage names the flights without a
crossing apart from those with window blips before it, which it leaves
out.

``evaluate_type`` scores one type and only then writes its three
plot-ready CSVs, so a type that raises writes none; ``run_report`` calls
it a type at a time and holds nothing of a type while it scores the
next.  Each type's thrust envelope is built once, as two arrays on the
model's own grid, beside its mean and the nominal thrust on that grid.
A kernel density is summed over chunks of grid points, so neither it nor
the KL divergence holds a (grid, sample) matrix.  CSV artifacts are
written by ``pipeline.write_blocks`` and JSON ones by
``errors.write_json``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atmosphere import FT, fl_to_m
# integrate_climb is bound here only because the benchmark's span table
# (bench/spans.py REQUIRED_BINDINGS) requires it
from .dynamics import (ClimbBlock, ClimbTrajectory, integrate_climb,  # noqa: F401
                       integrate_climb_block)
from .errors import DataError, DomainError, write_json
from .generative import GenerativeClimbModel, bound_profiles, sample_blocks
from .learning import INTERVAL_FL, in_window
from .performance import AircraftPerformance, min_level_thrust, nominal_thrust
from .pipeline import DatasetSplit, Trajectory, repeat_each, write_blocks

logger = logging.getLogger(__name__)

REF_FL = INTERVAL_FL[0]
REPORT_FLS = (250.0, INTERVAL_FL[1])
EXTRAP_TOL_FT = 500.0   # how far beyond the data a boundary crossing may be extrapolated
KDE_GRID_SIZE = 1024
KDE_PLOT_SIZE = 256     # points per flight level in kde_<type>.csv
DENSITY_FLOOR = 1e-12
MIN_KL_SAMPLES = 20
_KDE_CHUNK_CELLS = 1 << 16   # kernel values summed at once: bounds a KDE's memory
_WINDOW_M = (fl_to_m(INTERVAL_FL[0]), fl_to_m(INTERVAL_FL[1]))


@dataclass(frozen=True)
class ArrivalSample:
    """Zero-referenced arrival times (s) at the two report flight levels,
    the first before the second, as ``arrival_times`` reads them."""

    t_fl250: float
    t_fl325: float


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
    out of reach or the track has fewer than two blips.

    The crossing is the first exact hit or the first segment that brackets
    the target, whichever comes first.  A segment that ends on the first
    exact hit counts as that hit.  When the data start just above / end
    just below the target (clipped trajectories), it is a short linear
    extrapolation from the boundary segment.
    """
    if alt_ft.size < 2:
        return None
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


def _arrivals(alt_ft: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    """Arrival times at the report flight levels ``REPORT_FLS``,
    zero-referenced at the ``REF_FL`` crossing, of tracks that share the
    altitudes ``alt_ft``: one row per level, read along the first axis of
    ``t`` (one track's times, or one column per climb).  None when the
    altitudes do not span the levels.  Each crossing is located once on
    the shared altitudes."""
    reads = [_crossing(alt_ft, fl * 100.0) for fl in (REF_FL, *REPORT_FLS)]
    if None in reads:
        return None
    t0 = reads[0](t)
    return np.array([read(t) - t0 for read in reads[1:]])


def arrival_columns(climbs: ClimbBlock) -> np.ndarray:
    """The arrival times of ``arrival_times`` for every climb of a block,
    one row per report flight level ``REPORT_FLS`` and one column per
    climb; no column when the climbs do not span the levels."""
    times = _arrivals(climbs.h / FT, climbs.t.T)
    return np.empty((len(REPORT_FLS), 0)) if times is None else times


def arrival_times(traj: Trajectory | ClimbTrajectory) -> ArrivalSample | None:
    """Arrival times at the report flight levels ``REPORT_FLS``,
    zero-referenced at the ``REF_FL`` crossing; None when the trajectory
    does not cross the levels in order: it misses one, or its FL325
    arrival does not follow its FL250 arrival.  One track is read as a
    one-climb block is."""
    times = (_arrivals(traj.h / FT, traj.t) if isinstance(traj, ClimbTrajectory)
             else _arrivals(traj.alt_ft, traj.t_s))
    if times is None or not times[0] < times[1]:
        return None
    return ArrivalSample(t_fl250=float(times[0]), t_fl325=float(times[1]))


def mae(predicted: float | np.ndarray, observed: np.ndarray) -> float:
    """Mean absolute error between predictions and observations (s)."""
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0:
        raise DataError("mae: empty observation set")
    pred = np.broadcast_to(np.asarray(predicted, dtype=float), obs.shape)
    return float(np.mean(np.abs(pred - obs)))


def _quartiles(s: np.ndarray) -> np.ndarray:
    """``np.percentile(s, [75, 25])`` bit for bit, by its linear method and
    arithmetic, without the ``numpy.ma`` import that it makes."""
    at = (s.size - 1) * np.array([0.75, 0.25])
    below = np.floor(at).astype(np.intp)
    above = np.minimum(below + 1, s.size - 1)
    part = np.partition(s, np.concatenate((below, above)))
    low, high, gamma = part[below], part[above], at - below
    step = high - low
    return np.where(gamma >= 0.5, high - step * (1 - gamma), low + step * gamma)


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Silverman's rule-of-thumb bandwidth for a Gaussian KDE."""
    s = np.asarray(sample, dtype=float)
    std = float(np.std(s, ddof=1))
    q75, q25 = _quartiles(s)
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    if scale <= 0.0:
        raise DataError("degenerate (zero-variance) sample")
    return 0.9 * scale * s.size ** (-0.2)


def kde_density(sample: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density of a sample evaluated on a grid.

    The kernel is summed over chunks of grid points of about
    ``_KDE_CHUNK_CELLS`` kernel values, not over one (grid, sample) matrix,
    so the memory held does not grow with the sample.  Each point's sum
    runs over the whole sample in one row, as the one-matrix sum does, so
    the density is the same bit for bit.
    """
    step = max(1, _KDE_CHUNK_CELLS // max(sample.size, 1))
    sums = np.empty(grid.size)
    for start in range(0, grid.size, step):
        z = (grid[start:start + step, None] - sample[None, :]) / bandwidth
        sums[start:start + step] = np.exp(-0.5 * z * z).sum(axis=1)
    return sums / (sample.size * bandwidth * np.sqrt(2.0 * np.pi))


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


def _warn_skipped(flights: list[Trajectory], reason: str) -> None:
    """One warning for the test flights of one type skipped for one reason:
    their count and the first three ids."""
    if flights:
        logger.warning("type %s: %d test flight(s) %s (first: %s)", flights[0].type_code,
                       len(flights), reason, ", ".join(tr.flight_id for tr in flights[:3]))


def coverage(
    test_trajectories: list[Trajectory],
    slow: ClimbTrajectory,
    fast: ClimbTrajectory,
) -> float:
    """Percentage of the test blips inside ``INTERVAL_FL``, at or after
    their flight's ``REF_FL`` crossing, whose time, zero-referenced at that
    crossing, lies within [fast.t(alt), slow.t(alt)].  Each flight's
    crossing is read on its own; the band is read once, at every such blip.
    Flights without a crossing are skipped, with one warning, and flights
    with blips inside the interval before their crossing are named in
    another."""
    alts, taus, skipped, early = [np.empty(0)], [np.empty(0)], [], []
    for tr in test_trajectories:
        read = _crossing(tr.alt_ft, REF_FL * 100.0)
        if read is None:
            skipped.append(tr)
            continue
        t0 = read(tr.t_s)
        inside = in_window(tr.alt_ft)
        mask = inside & (tr.t_s >= t0)
        if np.count_nonzero(mask) < np.count_nonzero(inside):
            early.append(tr)
        alts.append(tr.alt_ft[mask])
        taus.append(tr.t_s[mask] - t0)
    _warn_skipped(skipped, f"have no FL{REF_FL:.0f} crossing; skipped from coverage")
    _warn_skipped(early, f"have window blips before their FL{REF_FL:.0f} crossing; "
                         "those blips skipped from coverage")
    alt_m, tau = np.concatenate(alts) * FT, np.concatenate(taus)
    if not tau.size:
        raise DataError("coverage: no test blips inside the interval")
    eps = 1e-9
    inside = int(np.count_nonzero((tau >= fast.time_at(alt_m) - eps)
                                  & (tau <= slow.time_at(alt_m) + eps)))
    return 100.0 * inside / tau.size


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


def model_climbs(perf: AircraftPerformance, grid: np.ndarray, values: np.ndarray) -> ClimbBlock:
    """The climbs that the rows of ``values``, thrust on ``grid``, drive
    through the modeled window ``INTERVAL_FL`` at ``perf.nominal_mass``, as
    one block: the climbs that every prediction, bound and score
    integrates.  An infeasible climb is flagged, and
    ``ClimbBlock.raise_infeasible`` raises the first one's error, naming
    that climb."""
    return integrate_climb_block(perf, perf.nominal_mass, grid, values, *_WINDOW_M)


def evaluate_type(
    model: GenerativeClimbModel,
    perf: AircraftPerformance,
    test_trajectories: list[Trajectory],
    out: str | Path,
    seed: int,
    level: float = 0.95,
) -> MetricsReport:
    """Score one aircraft type, then write its three plot-ready CSVs
    (``profiles``, ``arrivals_test`` and ``kde_<type>.csv``) under ``out``;
    a type that raises writes none.

    The mean, nominal, lower and upper envelope climbs are one block of
    ``model_climbs``; the sampled profiles are integrated a block of
    ``generative.sample_blocks`` at a time, as each is drawn, and the first
    infeasible row of a block raises its ``InfeasibleClimbError``, which
    names the climb: the mean, nominal, lower-envelope or upper-envelope
    climb, or sample *k*, counted from 0.  A sampled climb is kept only as
    its arrival times.
    """
    code = model.type_code
    grid = model.basis.grid
    nominal = nominal_thrust(perf, grid)
    # the bound climbs of generative.bound_trajectories, keeping the envelope
    lower, upper = bound_profiles(model, level)
    climbs = model_climbs(perf, grid, np.array([model.basis.mean, nominal, lower, upper]))
    climbs.raise_infeasible(["mean", "nominal", "lower-envelope", "upper-envelope"])

    reads = [_arrivals(tr.alt_ft, tr.t_s) for tr in test_trajectories]
    in_order = [times is not None and times[0] < times[1] for times in reads]
    levels = ", ".join(f"FL{fl:.0f}" for fl in (REF_FL, *REPORT_FLS))
    _warn_skipped([tr for tr, times in zip(test_trajectories, reads) if times is None],
                  f"miss one of {levels}; excluded")
    _warn_skipped([tr for tr, times, ok in zip(test_trajectories, reads, in_order)
                   if times is not None and not ok],
                  "cross the report levels out of order; excluded")
    if not any(in_order):
        raise DataError("no test flight crosses the report levels in order")
    ids = [tr.flight_id for tr, ok in zip(test_trajectories, in_order) if ok]
    obs250, obs325 = np.array([times for times, ok in zip(reads, in_order) if ok]).T.copy()

    # the window's climbs always span the report levels
    predicted = arrival_columns(climbs)   # model, nominal, lower, upper
    slow, fast = (ClimbTrajectory(t=t, h=climbs.h) for t in climbs.t[2:])
    generated, start = [], 0
    for values in sample_blocks(model, len(ids), seed):
        block = model_climbs(perf, grid, values)
        block.raise_infeasible([f"sample {start + k}" for k in range(len(values))])
        generated.append(arrival_columns(block))
        start += len(values)
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
    write_blocks(
        out / f"profiles_{code}.csv", "h_m,mean_N,lower_N,upper_N,nominal_N,min_level_N",
        [(grid, model.basis.mean, lower, upper, nominal, min_level_thrust(perf, grid))],
    )
    write_blocks(
        out / f"arrivals_test_{code}.csv", "flight_id,t_s,alt_ft",
        [(repeat_each(ids, [2] * len(ids)),
          np.column_stack((obs250, obs325)).ravel(),
          [repr(fl * 100.0) for fl in REPORT_FLS] * len(ids))],
    )
    kde = [_kde_pair(obs250, gen250, KDE_PLOT_SIZE), _kde_pair(obs325, gen325, KDE_PLOT_SIZE)]
    write_blocks(
        out / f"kde_{code}.csv", "fl,t_s,density_test,density_generated",
        [(repeat_each([f"{fl:.0f}" for fl in REPORT_FLS], [KDE_PLOT_SIZE] * len(REPORT_FLS)),
          *(np.concatenate(column) for column in zip(*kde)))],
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
    the next is scored.  A type whose scoring raises a ``DataError`` is
    skipped with one warning and writes no file.  Last comes the metrics
    table (CSV + JSON twin), written only when it holds a row."""
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
        except DataError as exc:
            logger.warning("type %s: %s; row skipped", type_code, exc)

    if not reports:
        logger.warning("run_report: empty test set or no evaluable types; no report written")
        return reports
    reports.sort(key=lambda r: (-r.n_f, r.type_code))
    write_blocks(out / "metrics_report.csv", REPORT_HEADER,
                 [tuple([fmt.format(getattr(r, field)) for r in reports]
                        for _, field, fmt in _REPORT_COLUMNS)])
    write_json(out / "metrics_report.json", [r.__dict__ for r in reports])
    return reports

