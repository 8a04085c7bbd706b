"""Extraction of per-flight effective thrust profiles from observed climb
rates, and the functional-PCA basis fitted to a set of profiles.

A climb rate is derived where it is read, by ``derive_rocd`` on the blips
at hand: central differences (one-sided at the ends), then a 3-point
median filter against altitude-quantization spikes.  It takes the joined
columns of many flights with their offsets, and no difference or median
spans two flights.

One code path profiles flights: ``flight_profiles`` profiles a block of
flights at once, with one ``derive_rocd``, one ``invert_thrust`` (so one
``dynamics.rate_factors`` call), one sort by flight and altitude to
average duplicate altitudes, then one interpolation per flight.  A flight
whose climb rate is not finite in the window is masked out of the
inversion and rejected by name; an error that no one flight causes is
raised once for the block.  It returns the accepted flights' thrust as
the rows of one array.
``generative.fit_type_model`` hands it the blocks of
``pipeline.flight_blocks``, at most ``pipeline.BLOCK_LINES`` blips each,
and joins the rows into the data matrix that ``fit_fpca`` decomposes
(Ramsay & Silverman 2005, ch. 8).  ``profile_from_flight`` is its
one-flight call.

The effective thrust absorbs thrust, mass, and speed-schedule
misspecification: it is whatever thrust makes the total-energy model
reproduce the observed climb rate at nominal mass and schedule speed.
Profiles live on a common altitude grid; the basis consists of the
pointwise mean plus discretized eigenfunctions that are orthonormal in
the trapezoidal quadrature inner product.  An eigenfunction's sign is
arbitrary; ``fit_fpca`` signs every mode at once by one array rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .atmosphere import FT, fl_to_m
from .dynamics import check_thrust, rate_factors
from .errors import DataError, DomainError

if TYPE_CHECKING:
    from .performance import AircraftPerformance
    from .pipeline import Trajectory

INTERVAL_FL = (150.0, 325.0)   # the modeled climb window, flight levels
GRID_SIZE = 100
MIN_PROFILE_BLIPS = 4
MIN_FIT_PROFILES = 10
MAX_COMPONENTS = 10
_KNEE_TOL = 1e-6


def default_grid() -> np.ndarray:
    """``GRID_SIZE`` equally spaced altitudes (metres) spanning the modeled
    window ``INTERVAL_FL``."""
    return np.linspace(fl_to_m(INTERVAL_FL[0]), fl_to_m(INTERVAL_FL[1]), GRID_SIZE)


def in_window(alt_ft: np.ndarray) -> np.ndarray:
    """Whether each altitude (ft) lies in the window ``INTERVAL_FL``, both ends included."""
    return (alt_ft >= INTERVAL_FL[0] * 100.0) & (alt_ft <= INTERVAL_FL[1] * 100.0)


def median3(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """3-point running median within each flight; each flight's end
    points pass through unchanged.

    ``offsets`` are the flights' first indices into ``x`` followed by its
    length, and no flight is empty.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    if x.size >= 3:
        a, b, c = x[:-2], x[1:-1], x[2:]
        # the median of three, exactly as np.median gives it for finite input
        out[1:-1] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    ends = np.concatenate((offsets[:-1], offsets[1:] - 1))
    out[ends] = x[ends]
    return out


def derive_rocd(t_s: np.ndarray, alt_ft: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Climb rate (ft/min) of each blip by central differences (one-sided
    at a flight's ends), median-filtered within each flight.

    ``offsets`` are the flights' first indices into the columns followed
    by their length.  Each flight has at least 2 blips, and no difference
    or median spans two flights.
    """
    first, last = offsets[:-1], offsets[1:] - 1
    r = np.empty(t_s.size)
    # the differences across two flights are overwritten below; their
    # times need not differ
    with np.errstate(divide="ignore", invalid="ignore"):
        r[1:-1] = (alt_ft[2:] - alt_ft[:-2]) / (t_s[2:] - t_s[:-2])
    r[first] = (alt_ft[first + 1] - alt_ft[first]) / (t_s[first + 1] - t_s[first])
    r[last] = (alt_ft[last] - alt_ft[last - 1]) / (t_s[last] - t_s[last - 1])
    return median3(r * 60.0, offsets)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for a strictly increasing grid."""
    w = np.empty_like(grid)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


@dataclass(eq=False)
class ThrustProfile:
    """Effective thrust (N) sampled on an ascending altitude grid (m)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        check_thrust(self.grid, self.values)


@dataclass(eq=False)
class FpcaBasis:
    """Mean function plus orthonormal modes on a common grid, and the
    spectrum of the covariance they diagonalize.

    ``modes`` has shape (n, n_g); each row satisfies the quadrature
    orthonormality ``sum_j w_j psi_i(h_j) psi_k(h_j) = delta_ik``.
    ``variance`` holds the retained modes' eigenvalues (N^2 m), which are
    also the variances of the fitted weight density ``N(0, diag(variance))``;
    ``total_variance`` is the sum of all eigenvalues, retained or not.
    Every value must be finite; a variance that is not positive raises
    ``DataError``.
    """

    grid: np.ndarray
    mean: np.ndarray
    modes: np.ndarray
    variance: np.ndarray
    total_variance: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        self.modes = np.atleast_2d(np.asarray(self.modes, dtype=float))
        self.variance = np.asarray(self.variance, dtype=float)
        self.total_variance = float(self.total_variance)
        if self.mean.shape != self.grid.shape or self.modes.shape[1] != self.grid.size:
            raise DomainError(f"basis arrays are dimensionally inconsistent: mean {self.mean.shape}, "
                              f"modes {self.modes.shape} on a grid of {self.grid.size} nodes")
        if self.variance.shape != (self.modes.shape[0],):
            raise DomainError("one variance entry per mode required")
        for name in ("grid", "mean", "modes", "variance", "total_variance"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"basis {name} must be finite")
        if np.any(self.variance <= 0.0):
            raise DataError("zero variance in a weight coordinate; retain fewer modes")

    @property
    def explained_variance(self) -> np.ndarray:
        """The retained modes' fractions of the total variance."""
        return self.variance / self.total_variance

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]


def invert_thrust(
    perf: "AircraftPerformance",
    mass: float,
    rocd_obs: float | np.ndarray,
    h: np.ndarray,
    delta_T: float = 0.0,
) -> np.ndarray:
    """Effective thrust that reproduces observed climb rates.

    The algebraic inverse of :func:`climbgen.dynamics.rocd` on the same
    rate factors (drag D and climb-rate gain k at the given mass and the
    schedule speed):

        T_hr = D + rocd / k

    so zero climb gives exactly the drag, ``performance.min_level_thrust``;
    factors no climb can use raise from ``rate_factors``.
    """
    r = np.asarray(rocd_obs, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("rocd_obs must be finite")
    d, k = rate_factors(perf, mass, h, delta_T)
    return d + r / k


def flight_profiles(
    perf: "AircraftPerformance",
    flight_ids: Sequence[str],
    t_s: np.ndarray,
    alt_ft: np.ndarray,
    offsets: np.ndarray,
    delta_T: float = 0.0,
) -> tuple[np.ndarray, list[DataError]]:
    """Effective thrust on ``default_grid()`` of the flights of joined blip
    columns: one row per accepted flight, in flight order, and the errors
    that reject the other flights, in flight order.

    ``offsets`` are the flights' first indices into ``t_s`` and ``alt_ft``
    followed by their length.  A flight needs ``MIN_PROFILE_BLIPS`` blips
    in the window, by ``in_window``.  ``derive_rocd`` gives the climb rates
    on each such flight's blips; a flight whose rate is not finite at a
    blip in the window (an altitude that is NaN or infinite) is rejected
    by a ``DataError`` that names it, and its samples are dropped.  The
    other flights' rates are inverted at their blips in the window by
    one ``invert_thrust`` call; then each flight's (altitude, thrust)
    samples, duplicate altitudes (quantization) averaged, are interpolated
    onto the grid, and outside the blip coverage the nearest value is
    held.  An error that no one flight causes, such as a climb-rate gain
    that is not positive at ``delta_T``, is raised, once.
    """
    grid = default_grid()
    offsets = np.asarray(offsets)
    sizes = np.diff(offsets)
    flight = np.repeat(np.arange(sizes.size), sizes)
    inside = in_window(alt_ft)
    n_inside = np.bincount(flight[inside], minlength=sizes.size)
    results: list = [
        DataError(f"flight {flight_id}: {n} blips in the altitude interval, "
                  f"need at least {MIN_PROFILE_BLIPS}")
        if n < MIN_PROFILE_BLIPS else None
        for flight_id, n in zip(flight_ids, n_inside.tolist())
    ]
    fitted = n_inside >= MIN_PROFILE_BLIPS
    rows = fitted[flight]
    rocd = derive_rocd(t_s[rows], alt_ft[rows], np.concatenate(([0], np.cumsum(sizes[fitted]))))
    inside &= rows   # the samples: the fitted flights' blips in the window
    h, flight, rocd_ms = alt_ft[inside] * FT, flight[inside], rocd[inside[rows]] * FT / 60.0
    n_bad = np.bincount(flight[~np.isfinite(rocd_ms)], minlength=sizes.size)
    for i in np.flatnonzero(n_bad).tolist():
        results[i] = DataError(f"flight {flight_ids[i]}: climb rate not finite at "
                               f"{n_bad[i]} blip(s) in the altitude interval")
    fitted &= n_bad == 0
    kept = fitted[flight]
    h, flight = h[kept], flight[kept]
    thrust = invert_thrust(perf, perf.nominal_mass, rocd_ms[kept], h, delta_T)
    # each flight's samples by altitude, each altitude's thrusts averaged
    order = np.lexsort((h, flight))
    h, flight, thrust = h[order], flight[order], thrust[order]
    start = np.flatnonzero((np.diff(h, prepend=np.nan) != 0.0) | (np.diff(flight, prepend=-1) != 0))
    thrust = np.add.reduceat(thrust, start) / np.diff(np.append(start, h.size))
    h, flight = h[start], flight[start]
    stops = np.cumsum(np.bincount(flight, minlength=sizes.size)).tolist()
    for i in np.flatnonzero(fitted).tolist():
        a, b = (stops[i - 1] if i else 0), stops[i]
        results[i] = (np.interp(grid, h[a:b], thrust[a:b]) if b - a >= 2 else
                      DataError(f"flight {flight_ids[i]}: blips collapse to a single altitude"))
    accepted = [r for r in results if isinstance(r, np.ndarray)]
    return (np.array(accepted).reshape(len(accepted), grid.size),
            [r for r in results if not isinstance(r, np.ndarray)])


def profile_from_flight(
    perf: "AircraftPerformance",
    traj: "Trajectory",
    delta_T: float = 0.0,
) -> ThrustProfile:
    """Effective thrust on ``default_grid()`` of one flight: the one-flight
    :func:`flight_profiles`; a rejected flight raises its error."""
    values, errors = flight_profiles(perf, [traj.flight_id], traj.t_s, traj.alt_ft,
                                     [0, traj.n_blips], delta_T)
    if errors:
        raise errors[0]
    return ThrustProfile(grid=default_grid(), values=values[0])


def select_components(explained_variance: Sequence[float]) -> int:
    """Number of components at the knee of the cumulative variance curve.

    The cumulative curve is normalized to the unit square and the knee is
    the maximum vertical distance above the diagonal.  When the curve has
    no knee (flat spectrum) the smallest count reaching 95% cumulative
    variance is used.  The result is clamped to [1, 10].
    """
    fracs = np.asarray(explained_variance, dtype=float)
    if fracs.size == 0:
        raise DomainError("explained_variance must be non-empty")
    if np.any(fracs < 0.0) or np.any(np.diff(fracs) > 1e-12):
        raise DomainError("explained_variance must be non-negative and non-increasing")
    if fracs.size == 1:
        return 1
    cumulative = np.cumsum(fracs)
    x = np.linspace(0.0, 1.0, fracs.size)
    span = cumulative[-1] - cumulative[0]
    if span <= 0.0:
        return 1
    y = (cumulative - cumulative[0]) / span
    diff = y - x
    knee = int(np.argmax(diff))
    if diff[knee] > _KNEE_TOL:
        n = knee + 1
    else:
        n = int(np.searchsorted(cumulative, 0.95 * cumulative[-1]) + 1)
    return int(min(max(n, 1), MAX_COMPONENTS))


def fit_fpca(grid: np.ndarray, values: np.ndarray, n_max: int = MAX_COMPONENTS) -> FpcaBasis:
    """Fit the mean, the orthonormal modes and their eigenvalues of a set
    of thrust profiles: ``values`` holds the thrust (N) of one profile per
    row on ``grid``, the data matrix of the fPCA.

    The grid and the values get the checks of ``ThrustProfile``.
    Eigen-decomposes the quadrature-weighted sample covariance (ddof 1)
    on the common grid; the retained count is min(n_max, knee of the
    cumulative curve of the eigenvalues' fractions of the total).  The
    profiles' ``project_weights`` then have sample mean 0 and sample
    covariance exactly ``diag(variance)``, the fPCA score identity
    (Ramsay & Silverman 2005, ch. 8), so the basis is also the fitted
    weight density.  The covariance is summed by ``np.einsum`` without
    BLAS, so the result does not depend on the BLAS thread count.
    A mode's sign is arbitrary, so one rule fixes it: the mode's
    quadrature integral is made positive when its magnitude exceeds
    1e-10 of the mode's largest magnitude, and otherwise the mode's first
    node above that threshold is made positive.  Profiles whose total
    variance is round-off raise ``DataError``.
    """
    grid = np.asarray(grid, dtype=float)
    x = np.asarray(values, dtype=float)
    if grid.ndim != 1 or x.ndim != 2 or x.shape[1] != grid.size:
        raise DomainError("values must hold one row per profile on the 1-d grid")
    check_thrust(grid, x)
    if len(x) < MIN_FIT_PROFILES:
        raise DomainError(f"need at least {MIN_FIT_PROFILES} profiles, got {len(x)}")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if n_max > len(x):
        raise DomainError(f"cannot request {n_max} modes from {len(x)} profiles")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = np.einsum("ij,ik->jk", centered, centered, optimize=False) / (x.shape[0] - 1)

    w = trapezoid_weights(grid)
    sqrt_w = np.sqrt(w)
    sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    sym = 0.5 * (sym + sym.T)
    evals, evecs = np.linalg.eigh(sym)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]

    total = float(evals.sum())
    # round-off floor: centering identical profiles leaves eigenvalue dust
    scale = float(np.mean(x**2)) * float(grid[-1] - grid[0])
    if total <= 1e-20 * max(scale, 1e-300):
        raise DataError("the thrust profiles have no variance")

    n_keep = min(n_max, select_components(evals / total), x.shape[0] - 1)
    # C order, so each row's integral is summed as a lone mode's would be
    modes = np.ascontiguousarray(evecs[:, :n_keep].T) / sqrt_w
    threshold = 1e-10 * np.max(np.abs(modes), axis=1)
    integral = np.sum(w * modes, axis=1)
    first_node = modes[np.arange(n_keep), np.argmax(np.abs(modes) > threshold[:, None], axis=1)]
    signed_by = np.where(np.abs(integral) > threshold, integral, first_node)
    modes *= np.where(signed_by < 0.0, -1.0, 1.0)[:, None]
    return FpcaBasis(grid=grid.copy(), mean=mean, modes=modes, variance=evals[:n_keep],
                     total_variance=total)


def project_weights(basis: FpcaBasis, profile: ThrustProfile) -> np.ndarray:
    """Least-squares weights of a profile in the basis.

    With orthonormal modes the quadrature-norm least-squares solution is
    the inner product of the centered profile with each mode.
    """
    if not np.array_equal(profile.grid, basis.grid):
        raise DomainError("profile grid does not match the basis grid")
    w = trapezoid_weights(basis.grid)
    centered = profile.values - basis.mean
    return basis.modes @ (w * centered)
