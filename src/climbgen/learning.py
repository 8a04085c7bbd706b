"""Extraction of per-flight effective thrust profiles from observed climb
rates, and the functional-PCA basis fitted to a set of profiles.

A climb rate is derived where it is read, by ``derive_rocd`` on the blips
at hand: central differences (one-sided at the ends), then a 3-point
median filter against altitude-quantization spikes.

The effective thrust absorbs thrust, mass, and speed-schedule
misspecification: it is whatever thrust makes the total-energy model
reproduce the observed climb rate at nominal mass and schedule speed.
Profiles live on a common altitude grid; the basis consists of the
pointwise mean plus discretized eigenfunctions that are orthonormal in
the trapezoidal quadrature inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .atmosphere import FT, fl_to_m
from .dynamics import rate_factors
from .errors import DegenerateConditionError, DegenerateModelError, DomainError, FlightRejectedError

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


def median3(x: np.ndarray) -> np.ndarray:
    """3-point running median; endpoints pass through unchanged."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    if x.size >= 3:
        a, b, c = x[:-2], x[1:-1], x[2:]
        # the median of three, exactly as np.median gives it for finite input
        out[1:-1] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return out


def derive_rocd(t_s: np.ndarray, alt_ft: np.ndarray) -> np.ndarray:
    """Climb rate (ft/min) of at least 2 blips by central differences,
    median-filtered."""
    n = t_s.size
    r = np.empty(n)
    r[0] = (alt_ft[1] - alt_ft[0]) / (t_s[1] - t_s[0])
    r[-1] = (alt_ft[-1] - alt_ft[-2]) / (t_s[-1] - t_s[-2])
    if n > 2:
        r[1:-1] = (alt_ft[2:] - alt_ft[:-2]) / (t_s[2:] - t_s[:-2])
    return median3(r * 60.0)


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
        if self.grid.size < 2 or np.any(np.diff(self.grid) <= 0.0):
            raise DomainError("grid must be strictly increasing with at least 2 nodes")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("thrust values must be finite")


@dataclass(eq=False)
class FpcaBasis:
    """Mean function plus orthonormal modes on a common grid.

    ``modes`` has shape (n, n_g); each row satisfies the quadrature
    orthonormality ``sum_j w_j psi_i(h_j) psi_k(h_j) = delta_ik``.
    ``explained_variance`` holds the retained modes' fractions of total
    variance, non-increasing.  Every array must be finite.
    """

    grid: np.ndarray
    mean: np.ndarray
    modes: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        self.modes = np.atleast_2d(np.asarray(self.modes, dtype=float))
        self.explained_variance = np.asarray(self.explained_variance, dtype=float)
        if self.mean.shape != self.grid.shape or self.modes.shape[1] != self.grid.size:
            raise DomainError("basis arrays are dimensionally inconsistent")
        if self.explained_variance.shape != (self.modes.shape[0],):
            raise DomainError("one explained-variance entry per mode required")
        for name in ("grid", "mean", "modes", "explained_variance"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"basis {name} must be finite")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    def reconstruct(self, weights: np.ndarray) -> np.ndarray:
        """Evaluate mean + sum_i w_i psi_i on the grid."""
        return self.mean + np.asarray(weights, dtype=float) @ self.modes


def invert_thrust(
    perf: "AircraftPerformance",
    mass: float,
    rocd_obs: float | np.ndarray,
    h: float | np.ndarray,
    delta_T: float = 0.0,
) -> float | np.ndarray:
    """Effective thrust that reproduces an observed climb rate.

    The algebraic inverse of :func:`climbgen.dynamics.rocd` on the same
    rate factors (drag D and climb-rate gain k at the given mass and the
    schedule speed):

        T_hr = D + rocd / k

    so zero climb gives exactly the drag,
    :func:`climbgen.performance.min_level_thrust`.
    """
    r = np.asarray(rocd_obs, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("rocd_obs must be finite")
    d, k = rate_factors(perf, mass, h, delta_T)
    if not np.all(k > 0.0):
        raise DegenerateConditionError("climb-rate gain is not positive")
    t = d + r / k
    return float(t) if np.ndim(t) == 0 else t


def profile_from_flight(
    perf: "AircraftPerformance",
    traj: "Trajectory",
    delta_T: float = 0.0,
) -> ThrustProfile:
    """Per-flight effective thrust on ``default_grid()``.

    Inverts the climb rates ``derive_rocd`` gives on the flight's blips at
    every blip inside the grid's altitude span, then interpolates the
    (altitude, thrust) samples onto the grid; outside the blip coverage
    the nearest value is held.
    Duplicate altitudes (quantization) are averaged before interpolation.
    """
    grid = default_grid()
    alt_m = traj.alt_ft * FT
    inside = (alt_m >= grid[0] - 1e-9) & (alt_m <= grid[-1] + 1e-9)
    n_inside = int(np.count_nonzero(inside))
    if n_inside < MIN_PROFILE_BLIPS:
        raise FlightRejectedError(
            f"flight {traj.flight_id}: {n_inside} blips in the altitude "
            f"interval, need at least {MIN_PROFILE_BLIPS}"
        )
    h = alt_m[inside]
    rocd_ms = derive_rocd(traj.t_s, traj.alt_ft)[inside] * FT / 60.0
    thrust = invert_thrust(perf, perf.nominal_mass, rocd_ms, h, delta_T)

    order = np.argsort(h, kind="stable")
    h_sorted = h[order]
    t_sorted = np.asarray(thrust)[order]
    uniq, start = np.unique(h_sorted, return_index=True)
    if uniq.size < h_sorted.size:
        sums = np.add.reduceat(t_sorted, start)
        counts = np.diff(np.append(start, h_sorted.size))
        t_sorted = sums / counts
        h_sorted = uniq
    if h_sorted.size < 2:
        raise FlightRejectedError(
            f"flight {traj.flight_id}: blips collapse to a single altitude"
        )
    return ThrustProfile(grid=grid, values=np.interp(grid, h_sorted, t_sorted))


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


def fit_fpca(profiles: Sequence[ThrustProfile], n_max: int = MAX_COMPONENTS) -> FpcaBasis:
    """Fit the mean and orthonormal modes of a set of thrust profiles.

    Eigen-decomposes the quadrature-weighted sample covariance on the
    common grid; eigenvalues are reported as fractions of total variance
    and the retained count is min(n_max, knee of the cumulative curve).
    Mode signs are fixed so each mode's quadrature integral is
    non-negative (tie: first non-zero node positive).  Profiles whose total
    variance is round-off raise ``DegenerateModelError``.
    """
    if len(profiles) < MIN_FIT_PROFILES:
        raise DomainError(f"need at least {MIN_FIT_PROFILES} profiles, got {len(profiles)}")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if n_max > len(profiles):
        raise DomainError(f"cannot request {n_max} modes from {len(profiles)} profiles")
    grid = profiles[0].grid
    for p in profiles[1:]:
        if not np.array_equal(p.grid, grid):
            raise DomainError("all profiles must share an identical grid")

    x = np.stack([p.values for p in profiles])
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)

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
        raise DegenerateModelError("the thrust profiles have no variance")

    fractions = evals / total
    n_keep = min(n_max, select_components(fractions), x.shape[0] - 1)
    n_keep = max(n_keep, 1)
    modes = np.empty((n_keep, grid.size))
    for i in range(n_keep):
        modes[i] = _fix_sign(evecs[:, i] / sqrt_w, w)
    return FpcaBasis(grid=grid.copy(), mean=mean, modes=modes,
                     explained_variance=fractions[:n_keep])


def _fix_sign(mode: np.ndarray, weights: np.ndarray) -> np.ndarray:
    integral = float(np.sum(weights * mode))
    scale = float(np.max(np.abs(mode)))
    if abs(integral) > 1e-10 * scale:
        return mode if integral > 0.0 else -mode
    nonzero = np.flatnonzero(np.abs(mode) > 1e-10 * scale)
    if nonzero.size and mode[nonzero[0]] < 0.0:
        return -mode
    return mode


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
