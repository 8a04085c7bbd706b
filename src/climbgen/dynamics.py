"""Forward climb physics: drag, energy share factor, climb rate, and
time-to-altitude integration of a thrust profile.

The climb follows the aircraft's speed schedule exactly; acceleration
between the CAS and Mach legs is absorbed by the energy share factor
rather than integrated explicitly.

For a fixed aircraft, mass and temperature offset the climb rate is
``rocd = k(h) * (T(h) - D(h))``: the thrust ``T`` is the only free input,
``D`` is the drag and ``k`` the climb-rate gain.  :func:`rate_factors` is
the only code that computes ``(D, k)``; :func:`rocd`,
``learning.invert_thrust`` and ``performance.min_level_thrust`` all read
them.  :func:`integrate_climb` keeps a :class:`ClimbKernel` per
``(perf, mass, profile grid bytes, h_start, h_end, delta_T)`` in a bounded
LRU cache.  It holds the refined nodes, the split at the CAS-Mach
crossover and ``(D, k)`` per node; a call only interpolates the thrust and
applies :func:`rocd`'s expression, so results are bit-identical to
evaluating :func:`rocd` at the nodes.

:func:`integrate_climb_block` integrates a block of thrust profiles on one
grid through one kernel: it checks the block once, interpolates each row
as :func:`integrate_climb` does, and applies the same rate, floor and
trapezoid arithmetic to the whole block along its last axis, so each row
is bit-identical to :func:`integrate_climb` of that row.  Callers hand it
at most ``BLOCK_CLIMBS`` rows at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .atmosphere import (
    BETA,
    G0,
    H_TROPOPAUSE,
    KAPPA,
    R_AIR,
    AtmosphereState,
    SpeedSchedule,
    crossover_altitude,
    isa_state,
    schedule_speed,
)
from .errors import DomainError, InfeasibleClimbError

if TYPE_CHECKING:
    from .learning import ThrustProfile
    from .performance import AircraftPerformance

ROCD_FLOOR = 0.5      # m/s; below this a climb is declared infeasible
N_NODES = 1000        # uniform quadrature nodes per climb; the profile grid's nodes are added
BLOCK_CLIMBS = 64     # thrust profiles integrated at once: bounds the (rows, nodes) arrays held


@dataclass(eq=False)
class ClimbTrajectory:
    """Time at altitude for one integrated climb.

    ``t`` is seconds from the start altitude, strictly increasing; ``h``
    is metres.
    """

    t: np.ndarray
    h: np.ndarray

    def time_at(self, h_query: float | np.ndarray) -> float | np.ndarray:
        """Interpolate the arrival time at an altitude within the span."""
        return np.interp(h_query, self.h, self.t)


def drag(
    perf: "AircraftPerformance",
    mass: float,
    state: AtmosphereState,
    v_tas: float | np.ndarray,
) -> float | np.ndarray:
    """Aerodynamic drag from the parabolic polar in wings-level flight, in N."""
    q = 0.5 * state.rho * np.asarray(v_tas, dtype=float) ** 2 * perf.wing_area
    c_lift = mass * G0 / q
    d = q * (perf.c_d0 + perf.c_d2 * c_lift**2)
    return float(d) if np.ndim(d) == 0 else d


def energy_share(
    mach: float | np.ndarray,
    h: float | np.ndarray,
    schedule: SpeedSchedule,
) -> float | np.ndarray:
    """Energy share factor f(M): the fraction of excess power that goes
    into climbing, by flight condition.

    Conditions: constant CAS below the crossover altitude, constant Mach
    at/above it; each splits at the tropopause.  Constant Mach above the
    tropopause gives exactly 1 (TAS is constant there).
    """
    m = np.asarray(mach, dtype=float)
    m2 = m * m
    half = (KAPPA - 1.0) / 2.0
    lapse_term = KAPPA * R_AIR * BETA / (2.0 * G0) * m2
    base = 1.0 + half * m2
    compress = base ** (-1.0 / (KAPPA - 1.0)) * (base ** (KAPPA / (KAPPA - 1.0)) - 1.0)

    f_cas_tropo = 1.0 / (1.0 + lapse_term + compress)
    f_cas_strato = 1.0 / (1.0 + compress)
    f_mach_tropo = 1.0 / (1.0 + lapse_term)

    below_cross = np.asarray(h) < crossover_altitude(schedule)
    below_trop = np.asarray(h) < H_TROPOPAUSE
    f = np.where(
        below_cross,
        np.where(below_trop, f_cas_tropo, f_cas_strato),
        np.where(below_trop, f_mach_tropo, 1.0),
    )
    return float(f) if np.ndim(f) == 0 else f


def rate_factors(
    perf: "AircraftPerformance",
    mass: float,
    h: float | np.ndarray,
    delta_T: float = 0.0,
) -> tuple:
    """The thrust-independent factors ``(D, k)`` of the climb rate at
    altitude, so that ``rocd = k * (thrust - D)``: the drag ``D`` (N) at
    ``mass`` and schedule speed, and the gain ``k = ratio * V * f / (mass g0)``
    (m/s per N) from the temperature ratio ``(T - delta_T) / T``, the
    schedule true airspeed ``V`` and the energy share factor ``f``."""
    state = isa_state(h, delta_T)
    v_tas, mach = schedule_speed(perf.schedule, state)
    d = drag(perf, mass, state, v_tas)
    f = energy_share(mach, h, perf.schedule)
    ratio = (state.T - delta_T) / state.T
    return d, ratio * v_tas * f / (mass * G0)


def rocd(
    perf: "AircraftPerformance",
    mass: float,
    t_hr: float | np.ndarray,
    h: float | np.ndarray,
    delta_T: float = 0.0,
) -> float | np.ndarray:
    """Rate of climb (m/s) for a given engine thrust at altitude.

    Excess power (thrust minus drag, times TAS) is converted to climb rate
    through the nominal mass, scaled by the temperature ratio and the
    energy share factor: ``k * (thrust - D)`` with :func:`rate_factors`.
    Negative results are returned as-is.
    """
    d, k = rate_factors(perf, mass, h, delta_T)
    r = k * (np.asarray(t_hr, dtype=float) - d)
    return float(r) if np.ndim(r) == 0 else r


def time_from_rocd(h: np.ndarray, rocd_values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal time-at-altitude from pointwise climb rates,
    along the last axis of ``rocd_values``: one climb, or one per row."""
    h = np.asarray(h, dtype=float)
    r = np.asarray(rocd_values, dtype=float)
    inv = 1.0 / r
    seg = 0.5 * np.diff(h) * (inv[..., 1:] + inv[..., :-1])
    t = np.zeros(r.shape)
    np.cumsum(seg, axis=-1, out=t[..., 1:])
    return t


def check_thrust(grid: np.ndarray, values: np.ndarray) -> None:
    """The checks of a thrust profile's grid and of its values, one profile
    or one per row: a strictly increasing grid of at least 2 nodes, and
    finite values."""
    if grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must be strictly increasing with at least 2 nodes")
    if not np.all(np.isfinite(values)):
        raise DomainError("thrust values must be finite")


@dataclass(frozen=True, eq=False)
class ClimbKernel:
    """The thrust-independent part of one climb, on its refined nodes.

    The rate nodes ``h_rate`` are the quadrature nodes of the left part
    (``h_rate[:n_left]``, up to and including the CAS-Mach crossover) and
    then of the right part; without a crossover inside the span there is
    one part and ``n_left == h_rate.size``.  Per rate node the kernel holds
    the drag and the climb-rate gain of :func:`rate_factors`, each
    evaluated where :func:`rocd` would be: the left part's last node, the
    crossover itself, is evaluated just below it for the CAS-leg limit.
    ``h`` holds the output altitudes.  Every array is read-only.
    """

    h_rate: np.ndarray
    drag: np.ndarray
    gain: np.ndarray
    n_left: int
    h: np.ndarray

    def rates(self, thrust: np.ndarray) -> np.ndarray:
        """Climb rate (m/s) at the rate nodes for thrust (N) at those nodes."""
        return self.gain * (thrust - self.drag)


@functools.lru_cache(maxsize=64)
def _climb_kernel(
    perf: "AircraftPerformance",
    mass: float,
    grid_bytes: bytes,
    h_start: float,
    h_end: float,
    delta_T: float,
) -> ClimbKernel:
    grid = np.frombuffer(grid_bytes)
    base = np.linspace(h_start, h_end, N_NODES)
    inner = grid[(grid > h_start) & (grid < h_end)]
    nodes = np.unique(np.concatenate([base, inner]))
    h_cross = crossover_altitude(perf.schedule)

    if not h_start < h_cross < h_end:
        parts = [(nodes, nodes)]
        h_out = nodes
    else:
        left = np.append(nodes[nodes < h_cross], h_cross)
        right = np.append(h_cross, nodes[nodes > h_cross])
        # evaluate the left endpoint just below the crossover to pick up the
        # CAS-leg limit of the energy share factor
        left_eval = left.copy()
        left_eval[-1] = np.nextafter(h_cross, h_start)
        parts = [(left, left_eval), (right, right)]
        h_out = np.concatenate([left[:-1], right])
    # each part is evaluated on its own, exactly as rocd would see it
    factors = [rate_factors(perf, mass, h_eval, delta_T) for _, h_eval in parts]
    d, k = (np.concatenate(col) for col in zip(*factors))
    kernel = ClimbKernel(
        h_rate=np.concatenate([h for h, _ in parts]),
        drag=d,
        gain=k,
        n_left=parts[0][0].size,
        h=h_out,
    )
    for name in ("h_rate", "drag", "gain", "h"):
        getattr(kernel, name).setflags(write=False)
    return kernel


def _kernel(perf: "AircraftPerformance", mass: float, grid: np.ndarray, h_start: float,
            h_end: float, delta_T: float) -> ClimbKernel:
    """The climb's kernel, once the span is checked against the grid."""
    if not h_start < h_end:
        raise DomainError(f"need h_start < h_end, got {h_start} >= {h_end}")
    if h_start < grid[0] - 1e-9 or h_end > grid[-1] + 1e-9:
        raise DomainError(
            f"thrust profile spans [{grid[0]:.1f}, {grid[-1]:.1f}] m, "
            f"requested [{h_start:.1f}, {h_end:.1f}] m"
        )
    return _climb_kernel(perf, mass, np.asarray(grid, dtype=float).tobytes(), h_start, h_end,
                         delta_T)


def _infeasible(rate: float, h: float) -> InfeasibleClimbError:
    return InfeasibleClimbError(
        f"climb rate {float(rate):.3f} m/s at {float(h):.0f} m "
        f"is at or below the {ROCD_FLOOR} m/s floor",
        altitude_m=float(h),
    )


def _times(kernel: ClimbKernel, r: np.ndarray) -> np.ndarray:
    """Times at the kernel's output altitudes from the rates at its rate
    nodes, along the last axis: the parts either side of the crossover are
    integrated on their own and joined at it."""
    n = kernel.n_left
    if n == r.shape[-1]:
        return time_from_rocd(kernel.h, r)
    t_left = time_from_rocd(kernel.h_rate[:n], r[..., :n])
    t_right = time_from_rocd(kernel.h_rate[n:], r[..., n:]) + t_left[..., -1:]
    return np.concatenate([t_left[..., :-1], t_right], axis=-1)


def integrate_climb(
    perf: "AircraftPerformance",
    mass: float,
    thrust_profile: "ThrustProfile",
    h_start: float,
    h_end: float,
    delta_T: float = 0.0,
) -> ClimbTrajectory:
    """Integrate time-at-altitude for a climb driven by a thrust profile.

    Thrust is linearly interpolated from the profile grid onto a uniform
    ``N_NODES`` refinement augmented with the profile's own nodes, and
    1/ROCD is integrated by the trapezoidal rule.  The energy share factor
    switches branch at the CAS-Mach crossover, so the quadrature is split
    there and the jump is handled with one-sided limits.  Raises
    ``InfeasibleClimbError`` if the climb rate drops to the floor anywhere
    on the refinement.

    Everything except the thrust is taken from a :class:`ClimbKernel`
    cached per ``(perf, mass, grid bytes, h_start, h_end, delta_T)`` (at
    most 64 kept, least recently used dropped first).  The rates behind
    ``t`` are bit-identical to evaluating :func:`rocd` at the nodes, and the
    returned arrays are the caller's own.  The floor test and the
    trapezoid sums are those of :func:`integrate_climb_block`, which
    integrates many profiles of one grid at once.
    """
    grid = thrust_profile.grid
    kernel = _kernel(perf, mass, grid, h_start, h_end, delta_T)
    r = kernel.rates(np.interp(kernel.h_rate, grid, thrust_profile.values))
    bad = r <= ROCD_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise _infeasible(r[i], kernel.h_rate[i])
    return ClimbTrajectory(t=_times(kernel, r), h=kernel.h.copy())


@dataclass(frozen=True, eq=False)
class ClimbBlock:
    """The climbs of a block of thrust profiles, one row per profile.

    ``h`` holds the output altitudes every climb shares and ``t`` one row
    of times per profile.  A climb whose rate falls to the floor is
    infeasible: ``fail_m`` holds the first rate node where it does and
    ``fail_rate`` the rate there, both NaN for a feasible climb, and its
    ``t`` row is NaN past the start.
    """

    h: np.ndarray
    t: np.ndarray
    fail_m: np.ndarray
    fail_rate: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return np.isnan(self.fail_m)

    def error(self, row: int) -> InfeasibleClimbError:
        """The ``InfeasibleClimbError`` that ``integrate_climb`` raises for
        the row's profile."""
        return _infeasible(self.fail_rate[row], self.fail_m[row])

    def raise_infeasible(self) -> None:
        """Raise the ``error`` of the first infeasible row, if there is one."""
        infeasible = np.flatnonzero(~self.feasible)
        if infeasible.size:
            raise self.error(int(infeasible[0]))


def integrate_climb_block(
    perf: "AircraftPerformance",
    mass: float,
    grid: np.ndarray,
    values: np.ndarray,
    h_start: float,
    h_end: float,
    delta_T: float = 0.0,
) -> ClimbBlock:
    """:func:`integrate_climb` of each row of ``values``, thrust (N) of one
    profile per row on ``grid``, without raising for an infeasible climb.

    The grid, the values and the span get the checks of ``ThrustProfile``
    and :func:`integrate_climb` once per block, and one cached
    :class:`ClimbKernel` serves every row.  Each row is interpolated by
    ``np.interp`` as :func:`integrate_climb` does; the rates, the floor
    test and the trapezoid sums then run on the whole block, so a row's
    times and failure are bit for bit those of :func:`integrate_climb`.
    The arrays held grow with the rows; callers pass at most
    ``BLOCK_CLIMBS``.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.size:
        raise DomainError("values must hold one row per profile on the 1-d grid")
    check_thrust(grid, values)
    kernel = _kernel(perf, mass, grid, h_start, h_end, delta_T)
    thrust = np.empty((values.shape[0], kernel.h_rate.size))
    for row, profile in zip(thrust, values):
        row[:] = np.interp(kernel.h_rate, grid, profile)
    r = kernel.rates(thrust)
    bad = r <= ROCD_FLOOR
    first = np.argmax(bad, axis=-1)
    failed = bad[np.arange(first.size), first]
    fail_m = np.where(failed, kernel.h_rate[first], np.nan)
    fail_rate = np.where(failed, r[np.arange(first.size), first], np.nan)
    r[failed] = np.nan   # no division by a rate that may be 0
    return ClimbBlock(h=kernel.h.copy(), t=_times(kernel, r), fail_m=fail_m, fail_rate=fail_rate)
