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
them.

One code path integrates climbs: :func:`integrate_climb_block`, a block
of thrust profiles on one grid, one per row; :func:`integrate_climb` is
its one-row call, which raises an infeasible climb's error.  A
:class:`ClimbKernel` per ``(perf, mass, grid bytes, h_start, h_end,
delta_T)``, kept in a bounded LRU cache and built once its grid is
checked, holds the refined nodes, the split at the CAS-Mach crossover and
``(D, k)`` per node.  A block only interpolates its rows and applies
:func:`rocd`'s expression, so its rates are bit-identical to :func:`rocd`
at the nodes; the floor test and the trapezoid sums run on the whole
block, and the failure bookkeeping only when a rate is at the floor.
Callers hand it at most ``BLOCK_CLIMBS`` rows at a time.
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
) -> np.ndarray:
    """Aerodynamic drag from the parabolic polar in wings-level flight, in N."""
    q = 0.5 * state.rho * np.asarray(v_tas, dtype=float) ** 2 * perf.wing_area
    c_lift = mass * G0 / q
    return q * (perf.c_d0 + perf.c_d2 * c_lift**2)


def energy_share(
    mach: float | np.ndarray,
    h: np.ndarray,
    schedule: SpeedSchedule,
) -> np.ndarray:
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

    below_cross = h < crossover_altitude(schedule)
    below_trop = h < H_TROPOPAUSE
    return np.where(
        below_cross,
        np.where(below_trop, f_cas_tropo, f_cas_strato),
        np.where(below_trop, f_mach_tropo, 1.0),
    )


def rate_factors(
    perf: "AircraftPerformance",
    mass: float,
    h: np.ndarray,
    delta_T: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The thrust-independent factors ``(D, k)`` of the climb rate at
    altitude, so that ``rocd = k * (thrust - D)``: the drag ``D`` (N) at
    ``mass`` and schedule speed, and the gain ``k = ratio * V * f / (mass g0)``
    (m/s per N) from the temperature ratio ``(T_isa - delta_T) / T_isa``
    of the ISA temperature, the schedule true airspeed ``V`` and the
    energy share factor ``f``.  BADA 3's ``(T - delta_T) / T`` of the
    actual temperature differs from that ratio by 0.43% near FL300 at
    +-15 K, and ``energy_share``'s lapse-rate term omits it."""
    state = isa_state(h, delta_T)
    v_tas, mach = schedule_speed(perf.schedule, state)
    d = drag(perf, mass, state, v_tas)
    f = energy_share(mach, state.h, perf.schedule)
    ratio = (state.T - delta_T) / state.T
    return d, ratio * v_tas * f / (mass * G0)


def rocd(
    perf: "AircraftPerformance",
    mass: float,
    t_hr: float | np.ndarray,
    h: np.ndarray,
    delta_T: float = 0.0,
) -> np.ndarray:
    """Rate of climb (m/s) for a given engine thrust at altitude.

    Excess power (thrust minus drag, times TAS) is converted to climb rate
    through the nominal mass, scaled by the temperature ratio and the
    energy share factor: ``k * (thrust - D)`` with :func:`rate_factors`.
    Negative results are returned as-is.
    """
    d, k = rate_factors(perf, mass, h, delta_T)
    return k * (np.asarray(t_hr, dtype=float) - d)


def _trapezoid_times(half_step: np.ndarray, r: np.ndarray, n_left: int) -> np.ndarray:
    """Cumulative trapezoidal time along the last axis of the climb rates
    ``r``, on nodes whose steps are ``2 * half_step``.  When ``n_left`` is
    less than the node count, nodes ``n_left - 1`` and ``n_left`` are one
    altitude seen from either side of a jump in the rate: the two parts are
    summed on their own, the right one from the left one's total, and that
    altitude's time is returned once."""
    inv = 1.0 / r
    seg = half_step * (inv[..., 1:] + inv[..., :-1])
    t = np.empty(r.shape[:-1] + (r.shape[-1] - (n_left < r.shape[-1]),))
    t[..., 0] = 0.0
    np.cumsum(seg[..., :n_left - 1], axis=-1, out=t[..., 1:n_left])
    np.cumsum(seg[..., n_left:], axis=-1, out=t[..., n_left:])
    t[..., n_left:] += t[..., n_left - 1:n_left]
    return t


def check_thrust(grid: np.ndarray | None, values: np.ndarray | None) -> None:
    """The checks of a thrust profile's grid and of its values, one profile
    or one per row: a strictly increasing grid of at least 2 nodes, and
    finite values.  None skips that check."""
    if grid is not None and (grid.size < 2 or not (np.diff(grid) > 0.0).all()):   # NaN fails
        raise DomainError("grid must be strictly increasing with at least 2 nodes")
    if values is not None and not np.isfinite(values).all():
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
    ``half_step`` holds half of each step between rate nodes (0 where the
    parts meet), and ``h`` the output altitudes.  Every array is read-only.
    """

    h_rate: np.ndarray
    drag: np.ndarray
    gain: np.ndarray
    n_left: int
    half_step: np.ndarray
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
    check_thrust(grid, None)   # a failing grid raises, and lru_cache keeps no entry for it
    base = np.linspace(h_start, h_end, N_NODES)
    inner = grid[(grid > h_start) & (grid < h_end)]
    # sorted, repeats dropped: np.unique's values, without the numpy.ma
    # import it makes when called without optional outputs
    nodes = np.sort(np.concatenate([base, inner]))
    nodes = nodes[np.append(True, nodes[1:] != nodes[:-1])]
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
    h_rate = np.concatenate([h for h, _ in parts])
    kernel = ClimbKernel(
        h_rate=h_rate,
        drag=d,
        gain=k,
        n_left=parts[0][0].size,
        half_step=0.5 * np.diff(h_rate),
        h=h_out,
    )
    for name in ("h_rate", "drag", "gain", "half_step", "h"):
        getattr(kernel, name).setflags(write=False)
    return kernel


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

    def error(self, row: int, climb: str = "climb") -> InfeasibleClimbError:
        """The ``InfeasibleClimbError`` of the row's climb, named ``climb``,
        giving its first rate node at the floor and the rate there."""
        h = float(self.fail_m[row])
        return InfeasibleClimbError(f"{climb} rate {float(self.fail_rate[row]):.3f} m/s at "
                                    f"{h:.0f} m is at or below the {ROCD_FLOOR} m/s floor",
                                    altitude_m=h)

    def raise_infeasible(self, names: list[str]) -> None:
        """Raise the ``error`` of the first infeasible row, if there is one,
        naming the climb by the row's entry of ``names``."""
        infeasible = np.flatnonzero(~self.feasible)
        if infeasible.size:
            raise self.error(infeasible[0], f"{names[infeasible[0]]} climb")


def integrate_climb_block(
    perf: "AircraftPerformance",
    mass: float,
    grid: np.ndarray,
    values: np.ndarray,
    h_start: float,
    h_end: float,
    delta_T: float = 0.0,
) -> ClimbBlock:
    """The climbs of the rows of ``values``, thrust (N) of one profile per
    row on ``grid``, without raising for an infeasible climb.

    Thrust is linearly interpolated from the grid onto a uniform
    ``N_NODES`` refinement of the span augmented with the grid's own nodes,
    and 1/ROCD is integrated by the trapezoidal rule.  The energy share
    factor switches branch at the CAS-Mach crossover, so the quadrature is
    split there and the jump is handled with one-sided limits.  A climb
    whose rate is at or below ``ROCD_FLOOR`` at any node is infeasible.
    A row does not depend on its neighbours.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.size:
        raise DomainError("values must hold one row per profile on the 1-d grid")
    check_thrust(None, values)
    if not h_start < h_end:
        raise DomainError(f"need h_start < h_end, got {h_start} >= {h_end}")
    if h_start < grid[0] - 1e-9 or h_end > grid[-1] + 1e-9:
        raise DomainError(f"thrust profile spans [{grid[0]:.1f}, {grid[-1]:.1f}] m, "
                          f"requested [{h_start:.1f}, {h_end:.1f}] m")
    kernel = _climb_kernel(perf, mass, grid.tobytes(), h_start, h_end, delta_T)
    thrust = np.empty((len(values), kernel.h_rate.size))
    for i in range(len(values)):
        thrust[i] = np.interp(kernel.h_rate, grid, values[i])
    r = kernel.rates(thrust)
    bad = r <= ROCD_FLOOR
    fail_m, fail_rate = np.full((2, r.shape[0]), np.nan)
    if bad.any():
        first = np.argmax(bad, axis=-1)
        failed = bad[np.arange(first.size), first]
        fail_m = np.where(failed, kernel.h_rate[first], np.nan)
        fail_rate = np.where(failed, r[np.arange(first.size), first], np.nan)
        r[failed] = np.nan   # no division by a rate that may be 0
    return ClimbBlock(h=kernel.h.copy(), t=_trapezoid_times(kernel.half_step, r, kernel.n_left),
                      fail_m=fail_m, fail_rate=fail_rate)


def integrate_climb(
    perf: "AircraftPerformance",
    mass: float,
    thrust_profile: "ThrustProfile",
    h_start: float,
    h_end: float,
    delta_T: float = 0.0,
) -> ClimbTrajectory:
    """Integrate time-at-altitude for a climb driven by a thrust profile:
    the one-row :func:`integrate_climb_block`.  An infeasible climb raises
    its ``InfeasibleClimbError``."""
    block = integrate_climb_block(perf, mass, thrust_profile.grid, thrust_profile.values[None],
                                  h_start, h_end, delta_T)
    if not block.feasible[0]:
        raise block.error(0)
    return ClimbTrajectory(t=block.t[0], h=block.h)
