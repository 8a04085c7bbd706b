"""Two-layer standard atmosphere with a temperature offset, plus the
CAS-to-TAS conversion, the speed of sound, the speed schedule's true
airspeed and Mach number, and the CAS-Mach crossover altitude.

All altitudes are metres internally; flight levels (hundreds of feet) are
converted at API boundaries with :func:`fl_to_m`.  The temperature offset
``delta_T`` shifts the temperature used for density and the speed of
sound; pressure follows the unmodified standard profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

G0 = 9.80665          # m/s^2, standard gravity
R_AIR = 287.05287     # J/(kg K), specific gas constant of air
KAPPA = 1.4           # ratio of specific heats
BETA = -0.0065        # K/m, tropospheric lapse rate
T0 = 288.15           # K, sea-level temperature
P0 = 101325.0         # Pa, sea-level pressure
RHO0 = P0 / (R_AIR * T0)   # kg/m^3, sea-level density (1.2250 to 4 digits)
H_TROPOPAUSE = 11000.0            # m
T_TROPOPAUSE = T0 + BETA * H_TROPOPAUSE   # 216.65 K
P_TROPOPAUSE = P0 * (T_TROPOPAUSE / T0) ** (-G0 / (BETA * R_AIR))
H_MAX = 20000.0       # m, top of the modeled altitude interval

MU = (KAPPA - 1.0) / KAPPA
_DELTA_T_MAX = MU * np.finfo(float).max / (4.0 * R_AIR)   # K; see isa_state
FT = 0.3048           # m per foot


def fl_to_m(fl: float) -> float:
    """Convert a flight level (hundreds of feet) to metres."""
    return fl * 100.0 * FT


@dataclass(frozen=True)
class AtmosphereState:
    """Atmospheric conditions at an array of altitudes.

    ``T`` is the standard-atmosphere temperature; density is evaluated at
    ``T + delta_T`` so the offset propagates to everything density-driven.
    """

    h: np.ndarray
    T: np.ndarray
    delta_T: float
    p: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class SpeedSchedule:
    """Climb speed schedule: constant CAS below the crossover, constant
    Mach at and above it."""

    v_cas: float   # m/s
    mach: float    # dimensionless

    def __post_init__(self):
        if not 0.0 < self.v_cas < np.inf:   # NaN fails; each is named by its catalog key
            raise DomainError(f"v_cas_ms must be positive, got {self.v_cas}")
        if not 0.0 < self.mach < 1.0:
            raise DomainError(f"mach must lie in (0, 1), got {self.mach}")


def isa_state(h: np.ndarray, delta_T: float = 0.0) -> AtmosphereState:
    """Standard-atmosphere temperature, pressure, and density at altitudes.

    Args:
        h: geodetic altitudes in metres, within [0, 20000].
        delta_T: temperature offset in K applied on top of the standard
            profile (affects density, not pressure); ``T + delta_T > 0`` and
            ``delta_T <= MU * float max / (4 R_AIR)`` (4.47e304 K), so that the
            largest gas-law quantity, ``cas_to_tas``'s ``2 p / (MU rho) =
            2 R_AIR (T + delta_T) / MU``, stays within half the largest float.
    """
    h_arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h_arr)):
        raise DomainError("altitude must be finite")
    if np.any(h_arr < 0.0) or np.any(h_arr > H_MAX):
        raise DomainError(f"altitude must lie in [0, {H_MAX:.0f}] m")

    T = np.where(h_arr < H_TROPOPAUSE, T0 + BETA * h_arr, T_TROPOPAUSE)
    p = np.where(
        h_arr < H_TROPOPAUSE,
        P0 * ((T0 + BETA * np.minimum(h_arr, H_TROPOPAUSE)) / T0) ** (-G0 / (BETA * R_AIR)),
        P_TROPOPAUSE * np.exp(-G0 * (h_arr - H_TROPOPAUSE) / (R_AIR * T_TROPOPAUSE)),
    )
    if not (np.all(T + delta_T > 0.0) and delta_T <= _DELTA_T_MAX):
        raise DomainError(f"delta_T {delta_T} K: T + delta_T not positive, or gas law overflows")
    rho = p / (R_AIR * (T + delta_T))
    return AtmosphereState(h_arr, T, float(delta_T), p, rho)


def speed_of_sound(state: AtmosphereState) -> np.ndarray:
    """Speed of sound sqrt(kappa R (T + dT)) in m/s."""
    return np.sqrt(KAPPA * R_AIR * (state.T + state.delta_T))


def cas_to_tas(v_cas: float | np.ndarray, state: AtmosphereState) -> np.ndarray:
    """True airspeed from calibrated airspeed, full compressible conversion."""
    v = np.asarray(v_cas, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise DomainError("v_cas must be finite and positive")
    inner = (1.0 + MU * RHO0 * v * v / (2.0 * P0)) ** (1.0 / MU) - 1.0
    outer = (1.0 + (P0 / state.p) * inner) ** MU - 1.0
    return np.sqrt(2.0 * state.p / (MU * state.rho) * outer)


def crossover_altitude(schedule: SpeedSchedule) -> float:
    """Altitude where the constant-CAS and constant-Mach legs give the
    same true airspeed.

    Computed from the pressure-ratio closed form, then inverted through
    the standard pressure profile.  Raises ``DomainError`` if the legs do
    not intersect within [0, 20000] m, also where the closed form
    overflows or underflows to a pressure of inf, 0 or NaN.
    """
    half = (KAPPA - 1.0) / 2.0
    a0 = np.sqrt(KAPPA * R_AIR * T0)
    with np.errstate(all="ignore"):   # an inf, 0 or NaN pressure gives a non-finite h, refused below
        num = (1.0 + half * (schedule.v_cas / a0) ** 2) ** (1.0 / MU) - 1.0
        den = (1.0 + half * schedule.mach**2) ** (1.0 / MU) - 1.0
        p = (num / den) * P0
        if p >= P_TROPOPAUSE:
            h = (T0 * (p / P0) ** (-BETA * R_AIR / G0) - T0) / BETA
        else:
            h = H_TROPOPAUSE + R_AIR * T_TROPOPAUSE / G0 * np.log(P_TROPOPAUSE / p)
    if not 0.0 <= h <= H_MAX:   # NaN fails
        where = f"; they cross at {h:.0f} m" if np.isfinite(h) else ""
        raise DomainError(f"CAS/Mach legs of v_cas {schedule.v_cas} m/s and mach {schedule.mach} "
                          f"do not cross in [0, {H_MAX:.0f}] m{where}")
    return float(h)


def schedule_speed(
    schedule: SpeedSchedule, state: AtmosphereState
) -> tuple[np.ndarray, np.ndarray]:
    """True airspeed and Mach number at a state, following the schedule.

    Below the crossover altitude the CAS leg applies; at and above it the
    Mach leg applies.
    """
    h_cross = crossover_altitude(schedule)
    a = speed_of_sound(state)
    tas_cas = cas_to_tas(schedule.v_cas, state)
    on_cas = state.h < h_cross
    return np.where(on_cas, tas_cas, schedule.mach * a), np.where(on_cas, tas_cas / a, schedule.mach)
