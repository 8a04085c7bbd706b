"""Per-aircraft-type performance parameters and the nominal climb-thrust
profile, loaded from an open JSON parameter file.

File format: a JSON array with one record per aircraft type and exactly
these keys, each but ``type_code`` a finite JSON number, as the rules
of ``errors`` read them::

    type_code      ICAO-style designator (string); a letter or digit, then
                   letters, digits, "_", "." or "-"
    c_D0           parasitic drag coefficient
    c_D2           induced drag coefficient
    S_m2           reference wing area, m^2
    m_nom_kg       nominal mass, kg
    v_cas_ms       schedule CAS below the crossover, m/s
    mach           schedule Mach at/above the crossover
    c_T1_N         thrust at sea level, N
    c_T2_m         altitude scale of the linear thrust decay, m
    c_T3_per_m2    quadratic thrust coefficient, 1/m^2

A record whose CAS and Mach legs do not cross in [0, 20000] m
(``atmosphere.crossover_altitude``) is refused, naming its type.

The package ships synthetic-but-plausible parameter sets for three
archetypes (narrow-body jet, wide-body jet, corporate jet) under
``climbgen/data/aircraft.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import dynamics
from .atmosphere import SpeedSchedule, crossover_altitude
from .errors import (DomainError, ValidationError, check_type_code, json_number, json_object,
                     read_json)

PERF_H_MAX = 15000.0   # m, validity ceiling of the thrust model

_FILE_KEYS = ("type_code", "c_D0", "c_D2", "S_m2", "m_nom_kg", "v_cas_ms", "mach", "c_T1_N",
              "c_T2_m", "c_T3_per_m2")


@dataclass(frozen=True)
class AircraftPerformance:
    """Physical coefficients for one aircraft type."""

    type_code: str
    c_d0: float
    c_d2: float
    wing_area: float     # m^2
    nominal_mass: float  # kg
    schedule: SpeedSchedule
    c_t1: float          # N
    c_t2: float          # m
    c_t3: float          # 1/m^2

    def __post_init__(self):
        # each named by its key in a catalog file
        for name, key in (("c_d0", "c_D0"), ("c_d2", "c_D2"), ("wing_area", "S_m2"),
                          ("nominal_mass", "m_nom_kg"), ("c_t1", "c_T1_N"), ("c_t2", "c_T2_m")):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValidationError(f"{self.type_code or '<record>'}: {key} must be positive, got {value}")
        if not np.isfinite(self.c_t3) or self.c_t3 < 0.0:
            raise ValidationError(f"{self.type_code}: c_T3_per_m2 must be non-negative, got {self.c_t3}")
        # the thrust quadratic must stay positive across its validity interval:
        # its least value there is at its vertex 1 / (2 c_t2 c_t3) when that
        # lies inside, else at the top
        curvature = self.c_t2 * self.c_t3
        h = min(PERF_H_MAX, 0.5 / curvature) if curvature > 0.0 else PERF_H_MAX
        if self.c_t1 * (1.0 - h / self.c_t2 + self.c_t3 * h**2) <= 0.0:
            raise ValidationError(f"{self.type_code}: nominal thrust non-positive at {h:.0f} m, "
                                  f"below {PERF_H_MAX:.0f} m")


def nominal_thrust(perf: AircraftPerformance, h: np.ndarray) -> np.ndarray:
    """Nominal max-climb thrust c_T1 * (1 - h/c_T2 + c_T3 h^2), in N."""
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0.0) or np.any(h_arr > PERF_H_MAX):
        raise DomainError(f"altitude outside thrust model interval [0, {PERF_H_MAX:.0f}] m")
    return perf.c_t1 * (1.0 - h_arr / perf.c_t2 + perf.c_t3 * h_arr**2)


def min_level_thrust(
    perf: AircraftPerformance, h: np.ndarray, delta_T: float = 0.0
) -> np.ndarray:
    """Thrust for zero climb rate: the drag ``D`` of
    :func:`climbgen.dynamics.rate_factors` at nominal mass."""
    return dynamics.rate_factors(perf, perf.nominal_mass, h, delta_T)[0]


def _record_to_performance(record, index: int) -> AircraftPerformance:
    json_object(record, f"record {index}", _FILE_KEYS)
    type_code = record["type_code"]
    check_type_code(type_code, f"record {index}: type_code")
    values = {key: json_number(record[key], f"{type_code}: field {key}") for key in _FILE_KEYS[1:]}
    try:   # the schedule's checks, and its crossover, which every climb of the type flies
        schedule = SpeedSchedule(v_cas=values["v_cas_ms"], mach=values["mach"])
        crossover_altitude(schedule)
    except DomainError as exc:
        raise ValidationError(f"{type_code}: {exc}") from None
    return AircraftPerformance(
        type_code=type_code, c_d0=values["c_D0"], c_d2=values["c_D2"], wing_area=values["S_m2"],
        nominal_mass=values["m_nom_kg"], schedule=schedule, c_t1=values["c_T1_N"],
        c_t2=values["c_T2_m"], c_t3=values["c_T3_per_m2"])


def _catalog(raw) -> dict[str, AircraftPerformance]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("expected a non-empty JSON array of records")
    catalog: dict[str, AircraftPerformance] = {}
    for index, record in enumerate(raw):
        perf = _record_to_performance(record, index)
        if perf.type_code in catalog:
            raise ValidationError(f"record {index}: duplicate type code {perf.type_code}")
        catalog[perf.type_code] = perf
    return {code: catalog[code] for code in sorted(catalog)}


def load_performance(path: str | Path) -> dict[str, AircraftPerformance]:
    """Load a catalog of aircraft performance records, keyed by type code.
    Every error names the file (``errors.read_json``).

    The result is sorted by type code so loading is order-independent.
    """
    return read_json(Path(path), "performance file", _catalog)


def default_catalog_path() -> Path:
    """Path of the shipped synthetic archetype catalog."""
    return Path(resources.files("climbgen").joinpath("data/aircraft.json"))
