"""Probabilistic thrust corrections for total-energy climb models.

Learns per-aircraft-type effective thrust profiles from radar-derived
climb data, fits a generative basis-plus-Gaussian-weights model, and
provides analytic confidence bounds on climb performance.
"""

from .atmosphere import (
    AtmosphereState,
    SpeedSchedule,
    cas_to_tas,
    crossover_altitude,
    fl_to_m,
    isa_state,
    mach_to_tas,
)
from .dynamics import ClimbTrajectory, drag, energy_share, integrate_climb, rocd
from .generative import (
    GenerativeClimbModel,
    bound_profiles,
    bound_trajectories,
    bound_weights,
    confidence_radius,
    load_model,
    sample_thrust,
    save_model,
)
from .learning import (
    FpcaBasis,
    ThrustProfile,
    default_grid,
    fit_fpca,
    invert_thrust,
    profile_from_flight,
    project_weights,
    select_components,
)
from .performance import (
    AircraftPerformance,
    load_performance,
    min_level_thrust,
    nominal_thrust,
)
from .pipeline import (
    DatasetSplit,
    FleetScenario,
    Trajectory,
    TypeScenario,
    filter_climbs,
    ingest,
    simulate_fleet,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "AircraftPerformance",
    "AtmosphereState",
    "ClimbTrajectory",
    "DatasetSplit",
    "FleetScenario",
    "FpcaBasis",
    "GenerativeClimbModel",
    "SpeedSchedule",
    "ThrustProfile",
    "Trajectory",
    "TypeScenario",
    "bound_profiles",
    "bound_trajectories",
    "bound_weights",
    "cas_to_tas",
    "confidence_radius",
    "crossover_altitude",
    "default_grid",
    "drag",
    "energy_share",
    "filter_climbs",
    "fit_fpca",
    "fl_to_m",
    "ingest",
    "integrate_climb",
    "invert_thrust",
    "isa_state",
    "load_model",
    "load_performance",
    "mach_to_tas",
    "min_level_thrust",
    "nominal_thrust",
    "profile_from_flight",
    "project_weights",
    "rocd",
    "sample_thrust",
    "save_model",
    "select_components",
    "simulate_fleet",
    "split",
]
