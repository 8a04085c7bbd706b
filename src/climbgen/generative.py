"""Gaussian generative model over basis weights: sampling of synthetic
thrust profiles, analytic confidence bounds from tangency points on the
chi-square ellipsoid, and JSON persistence.

The weight density is ``N(0, diag(basis.variance))``, read straight from
``learning.fit_fpca``: the training profiles' weights are their
projections onto the eigenvectors of the covariance it decomposes, so
their sample mean is 0 and their cross-covariances vanish exactly in
sample, not only in expectation.  The confidence region is the
axis-aligned ellipsoid whose radius is the chi-square quantile for the
number of modes, found by bisection on the chi-square CDF, which at an
integer number of degrees of freedom is a finite sum (Abramowitz &
Stegun 26.4.4-26.4.5).  For the thrust value at one grid node, the extreme
weights over that ellipsoid have the closed form

    w_pm = +- sqrt(q) * (c o n_hat),        c = sqrt(basis.variance),
    n_hat = (a o c) / ||a o c||_2,          a_i = psi_i(h_k),

which are the tangency points of the constant-thrust hyperplanes, and lie
exactly on the ellipsoid surface.

Every model covers the one modeled window ``learning.INTERVAL_FL`` on
``learning.default_grid()``.  Its file records them as ``interval_fl`` and
``grid_m``, and ``load_model`` refuses a file that records others.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import ClimbTrajectory, integrate_climb
from .errors import (
    DegenerateModelError,
    DegenerateNodeError,
    DomainError,
    ModelFileError,
    TooFewFlightsError,
    check_type_code,
    json_number,
    read_json,
    write_json,
)
from .learning import (
    INTERVAL_FL,
    MAX_COMPONENTS,
    MIN_FIT_PROFILES,
    FpcaBasis,
    ThrustProfile,
    default_grid,
    fit_fpca,
    flight_profiles,
)
from .pipeline import flight_blocks

if TYPE_CHECKING:
    from .performance import AircraftPerformance
    from .pipeline import Trajectory

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2

_MODEL_KEYS = {
    "schema_version",
    "type_code",
    "interval_fl",
    "grid_m",
    "mean_N",
    "modes",
    "variance",
    "total_variance",
    "n_flights_fit",
}


@dataclass(eq=False)
class GenerativeClimbModel:
    """Fitted per-type model: the basis, which is also the weight
    density, and provenance."""

    type_code: str
    basis: FpcaBasis
    n_flights_fit: int

    def mean_profile(self) -> ThrustProfile:
        """Reconstruction at the mean weights, which are 0."""
        return ThrustProfile(self.basis.grid.copy(), self.basis.mean.copy())


def fit_weight_distribution(basis: FpcaBasis) -> np.ndarray:
    """The weight variances, ``basis.variance``.  Kept only until the
    benchmark's span table (``bench/spans.py`` ``WRAPPED``) drops this name."""
    return basis.variance


def fit_type_model(
    perf: "AircraftPerformance",
    trajectories: Sequence["Trajectory"],
    n_max: int = MAX_COMPONENTS,
) -> GenerativeClimbModel:
    """Fit one type's model: a thrust profile per flight, which inverts
    the climb rates of the blips it is given, and the fPCA basis.

    The profiles are made by ``learning.flight_profiles`` a block of
    ``pipeline.flight_blocks`` at a time, so at most
    ``pipeline.BLOCK_LINES`` blips are inverted at once.  A flight it
    rejects is skipped with a warning, in flight order; fewer than
    ``MIN_FIT_PROFILES`` profiles raise ``TooFewFlightsError``, and
    profiles or a retained mode without variance raise
    ``DegenerateModelError``; both name the type.
    """
    profiles = []
    for block, offsets, t_s, alt_ft in flight_blocks(trajectories):
        for profile in flight_profiles(perf, [tr.flight_id for tr in block], t_s, alt_ft, offsets):
            if isinstance(profile, ThrustProfile):
                profiles.append(profile)
            else:
                logger.warning("%s", profile)
    if len(profiles) < MIN_FIT_PROFILES:
        raise TooFewFlightsError(f"type {perf.type_code}: only {len(profiles)} usable flights")
    try:
        basis = fit_fpca(profiles, n_max=n_max)
    except DegenerateModelError as exc:
        raise DegenerateModelError(f"type {perf.type_code}: {exc}") from None
    return GenerativeClimbModel(type_code=perf.type_code, basis=basis,
                                n_flights_fit=len(profiles))


def sample_weights(model: GenerativeClimbModel, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` weight vectors, deterministic for a fixed seed."""
    if count < 1:
        raise DomainError("count must be at least 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, model.basis.n_modes))
    return z * np.sqrt(model.basis.variance)


def sample_values(model: GenerativeClimbModel, count: int, seed: int) -> np.ndarray:
    """The thrust (N) on ``model.basis.grid`` of ``count`` sampled
    profiles, one per row: the reconstructions of drawn weights."""
    return model.basis.mean + sample_weights(model, count, seed) @ model.basis.modes


def sample_thrust(model: GenerativeClimbModel, count: int, seed: int) -> list[ThrustProfile]:
    """Sample synthetic thrust profiles: the rows of ``sample_values``."""
    return [ThrustProfile(model.basis.grid.copy(), row)
            for row in sample_values(model, count, seed)]


def confidence_radius(n: int, level: float) -> float:
    """Chi-square quantile with ``n`` degrees of freedom at ``level``, by
    bisection on the chi-square CDF.  At integer ``n`` that CDF is the
    finite sum of Abramowitz & Stegun eqs. 26.4.4-26.4.5:

        P(x) = H - exp(-x/2) * sum_j (x/2)^j / Gamma(j + 1),   j = a, a + 1, ... < n/2,

    with ``a = 0, H = 1`` for even ``n`` and ``a = 1/2, H = erf(sqrt(x/2))``
    for odd ``n``.  Each term is formed in log space, so neither a power of
    a large ``x/2`` overflows nor ``exp(-x/2)`` underflows on its own."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")

    a = 0.5 * (n % 2)
    terms = [(k + a, math.lgamma(k + a + 1.0)) for k in range(n // 2)]

    def cdf(x: float) -> float:
        half = 0.5 * x
        log_half = math.log(half)
        tail = 0.0
        for j, log_gamma in terms:
            tail += math.exp(j * log_half - half - log_gamma)
        return (math.erf(math.sqrt(half)) if a else 1.0) - tail

    hi = float(max(n, 1))
    while cdf(hi) < level:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("confidence level too close to 1")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def bound_weights(
    model: GenerativeClimbModel, k: int, level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Weights minimizing / maximizing the thrust at grid node ``k`` over
    the confidence ellipsoid (tangency closed form)."""
    n_g = model.basis.grid.size
    if not 0 <= k < n_g:
        raise DomainError(f"node index {k} outside [0, {n_g - 1}]")
    a = model.basis.modes[:, k]
    c = np.sqrt(model.basis.variance)
    n_vec = a * c
    norm = float(np.linalg.norm(n_vec))
    if norm <= 1e-300 or norm <= 1e-15 * float(np.max(c)):
        raise DegenerateNodeError(f"all modes vanish at grid node {k}")
    n_hat = n_vec / norm
    offset = math.sqrt(confidence_radius(model.basis.n_modes, level)) * (c * n_hat)
    return -offset, offset


def bound_profiles(
    model: GenerativeClimbModel, level: float = 0.95
) -> tuple[ThrustProfile, ThrustProfile]:
    """Pointwise lower and upper thrust envelopes at a confidence level.

    One tangency solve per grid node and envelope (2 * n_g in total);
    each node's bound is the basis reconstruction at the extreme weights.
    """
    grid = model.basis.grid
    lower = np.empty(grid.size)
    upper = np.empty(grid.size)
    for k in range(grid.size):
        w_lo, w_up = bound_weights(model, k, level)
        a = model.basis.modes[:, k]
        lower[k] = model.basis.mean[k] + a @ w_lo
        upper[k] = model.basis.mean[k] + a @ w_up
    return ThrustProfile(grid.copy(), lower), ThrustProfile(grid.copy(), upper)


def bound_trajectories(
    model: GenerativeClimbModel,
    perf: "AircraftPerformance",
    mass: float,
    h_start: float,
    h_end: float,
    level: float = 0.95,
) -> tuple[ClimbTrajectory, ClimbTrajectory]:
    """Slow and fast ISA bounding climbs: exactly one integration per envelope.

    The slow trajectory uses the lower thrust envelope, the fast one the
    upper; an infeasible lower envelope raises ``InfeasibleClimbError``
    naming the failing altitude.
    """
    lower, upper = bound_profiles(model, level)
    slow = integrate_climb(perf, mass, lower, h_start, h_end)
    fast = integrate_climb(perf, mass, upper, h_start, h_end)
    return slow, fast


def save_model(model: GenerativeClimbModel, path: str | Path) -> None:
    """Write the model to versioned JSON; save/load/save is byte-stable."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type_code": model.type_code,
        "interval_fl": list(INTERVAL_FL),
        "grid_m": [float(v) for v in model.basis.grid],
        "mean_N": [float(v) for v in model.basis.mean],
        "modes": [[float(v) for v in row] for row in model.basis.modes],
        "variance": [float(v) for v in model.basis.variance],
        "total_variance": model.basis.total_variance,
        "n_flights_fit": int(model.n_flights_fit),
    }
    write_json(path, doc)


def _json_numbers(value, where: str):
    """A JSON number, or an array of numbers or of such arrays, with every
    number but a float read by ``errors.json_number`` naming ``where``.  A
    float is a JSON number, and ``FpcaBasis`` refuses a non-finite one for
    the whole array."""
    if isinstance(value, list):
        return [_json_numbers(entry, where) for entry in value]
    return value if type(value) is float else json_number(value, where)


def load_model(path: str | Path) -> GenerativeClimbModel:
    """Load a model file, refusing a schema-1 file (fitted before the
    weight density was the spectrum) and unknown schema versions, a window
    other than ``INTERVAL_FL``, a ``type_code`` that
    ``errors.check_type_code`` refuses, an ``n_flights_fit`` that is not a
    JSON integer >= 1, a basis entry that ``errors.json_number`` refuses
    (text, ``true``, ``null``, a non-finite number), a variance that is
    not positive and non-increasing, a ``total_variance`` below the sum of
    ``variance`` and a grid other than ``default_grid()``, and validating
    the basis invariants."""
    path = Path(path)
    doc = read_json(path, "model file", ModelFileError)
    if isinstance(doc, dict) and doc.get("schema_version") == 1:
        raise ModelFileError(f"model file {path} has schema 1, which this version no longer "
                             f"reads; re-run climbgen fit")
    if not isinstance(doc, dict) or set(doc) != _MODEL_KEYS:
        raise ModelFileError(f"model file {path} does not match the expected schema")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelFileError(
            f"unsupported schema version {doc['schema_version']!r} "
            f"(supported: {SCHEMA_VERSION})"
        )
    if doc["interval_fl"] != list(INTERVAL_FL):
        raise ModelFileError(f"model file {path}: interval_fl must be the modeled window "
                             f"{list(INTERVAL_FL)}, got {json.dumps(doc['interval_fl'])}")
    check_type_code(doc["type_code"], f"model file {path}", ModelFileError)
    # bool is an int subclass, but JSON true is not a flight count
    if type(doc["n_flights_fit"]) is not int or doc["n_flights_fit"] < 1:
        raise ModelFileError(f"model file {path}: n_flights_fit must be a JSON integer >= 1, "
                             f"got {json.dumps(doc['n_flights_fit'])}")
    try:
        basis = FpcaBasis(
            grid=_json_numbers(doc["grid_m"], '"grid_m" entry'),
            mean=_json_numbers(doc["mean_N"], '"mean_N" entry'),
            modes=_json_numbers(doc["modes"], '"modes" entry'),
            variance=_json_numbers(doc["variance"], '"variance" entry'),
            total_variance=_json_numbers(doc["total_variance"], '"total_variance"'),
        )
    except (DomainError, DegenerateModelError, TypeError, ValueError, IndexError) as exc:
        raise ModelFileError(f"model file {path} is invalid: {exc}") from None
    if basis.grid.ndim != 1 or basis.grid.size < 2:
        raise ModelFileError(f"model file {path}: grid needs at least 2 nodes")
    if np.any(np.diff(basis.grid) <= 0.0):
        raise ModelFileError(f"model file {path}: grid is not strictly increasing")
    if not np.array_equal(basis.grid, default_grid()):
        raise ModelFileError(f"model file {path}: grid_m is not the modeled window's grid")
    if np.any(np.diff(basis.variance) > 0.0):
        raise ModelFileError(f"model file {path}: variance is not non-increasing")
    # the kept eigenvalues' sum, up to the round-off of summing in another order
    if basis.total_variance < np.sum(basis.variance) * (1.0 - 1e-12):
        raise ModelFileError(f"model file {path}: total_variance is below the sum of variance")
    _check_orthonormal(basis, path)
    return GenerativeClimbModel(type_code=doc["type_code"], basis=basis,
                                n_flights_fit=doc["n_flights_fit"])


def _check_orthonormal(basis: FpcaBasis, path: Path, tol: float = 1e-6) -> None:
    from .learning import trapezoid_weights

    w = trapezoid_weights(basis.grid)
    gram = basis.modes @ (w[:, None] * basis.modes.T)
    if not np.allclose(gram, np.eye(basis.n_modes), atol=tol):
        raise ModelFileError(f"model file {path}: basis modes are not orthonormal")
