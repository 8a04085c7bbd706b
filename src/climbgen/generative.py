"""Gaussian generative model over basis weights: sampling of synthetic
thrust profiles, analytic confidence bounds from tangency points on the
chi-square ellipsoid, and JSON persistence.

The weight density is ``N(0, diag(basis.variance))``, read straight from
``learning.fit_fpca``: the training profiles' weights are their
projections onto the eigenvectors of the covariance it decomposes, so
their sample mean is 0 and their cross-covariances vanish exactly in
sample, not only in expectation.  The confidence region is the
axis-aligned ellipsoid whose radius is the chi-square quantile for the
number of modes, found by Newton steps on the chi-square CDF, which at an
integer number of degrees of freedom is a finite sum (Abramowitz &
Stegun 26.4.4-26.4.5), with its density as the slope.  Every CDF
evaluation narrows a bracket of the root.  A Newton step already below
``1e-15 * x`` is the result, taken before the bracket test; any other step
that would leave the bracket is a bisection instead.  The steps aim half an
ulp below the level, where the stretch of ``x`` on which the computed CDF
equals the level begins, so the result is the least ``x`` whose computed
CDF reaches the level.  For the thrust value at one grid node,
the extreme weights over that ellipsoid have the closed form

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
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .dynamics import BLOCK_CLIMBS, ClimbTrajectory, integrate_climb
from .errors import (DataError, DomainError, ValidationError, check_type_code, json_count,
                     json_number, json_numbers, json_object, read_json, write_json)
from .learning import (
    INTERVAL_FL,
    MAX_COMPONENTS,
    MIN_FIT_PROFILES,
    FpcaBasis,
    ThrustProfile,
    default_grid,
    fit_fpca,
    flight_profiles,
    trapezoid_weights,
)
from .pipeline import flight_blocks

if TYPE_CHECKING:
    from .performance import AircraftPerformance
    from .pipeline import Trajectory

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2

_MODEL_KEYS = ("schema_version", "type_code", "interval_fl", "grid_m", "mean_N", "modes",
               "variance", "total_variance", "n_flights_fit")


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
    ``pipeline.BLOCK_LINES`` blips are inverted at once, and each block's
    thrust rows join the one data matrix that ``learning.fit_fpca`` takes.
    A flight it rejects is skipped with a warning, in flight order; fewer than
    ``MIN_FIT_PROFILES`` profiles, or profiles or a retained mode without
    variance, raise ``DataError``, which the caller names by type.  An
    error that no one flight causes, such as a climb-rate gain that is not
    positive, propagates from ``flight_profiles`` at the first block.
    """
    grid = default_grid()
    blocks = [np.empty((0, grid.size))]   # so that no flight joins to zero rows
    for block, offsets, t_s, alt_ft in flight_blocks(trajectories):
        values, errors = flight_profiles(perf, [tr.flight_id for tr in block], t_s, alt_ft,
                                         offsets)
        blocks.append(values)
        for error in errors:
            logger.warning("%s", error)
    values = np.concatenate(blocks)
    if len(values) < MIN_FIT_PROFILES:
        raise DataError(f"only {len(values)} usable flights")
    basis = fit_fpca(grid, values, n_max=n_max)
    return GenerativeClimbModel(type_code=perf.type_code, basis=basis,
                                n_flights_fit=len(values))


def sample_blocks(model: GenerativeClimbModel, count: int, seed: int) -> Iterator[np.ndarray]:
    """The thrust (N) on ``model.basis.grid`` of ``count`` sampled
    profiles, one per row, in blocks of ``dynamics.BLOCK_CLIMBS`` rows (the
    last of up to ``BLOCK_CLIMBS + 1``): the reconstructions of weights
    drawn from ``N(0, diag(basis.variance))``.  Every draw comes in order
    from one ``np.random.default_rng(seed)``, and the rows do not depend
    on the block size, bit for bit.  A ``count`` below 1 raises at the
    call, before any block is asked for."""
    if count < 1:
        raise DomainError("count must be at least 1")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(model.basis.variance)

    def blocks():
        start = 0
        while start < count:
            # a lone last row joins the block before it: numpy multiplies one
            # row by its matrix-vector kernel, whose sums can differ in the
            # last bit from those of the matrix-matrix kernel
            n = count - start if count - start <= BLOCK_CLIMBS + 1 else BLOCK_CLIMBS
            z = rng.standard_normal((n, model.basis.n_modes))
            yield model.basis.mean + (z * scale) @ model.basis.modes
            start += n
    return blocks()


def sample_thrust(model: GenerativeClimbModel, count: int, seed: int) -> list[ThrustProfile]:
    """Sample synthetic thrust profiles: the rows of ``sample_blocks``."""
    return [ThrustProfile(model.basis.grid.copy(), row)
            for values in sample_blocks(model, count, seed) for row in values]


def confidence_radius(n: int, level: float) -> float:
    """Chi-square quantile with ``n`` degrees of freedom at ``level``, by
    safeguarded Newton steps on the chi-square CDF (``rtsafe``, Press et
    al., *Numerical Recipes* 9.4).  At integer ``n`` that CDF is the finite
    sum of Abramowitz & Stegun eqs. 26.4.4-26.4.5:

        P(x) = H - exp(-x/2) * sum_j (x/2)^j / Gamma(j + 1),   j = a, a + 1, ... < n/2,

    with ``a = 0, H = 1`` for even ``n`` and ``a = 1/2, H = erf(sqrt(x/2))``
    for odd ``n``, and its derivative is the density
    ``x^(n/2 - 1) exp(-x/2) / (2^(n/2) Gamma(n/2))``.  Each term is formed in
    log space, so neither a power of a large ``x/2`` overflows nor
    ``exp(-x/2)`` underflows on its own.

    The steps start at ``x = n`` and stay inside a bracket ``[lo, hi]``
    with ``P(lo) < level <= P(hi)`` that every CDF evaluation narrows.  A
    Newton step shorter than ``1e-15 * x`` is returned at once, before the
    bracket test, as ``rtsafe`` tests each step for convergence before it
    bisects: such a step can land on an end of the bracket, and bisecting
    back from the other end would take many more evaluations.  Any
    other step that would not land strictly inside the bracket, or that the
    density cannot take because it underflowed to 0, is a bisection
    instead, or a doubling of ``x`` while ``hi`` is unbounded; the search
    also stops at the first such step below ``1e-15 * x``.

    Near the root the computed CDF moves in steps of an ulp of ``level``, so
    it equals ``level`` on a whole stretch of ``x``, and a step aimed at
    ``level`` itself could stop anywhere on it.  So each step aims half an
    ulp below ``level``, where the stretch begins, and the result is, to
    the tolerance, the least ``x`` whose computed CDF reaches ``level``:
    the quantile as a bisection on the same CDF defines it
    (``reference_confidence_radius`` in the tests)."""
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

    log_norm = math.log(2.0) + math.lgamma(0.5 * n)

    def density(x: float) -> float:
        half = 0.5 * x
        return math.exp((0.5 * n - 1.0) * math.log(half) - half - log_norm)

    half_ulp = 0.5 * math.ulp(level)
    lo, hi, x = 0.0, math.inf, float(n)
    for _ in range(200):
        p = cdf(x)
        if p < level:
            lo = x
        else:
            hi = x
        slope = density(x)
        if slope > 0.0:
            x_new = x - (p - level + half_ulp) / slope
            if abs(x_new - x) <= 1e-15 * x:
                return x_new
        else:
            x_new = lo
        if not lo < x_new < hi:
            if hi == math.inf:
                x_new = 2.0 * x
                if x_new > 1e12:
                    raise DomainError("confidence level too close to 1")
            else:
                x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    return x


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
        raise DataError(f"all modes vanish at grid node {k}")
    n_hat = n_vec / norm
    offset = math.sqrt(confidence_radius(model.basis.n_modes, level)) * (c * n_hat)
    return -offset, offset


def bound_profiles(
    model: GenerativeClimbModel, level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise lower and upper thrust envelopes (N) at a confidence
    level: two arrays on ``model.basis.grid``.

    One tangency solve per grid node; each node's bounds are the basis
    reconstructions at its two extreme weights, which are each other's
    negatives, so the bounds lie at the same distance from the mean.
    """
    half = np.empty(model.basis.grid.size)
    for k in range(half.size):
        half[k] = model.basis.modes[:, k] @ bound_weights(model, k, level)[1]
    return model.basis.mean - half, model.basis.mean + half


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
    grid = model.basis.grid
    lower, upper = bound_profiles(model, level)
    slow = integrate_climb(perf, mass, ThrustProfile(grid, lower), h_start, h_end)
    fast = integrate_climb(perf, mass, ThrustProfile(grid, upper), h_start, h_end)
    return slow, fast


def save_model(model: GenerativeClimbModel, path: str | Path) -> None:
    """Write the model to versioned JSON; save/load/save is byte-stable."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type_code": model.type_code,
        "interval_fl": list(INTERVAL_FL),
        "grid_m": model.basis.grid.tolist(),
        "mean_N": model.basis.mean.tolist(),
        "modes": model.basis.modes.tolist(),
        "variance": model.basis.variance.tolist(),
        "total_variance": model.basis.total_variance,
        "n_flights_fit": int(model.n_flights_fit),
    }
    write_json(path, doc)


def _model(doc) -> GenerativeClimbModel:
    if isinstance(doc, dict) and doc.get("schema_version") == 1:
        raise ValidationError("schema_version 1 is no longer read; re-run climbgen fit")
    json_object(doc, "", _MODEL_KEYS)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {json.dumps(doc['schema_version'])} "
                              f"(supported: {SCHEMA_VERSION})")
    if doc["interval_fl"] != list(INTERVAL_FL):
        raise ValidationError(f"interval_fl must be the modeled window {list(INTERVAL_FL)}, "
                              f"got {json.dumps(doc['interval_fl'])}")
    check_type_code(doc["type_code"], '"type_code"')
    n_flights_fit = json_count(doc["n_flights_fit"], '"n_flights_fit"')
    grid = json_numbers(doc["grid_m"], '"grid_m"')
    if not np.array_equal(grid, default_grid()):
        raise ValidationError("grid_m is not the modeled window's grid")
    basis = FpcaBasis(grid=grid, mean=json_numbers(doc["mean_N"], '"mean_N"'),
                      modes=json_numbers(doc["modes"], '"modes"', depth=2),
                      variance=json_numbers(doc["variance"], '"variance"'),
                      total_variance=json_number(doc["total_variance"], '"total_variance"'))
    if np.any(np.diff(basis.variance) > 0.0):
        raise ValidationError("variance is not non-increasing")
    # the kept eigenvalues' sum, up to the round-off of summing in another order
    if basis.total_variance < np.sum(basis.variance) * (1.0 - 1e-12):
        raise ValidationError("total_variance is below the sum of variance")
    gram = basis.modes @ (trapezoid_weights(grid)[:, None] * basis.modes.T)
    if not np.allclose(gram, np.eye(basis.n_modes), atol=1e-6):
        raise ValidationError("basis modes are not orthonormal")
    return GenerativeClimbModel(type_code=doc["type_code"], basis=basis,
                                n_flights_fit=n_flights_fit)


def load_model(path: str | Path) -> GenerativeClimbModel:
    """Load a model file.  Every error is a ``ValidationError`` naming the
    file (``errors.read_json``), and the key at fault where there is one.
    It refuses a schema-1 file (fitted before the weight density was the
    spectrum) and unknown schema versions, a missing or unknown key, a
    window other than ``INTERVAL_FL``, a ``type_code`` that
    ``errors.check_type_code`` refuses, an ``n_flights_fit`` that is not a
    count, a basis entry that is not a finite JSON number, a grid other
    than ``default_grid()``, a variance that is not positive and
    non-increasing, a ``total_variance`` below the sum of ``variance``, and
    modes that are not orthonormal."""
    return read_json(Path(path), "model file", _model)
