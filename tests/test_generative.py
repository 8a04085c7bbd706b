"""Generative weight model tests: the fitted weight density, sampling,
chi-square radius, ellipsoid tangency bounds, and persistence."""

import json
import logging
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from climbgen import generative, learning, pipeline
from climbgen.errors import ClimbgenError, DataError, DomainError, ValidationError
from climbgen.generative import (
    GenerativeClimbModel,
    bound_profiles,
    bound_trajectories,
    bound_weights,
    confidence_radius,
    fit_type_model,
    load_model,
    sample_blocks,
    sample_thrust,
    save_model,
)
from climbgen.learning import (INTERVAL_FL, FpcaBasis, default_grid, fit_fpca, profile_from_flight,
                               project_weights, trapezoid_weights)
from climbgen.pipeline import Trajectory, flight_blocks


def make_model(grid=None, mean_level=85000.0, variances=(9e6, 4e6, 1e6),
               mu=(0.0, 0.0, 0.0), type_code="NBJT"):
    """Cosine modes; the weights ``mu`` of an off-centre ellipsoid are
    folded into the basis mean, since the weight density is centred."""
    grid = default_grid() if grid is None else grid
    length = grid[-1] - grid[0]
    u = (grid - grid[0]) / length
    modes = np.stack([
        np.sqrt(2.0 / length) * np.cos((i + 1) * np.pi * u) for i in range(len(variances))
    ])
    basis = FpcaBasis(
        grid=grid,
        mean=mean_level - 1.5 * (grid - grid[0]) + np.array(mu, float) @ modes,
        modes=modes,
        variance=np.array(variances, float),
        total_variance=1.1 * sum(variances),
    )
    return GenerativeClimbModel(type_code=type_code, basis=basis, n_flights_fit=100)


def schema_1(doc):
    """A schema-2 model document in the schema-1 layout, which stored the
    weight mean and the spectrum twice."""
    old = {k: v for k, v in doc.items() if k not in ("variance", "total_variance")}
    return {**old, "schema_version": 1, "mu_w": [0.0] * len(doc["variance"]),
            "sigma_diag": doc["variance"],
            "explained_variance": [v / doc["total_variance"] for v in doc["variance"]]}


class TestFitWeightDistribution:
    """The fitted weight density is N(0, diag(basis.variance))."""

    def test_all_equal_weights_degenerate(self):
        # a mode along which every weight is equal has zero variance
        grid = default_grid()
        with pytest.raises(DataError, match="zero variance in a weight coordinate"):
            FpcaBasis(grid=grid, mean=np.zeros(grid.size),
                      modes=np.full((1, grid.size), 1.0 / np.sqrt(grid[-1] - grid[0])),
                      variance=np.zeros(1), total_variance=1.0)

    def test_projected_training_weights_centered(self, small_world, catalog):
        # the fPCA score identity: the training profiles' weights have sample
        # mean 0 and sample covariance (ddof 1) exactly diag(variance)
        model, split_data, _, _ = small_world
        basis = model.basis
        profiles = [profile_from_flight(catalog["NBJT"], tr) for tr in split_data.train]
        w = np.stack([project_weights(basis, p) for p in profiles])
        assert len(profiles) == model.n_flights_fit
        assert np.all(np.abs(w.mean(axis=0)) <= 1e-9 * np.sqrt(basis.variance))
        cov = np.cov(w, rowvar=False, ddof=1)
        assert np.max(np.abs(cov - np.diag(basis.variance))) <= 1e-9 * basis.variance[0]


class TestFitTypeModel:
    def test_rejected_flight_skipped_with_warning(self, small_world, catalog, caplog):
        model, split_data, _, _ = small_world
        short = Trajectory("SHORT", "NBJT", [0.0, 6.0], [20000.0, 20100.0])
        with caplog.at_level(logging.WARNING, logger="climbgen.generative"):
            again = fit_type_model(catalog["NBJT"], [short] + split_data.train)
        assert "flight SHORT" in caplog.text
        assert again.type_code == "NBJT"
        assert again.n_flights_fit == model.n_flights_fit == len(split_data.train)
        assert np.array_equal(again.basis.modes, model.basis.modes)
        assert np.array_equal(again.basis.variance, model.basis.variance)

    def test_blocks_fit_each_flight_as_it_is_profiled_alone(self, radar_fleet, catalog, caplog,
                                                           monkeypatch):
        nbjt = catalog["NBJT"]
        monkeypatch.setattr(pipeline, "BLOCK_LINES", 700)
        assert len(list(flight_blocks(radar_fleet))) >= 5
        fitted = []   # the profiles fit_type_model hands the fPCA fit

        def recording(grid, values, n_max):
            fitted.append(values)
            return fit_fpca(grid, values, n_max)

        monkeypatch.setattr(generative, "fit_fpca", recording)
        with caplog.at_level(logging.WARNING, logger="climbgen.generative"):
            model = fit_type_model(nbjt, radar_fleet)
        alone, rejected = [], []
        for tr in radar_fleet:
            try:
                alone.append(profile_from_flight(nbjt, tr))
            except ClimbgenError as exc:
                rejected.append(str(exc))
        assert [r.getMessage() for r in caplog.records] == rejected
        assert model.n_flights_fit == len(alone) == len(fitted[0])
        assert [row.tobytes() for row in fitted[0]] == [p.values.tobytes() for p in alone]
        # every kind of rejection is among them
        for reason in ("blips in the altitude interval", "collapse to a single altitude",
                       "climb rate not finite at"):
            assert any(reason in text for text in rejected), reason

    def test_an_error_no_flight_causes_raises_once(self, small_world, catalog, caplog,
                                                   monkeypatch):
        # at delta_T = 240 K the climb-rate gain is not positive above 7408 m:
        # the fit raises it at the first block, and no flight is warned of
        _, split_data, _, _ = small_world
        monkeypatch.setattr(generative, "flight_profiles",
                            partial(learning.flight_profiles, delta_T=240.0))
        with caplog.at_level(logging.WARNING, logger="climbgen.generative"):
            with pytest.raises(ValidationError, match="climb-rate gain is not positive"):
                fit_type_model(catalog["NBJT"], split_data.train)
        assert not caplog.records

    def test_peak_memory_is_one_block_plus_the_profiles(self, catalog):
        # the flights are profiled a block of BLOCK_LINES blips at a time:
        # the traced peak is the profiles plus one block's arrays, about
        # 13 B per blip here; the whole fleet in one block takes about 98
        k = np.arange(1000.0)
        trajectories = [Trajectory(f"F{i:04d}", "NBJT", k * 4.0, 5000.0 + k * (40.0 + i % 7))
                        for i in range(8 * pipeline.BLOCK_LINES // 1000)]
        n = 1000 * len(trajectories)
        tracemalloc.start()
        try:
            model = fit_type_model(catalog["NBJT"], trajectories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.n_flights_fit == len(trajectories)
        assert peak / n < 32.0, f"{peak / n:.0f} B/blip"

    def test_too_few_flights(self, small_world, catalog):
        _, split_data, _, _ = small_world
        with pytest.raises(DataError, match="^only 9 usable flights$"):
            fit_type_model(catalog["NBJT"], split_data.train[:9])


class TestSampleThrust:
    def test_fixed_seed_is_deterministic(self):
        model = make_model()
        a = sample_thrust(model, 10, seed=123)
        b = sample_thrust(model, 10, seed=123)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)

    def test_vanishing_variance_collapses_to_mean(self):
        model = make_model(variances=(1e-20, 1e-20, 1e-20))
        recon = model.mean_profile().values
        for profile in sample_thrust(model, 5, seed=7):
            assert profile.values == pytest.approx(recon, abs=1e-3)

    def test_monte_carlo_mean_converges(self):
        model = make_model(mu=(500.0, -200.0, 100.0))
        n = 100_000
        values = np.stack([p.values for p in sample_thrust(model, n, seed=42)])
        recon = model.mean_profile().values
        pointwise_sd = np.sqrt(
            np.sum(model.basis.variance[:, None] * model.basis.modes**2, axis=0)
        )
        se = pointwise_sd / np.sqrt(n)
        assert np.all(np.abs(values.mean(axis=0) - recon) < 3.0 * se + 1e-9)

    def test_blocks_are_one_draw_bit_for_bit(self, monkeypatch):
        # a lone last row would take numpy's matrix-vector kernel, which
        # differs in the last bit at 163 = 2 * 81 + 1 samples of this model
        monkeypatch.setattr(generative, "BLOCK_CLIMBS", 81)
        model = make_model(variances=tuple(10.0 ** np.arange(7, -3, -1)), mu=(0.0,) * 10)
        scale = np.sqrt(model.basis.variance)
        for count in range(1, 250):
            blocks = list(sample_blocks(model, count, 7))
            assert [len(b) for b in blocks[:-1]] == [81] * (len(blocks) - 1)
            assert 1 < len(blocks[-1]) <= 82 or count == 1
            # the weights of all the rows in one draw, reconstructed at once
            z = np.random.default_rng(7).standard_normal((count, model.basis.n_modes))
            one_draw = model.basis.mean + (z * scale) @ model.basis.modes
            assert np.array_equal(np.concatenate(blocks), one_draw)

    def test_empirical_covariance_nearly_diagonal(self, monkeypatch):
        monkeypatch.setattr(generative, "BLOCK_CLIMBS", 10_000)
        model = make_model()
        # the drawn weights, solved back from the sampled profiles
        w = np.concatenate([
            np.linalg.lstsq(model.basis.modes.T, (values - model.basis.mean).T, rcond=None)[0].T
            for values in sample_blocks(model, 100_000, 3)])
        corr = np.corrcoef(w.T)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 0.02


def reference_confidence_radius(n, level):
    """The chi-square quantile by bisection on the same finite-sum CDF
    (Abramowitz & Stegun 26.4.4-26.4.5), down to a bracket of 1e-14
    relative: the oracle for ``confidence_radius``'s Newton steps."""
    a = 0.5 * (n % 2)
    terms = [(k + a, math.lgamma(k + a + 1.0)) for k in range(n // 2)]

    def cdf(x):
        half = 0.5 * x
        tail = sum(math.exp(j * math.log(half) - half - log_gamma) for j, log_gamma in terms)
        return (math.erf(math.sqrt(half)) if a else 1.0) - tail

    hi = float(n)
    while cdf(hi) < level:
        hi *= 2.0
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


ORACLE_LEVELS = (0.01, 0.05, 0.5, 0.68, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)


class CountingMath:
    """Stands in for ``generative.math`` and counts the ``log`` calls.  Each
    step of ``confidence_radius`` takes the log of ``x / 2`` once in the CDF
    and once in the density, so half the count is its CDF evaluations."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


class TestConfidenceRadius:
    def test_one_dof_is_squared_normal_quantile(self):
        assert confidence_radius(1, 0.95) == pytest.approx(3.8415, abs=1e-4)
        assert confidence_radius(1, 0.95) == pytest.approx(1.959963984540054**2, rel=1e-10)

    def test_two_dof_closed_form(self):
        assert confidence_radius(2, 0.95) == pytest.approx(5.9915, abs=1e-4)
        assert confidence_radius(2, 0.95) == pytest.approx(-2.0 * np.log(0.05), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 10, 30])
    @pytest.mark.parametrize("level", [0.05, 0.5, 0.9, 0.95, 0.99])
    def test_matches_scipy(self, n, level):
        assert confidence_radius(n, level) == pytest.approx(
            scipy.stats.chi2.ppf(level, n), rel=1e-9
        )

    @pytest.mark.parametrize("level", [1e-6, 1e-10])
    def test_small_level_matches_scipy(self, level):
        # a quantile far below 1 still converges to a relative tolerance
        assert confidence_radius(1, level) == pytest.approx(
            scipy.stats.chi2.ppf(level, 1), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("level", ORACLE_LEVELS)
    def test_matches_the_bisection_oracle(self, level):
        for n in range(1, 41):
            assert confidence_radius(n, level) == pytest.approx(
                reference_confidence_radius(n, level), rel=1e-13, abs=0.0), n

    def test_increases_with_level_and_with_n(self):
        radii = np.array([[confidence_radius(n, level) for level in ORACLE_LEVELS]
                          for n in range(1, 41)])
        assert np.all(np.diff(radii, axis=1) > 0.0)
        assert np.all(np.diff(radii, axis=0) > 0.0)

    def test_cdf_evaluations_on_the_oracle_grid(self, monkeypatch):
        # a Newton step within tolerance is taken even on an end of the
        # bracket, so no cell bisects back from far away; the bounds also
        # keep the 200-step fallback out of reach
        counting = CountingMath()
        monkeypatch.setattr(generative, "math", counting)

        def evaluations(n, level):
            counting.logs = 0
            confidence_radius(n, level)
            return counting.logs // 2

        counts = {(n, level): evaluations(n, level)
                  for n in range(1, 41) for level in ORACLE_LEVELS}
        assert sum(counts.values()) <= 6000
        assert max(counts.values()) <= 50
        # the levels model_queries bounds at, on models of up to 10 modes
        assert max(counts[n, level] for n in range(1, 11) for level in (0.9, 0.95, 0.99)) <= 11

    def test_tiny_level_gives_tiny_radius(self):
        assert confidence_radius(2, 1e-10) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            confidence_radius(0, 0.95)
        with pytest.raises(DomainError):
            confidence_radius(2, 1.0)


class TestBoundWeights:
    def test_univariate_reduction(self):
        grid = default_grid()
        length = grid[-1] - grid[0]
        mode = np.full(grid.size, 1.0 / np.sqrt(length))
        basis = FpcaBasis(grid=grid, mean=np.full(grid.size, 8e4), modes=mode[None, :],
                          variance=np.array([4.0]), total_variance=4.0)
        model = GenerativeClimbModel("X", basis, 50)
        lo, up = bound_weights(model, 10, level=0.95)
        sigma = 2.0
        z = np.sqrt(confidence_radius(1, 0.95))
        assert up[0] == pytest.approx(z * sigma, rel=1e-9)
        assert lo[0] == pytest.approx(-z * sigma, rel=1e-9)
        assert z == pytest.approx(1.959963984540054, rel=1e-9)

    def test_points_on_ellipsoid_surface(self):
        model = make_model(mu=(100.0, -50.0, 20.0))
        radius = confidence_radius(3, 0.95)
        for k in (0, 17, 50, 99):
            for w in bound_weights(model, k, 0.95):
                q = np.sum(w**2 / model.basis.variance)
                assert q == pytest.approx(radius, rel=1e-9)

    def test_matches_constrained_optimization(self):
        # independent numerical oracle: maximize a.w over the ellipsoid with
        # SLSQP from a perturbed interior start
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(1, 6))
            var = rng.uniform(0.5, 50.0, n)
            mu = rng.normal(0.0, 10.0, n)
            grid = default_grid()
            length = grid[-1] - grid[0]
            u = (grid - grid[0]) / length
            modes = np.stack([np.sqrt(2.0 / length) * np.cos((i + 1) * np.pi * u)
                              for i in range(n)])
            # the ellipsoid's centre mu is the basis mean's offset
            basis = FpcaBasis(grid=grid, mean=mu @ modes, modes=modes, variance=var,
                              total_variance=var.sum())
            model = GenerativeClimbModel("X", basis, 50)
            k = int(rng.integers(0, grid.size))
            a = modes[:, k]
            radius = confidence_radius(n, 0.95)

            # well-conditioned parametrization: w = mu + sqrt(radius var) u,
            # maximize over the unit ball ||u|| <= 1, multi-start
            coeff = a * np.sqrt(radius * var)

            def neg_obj(u):
                return -float(coeff @ u)

            def constraint(u):
                return 1.0 - float(u @ u)

            best = -np.inf
            for _ in range(5):
                x0 = rng.normal(0.0, 0.3, n)
                x0 /= max(1.0, 2.0 * np.linalg.norm(x0))
                res = scipy.optimize.minimize(
                    neg_obj, x0, method="SLSQP",
                    constraints=[{"type": "ineq", "fun": constraint}],
                    options={"maxiter": 500, "ftol": 1e-14},
                )
                if res.success:
                    best = max(best, -res.fun)
            assert np.isfinite(best)
            numeric_max = float(a @ mu) + best
            _, w_up = bound_weights(model, k, 0.95)
            assert float(basis.mean[k] + a @ w_up) == pytest.approx(numeric_max, rel=1e-6)

    def test_degenerate_node(self):
        grid = default_grid()
        length = grid[-1] - grid[0]
        u = (grid - grid[0]) / length
        mode = np.sqrt(2.0 / length) * np.sin(np.pi * u)   # vanishes at both ends
        norm = np.sqrt(np.sum(trapezoid_weights(grid) * mode**2))
        basis = FpcaBasis(grid=grid, mean=np.zeros(grid.size), modes=(mode / norm)[None, :],
                          variance=np.ones(1), total_variance=1.0)
        model = GenerativeClimbModel("X", basis, 50)
        with pytest.raises(DataError, match="all modes vanish at grid node 0"):
            bound_weights(model, 0, 0.95)

    def test_bad_node_index(self):
        model = make_model()
        with pytest.raises(DomainError):
            bound_weights(model, 100, 0.95)


class TestBoundProfiles:
    def test_collapse_at_tiny_level(self):
        model = make_model(mu=(300.0, 100.0, -50.0))
        lower, upper = bound_profiles(model, level=1e-12)
        recon = model.basis.mean
        assert lower == pytest.approx(recon, abs=0.05)
        assert upper == pytest.approx(recon, abs=0.05)

    @pytest.mark.parametrize("fitted", [False, True])
    def test_equals_the_closed_form_envelope(self, small_world, fitted):
        # the tangency bound at each node is the mean plus or minus
        # sqrt(q) * sqrt(sum_i variance_i * mode_i(h)^2), q the chi-square
        # radius of the model's mode count
        models = ([small_world[0]] if fitted else
                  [make_model(mu=(300.0, 100.0, -50.0)), make_model(variances=(4e6,), mu=(0.0,)),
                   make_model(variances=(9e6, 4e6, 1e6, 2.5e5, 1e4), mu=(0.0,) * 5)])
        for model in models:
            basis = model.basis
            for level in (1e-6, 0.5, 0.9, 0.95, 0.99):
                half = (math.sqrt(confidence_radius(basis.n_modes, level))
                        * np.sqrt(basis.variance @ basis.modes**2))
                lower, upper = bound_profiles(model, level)
                for bound in (lower, upper):   # two arrays on the model's grid
                    assert isinstance(bound, np.ndarray) and bound.dtype == np.float64
                    assert bound.shape == basis.grid.shape
                assert np.all(np.abs(upper - (basis.mean + half)) <= 1e-12 * half)
                assert np.all(np.abs(lower - (basis.mean - half)) <= 1e-12 * half)

    def test_pointwise_ordering(self):
        model = make_model(mu=(300.0, 100.0, -50.0))
        lower, upper = bound_profiles(model, level=0.95)
        recon = model.basis.mean
        assert np.all(lower <= recon + 1e-9)
        assert np.all(upper >= recon - 1e-9)

    def test_dominates_sampled_percentiles(self):
        model = make_model()
        lower, upper = bound_profiles(model, level=0.95)
        values = np.stack([p.values for p in sample_thrust(model, 100_000, seed=11)])
        hi = np.percentile(values, 97.5, axis=0)
        lo = np.percentile(values, 2.5, axis=0)
        assert np.all(upper >= hi - 1e-6)
        assert np.all(lower <= lo + 1e-6)

    def test_matches_rejection_sampled_surface_extremes(self):
        # max of the node value over a dense sample of ellipsoid-surface points
        model = make_model(mu=(500.0, -100.0, 50.0))
        _, upper = bound_profiles(model, level=0.95)
        rng = np.random.default_rng(23)
        direction = rng.standard_normal((1_000_000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.sqrt(confidence_radius(3, 0.95))
        w_surface = radius * direction * np.sqrt(model.basis.variance)
        for k in (0, 33, 99):
            node_values = model.basis.mean[k] + w_surface @ model.basis.modes[:, k]
            assert upper[k] >= node_values.max()
            assert upper[k] == pytest.approx(node_values.max(), rel=1e-3)


class TestBoundTrajectories:
    def test_ordering_and_cost(self, nbjt, count_calls):
        model = make_model(mean_level=100000.0, variances=(4e6, 2e6, 1e6))
        grid = model.basis.grid
        calls = count_calls(generative, "integrate_climb")
        slow, fast = bound_trajectories(model, nbjt, nbjt.nominal_mass,
                                        float(grid[0]), float(grid[-1]), 0.95)
        assert len(calls) == 2
        assert np.all(fast.t <= slow.t + 1e-9)
        from climbgen.dynamics import integrate_climb
        mean_traj = integrate_climb(nbjt, nbjt.nominal_mass, model.mean_profile(),
                                    float(grid[0]), float(grid[-1]))
        assert fast.t[-1] <= mean_traj.t[-1] <= slow.t[-1]

    def test_nesting_in_level(self, nbjt):
        model = make_model(mean_level=100000.0, variances=(4e6, 2e6, 1e6))
        grid = model.basis.grid
        slow95, fast95 = bound_trajectories(model, nbjt, nbjt.nominal_mass,
                                            float(grid[0]), float(grid[-1]), 0.95)
        slow50, fast50 = bound_trajectories(model, nbjt, nbjt.nominal_mass,
                                            float(grid[0]), float(grid[-1]), 0.50)
        assert fast95.t[-1] <= fast50.t[-1]
        assert slow50.t[-1] <= slow95.t[-1]


class TestPersistence:
    def test_round_trip_preserves_bounds(self, tmp_path):
        model = make_model(mu=(120.0, -40.0, 10.0))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        lo_a, up_a = bound_profiles(model)
        lo_b, up_b = bound_profiles(loaded)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(up_a, up_b)
        assert loaded.n_flights_fit == model.n_flights_fit
        assert json.loads(path.read_text())["interval_fl"] == list(INTERVAL_FL)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = make_model()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_is_corruption(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 200])
        with pytest.raises(ValidationError, match="model file .* is not valid JSON"):
            load_model(path)

    def test_unknown_schema_version_refused(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for bad, match in (({**doc, "schema_version": 99}, "version"),
                           (schema_1(doc), "schema_version 1 is no longer read.*re-run climbgen fit")):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValidationError, match=f"model file .*{match}"):
                load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("variance", [9e6, 4e6, 0.0], "zero variance"),
        ("variance", [9e6, 4e6, 5e6], "variance is not non-increasing"),
        ("total_variance", 1e7, "total_variance is below the sum of variance"),
    ], ids=["zero", "increasing", "total-below-sum"])
    def test_spectrum_out_of_contract_refused(self, tmp_path, key, value, message):
        path = tmp_path / "model.json"
        save_model(make_model(), path)
        doc = {**json.loads(path.read_text()), key: value}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"model file .*{message}") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("spoil", [json.dumps, lambda value: True], ids=["text", "true"])
    @pytest.mark.parametrize("key", ["grid_m", "mean_N", "modes", "variance", "total_variance"])
    def test_basis_entries_that_are_no_json_number_refused(self, tmp_path, key, spoil):
        # each of the key's numbers as JSON text, or as true
        path = tmp_path / "model.json"
        save_model(make_model(), path)
        doc = json.loads(path.read_text())
        value = doc[key]
        doc[key] = (spoil(value) if key == "total_variance"
                    else [[spoil(v) for v in row] for row in value] if key == "modes"
                    else [spoil(v) for v in value])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=f'model file .*"{key}".* must be a finite number') as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, spoil, message", [
        ("modes", lambda modes: [modes[0][:-1]] + modes[1:],
         '"modes" must be an array of equal-length arrays of finite numbers, got lengths [99, 100]'),
        ("modes", lambda modes: modes[0], '"modes" must be an array of equal-length arrays'),
        ("grid_m", lambda grid: [grid], '"grid_m" entry must be a finite number, got [4572.0, '),
        ("mean_N", lambda mean: mean[:-1],
         "basis arrays are dimensionally inconsistent: mean (99,), modes (3, 100)"),
    ], ids=["ragged-modes", "flat-modes", "nested-grid", "short-mean"])
    def test_basis_array_of_the_wrong_shape_refused(self, tmp_path, key, spoil, message):
        path = tmp_path / "model.json"
        save_model(make_model(), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: spoil(doc[key])}))
        with pytest.raises(ValidationError, match="model file") as info:
            load_model(path)
        assert f"model file {path}: {message}" in str(info.value)

    def test_other_window_refused(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(make_model(), path)
        doc = json.loads(path.read_text())
        doc["interval_fl"] = [145.0, 330.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="model file .*: interval_fl must be") as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert "[145.0, 330.0]" in str(info.value) and "[150.0, 325.0]" in str(info.value)

    def test_unknown_keys_refused(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"model file .*: unknown key\(s\) extra"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="model file not found"):
            load_model(tmp_path / "nope.json")
