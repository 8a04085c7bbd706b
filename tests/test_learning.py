"""Thrust inversion, profile extraction, and functional-PCA tests."""

import numpy as np
import pytest

from climbgen.atmosphere import FT, G0, fl_to_m, isa_state, schedule_speed
from climbgen import dynamics, learning
from climbgen.dynamics import energy_share, integrate_climb, rate_factors, rocd
from climbgen.errors import ClimbgenError, DataError, DomainError, ValidationError
from climbgen.learning import (
    GRID_SIZE,
    MIN_PROFILE_BLIPS,
    FpcaBasis,
    ThrustProfile,
    default_grid,
    derive_rocd,
    fit_fpca,
    flight_profiles,
    invert_thrust,
    profile_from_flight,
    project_weights,
    select_components,
    trapezoid_weights,
)
from climbgen.performance import min_level_thrust, nominal_thrust
from climbgen.pipeline import Trajectory, truth_modes


def orthonormal_shapes(grid, count):
    """Cosine shapes with unit quadrature norm, for synthetic constructions."""
    length = grid[-1] - grid[0]
    u = (grid - grid[0]) / length
    return np.stack([np.sqrt(2.0 / length) * np.cos((i + 1) * np.pi * u) for i in range(count)])


def make_traj(flight_id, t, alt_ft):
    return Trajectory(flight_id=flight_id, type_code="NBJT", t_s=np.asarray(t, float),
                      alt_ft=np.asarray(alt_ft, float))


class TestInvertThrust:
    def test_zero_climb_matches_min_level_thrust(self, nbjt):
        h = fl_to_m(np.array([170.0, 250.0, 310.0]))
        for delta_T in (-15.0, 0.0, 15.0):
            t_hr = invert_thrust(nbjt, nbjt.nominal_mass, 0.0, h, delta_T)
            assert np.array_equal(t_hr, min_level_thrust(nbjt, h, delta_T))

    @pytest.mark.parametrize("r", [2.54, 10.0, 20.0])
    def test_forward_round_trip(self, nbjt, r):
        h = fl_to_m(np.array([160.0, 240.0, 320.0]))
        t_hr = invert_thrust(nbjt, nbjt.nominal_mass, r, h)
        assert rocd(nbjt, nbjt.nominal_mass, t_hr, h) == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize("delta_T", [-15.0, 10.0, 15.0])
    def test_forward_round_trip_with_temperature_offset(self, catalog, delta_T):
        h = np.linspace(fl_to_m(150.0), fl_to_m(325.0), 200)
        r = np.linspace(2.54, 20.0, h.size)
        for perf in catalog.values():
            t_hr = invert_thrust(perf, perf.nominal_mass, r, h, delta_T)
            back = rocd(perf, perf.nominal_mass, t_hr, h, delta_T)
            assert np.max(np.abs(back - r) / r) <= 1e-12, perf.type_code

    def test_affine_in_rocd_with_known_slope(self, nbjt):
        h = np.array([fl_to_m(200.0)])
        state = isa_state(h)
        v, mach = schedule_speed(nbjt.schedule, state)
        f = energy_share(mach, h, nbjt.schedule)
        expected_slope = state.T * nbjt.nominal_mass * G0 / (f * state.T * v)
        t1 = invert_thrust(nbjt, nbjt.nominal_mass, 5.0, h)
        t2 = invert_thrust(nbjt, nbjt.nominal_mass, 6.0, h)
        t3 = invert_thrust(nbjt, nbjt.nominal_mass, 7.0, h)
        assert t3 - t2 == pytest.approx(t2 - t1, rel=1e-12)
        assert t2 - t1 == pytest.approx(expected_slope, rel=1e-12)

    def test_rejects_nonfinite_rocd(self, nbjt):
        with pytest.raises(DomainError):
            invert_thrust(nbjt, nbjt.nominal_mass, float("nan"), np.array([6000.0]))

    @pytest.mark.parametrize("cause", ["energy share", "temperature ratio"])
    def test_rejects_degenerate_rate_factor(self, nbjt, monkeypatch, cause):
        # each cause leaves the climb-rate gain positive at 6000 m and zero
        # or negative at 9000 m
        delta_T = 0.0
        if cause == "energy share":
            share = dynamics.energy_share
            monkeypatch.setattr(dynamics, "energy_share", lambda mach, h, schedule: np.where(
                np.asarray(h) > 8000.0, 0.0, share(mach, h, schedule)))
        else:
            delta_T = 240.0   # (T - delta_T) / T <= 0 where the ISA T <= 240 K, above 7408 m
        h = np.array([6000.0, 9000.0])
        _, k = rate_factors(nbjt, nbjt.nominal_mass, h[:1], delta_T)
        assert k[0] > 0.0
        message = "NBJT: climb-rate gain is not positive"
        with pytest.raises(ValidationError, match=message):
            rate_factors(nbjt, nbjt.nominal_mass, h[1:], delta_T)
        with pytest.raises(ValidationError, match=message):
            invert_thrust(nbjt, nbjt.nominal_mass, 5.0, h, delta_T)


def reference_profile(perf, traj):
    """The flight-by-flight profile that the block one replaced."""
    grid = default_grid()
    alt_m = traj.alt_ft * FT
    inside = (alt_m >= grid[0] - 1e-9) & (alt_m <= grid[-1] + 1e-9)
    n_inside = int(np.count_nonzero(inside))
    if n_inside < MIN_PROFILE_BLIPS:
        raise DataError(f"flight {traj.flight_id}: {n_inside} blips in the altitude "
                        f"interval, need at least {MIN_PROFILE_BLIPS}")
    h = alt_m[inside]
    rocd_ms = derive_rocd(traj.t_s, traj.alt_ft, np.array([0, traj.n_blips]))[inside] * FT / 60.0
    n_bad = int(np.count_nonzero(~np.isfinite(rocd_ms)))
    if n_bad:
        raise DataError(f"flight {traj.flight_id}: climb rate not finite at {n_bad} blip(s) "
                        "in the altitude interval")
    thrust = invert_thrust(perf, perf.nominal_mass, rocd_ms, h)
    order = np.argsort(h, kind="stable")
    h_sorted, t_sorted = h[order], thrust[order]
    uniq, start = np.unique(h_sorted, return_index=True)
    if uniq.size < h_sorted.size:
        t_sorted = np.add.reduceat(t_sorted, start) / np.diff(np.append(start, h_sorted.size))
        h_sorted = uniq
    if h_sorted.size < 2:
        raise DataError(f"flight {traj.flight_id}: blips collapse to a single altitude")
    return ThrustProfile(grid, np.interp(grid, h_sorted, t_sorted))


class TestProfileFromFlight:
    def test_matches_the_flight_by_flight_profile(self, nbjt, radar_fleet):
        for traj in radar_fleet:
            try:
                want = reference_profile(nbjt, traj)
            except ClimbgenError as exc:
                with pytest.raises(type(exc)) as got:
                    profile_from_flight(nbjt, traj)
                assert str(got.value) == str(exc)
            else:
                assert profile_from_flight(nbjt, traj).values.tobytes() == want.values.tobytes()

    def test_blips_on_grid_nodes_is_identity(self, nbjt):
        grid = default_grid()
        alt_ft = grid / FT
        t = (alt_ft - alt_ft[0]) * 60.0 / 2000.0   # a constant 2000 ft/min
        traj = make_traj("F1", t, alt_ft)
        profile = profile_from_flight(nbjt, traj)
        expected = invert_thrust(nbjt, nbjt.nominal_mass, 2000.0 * FT / 60.0, grid)
        assert profile.values == pytest.approx(expected, rel=1e-12)

    def test_three_blips_rejected(self, nbjt):
        grid = default_grid()
        traj = make_traj("F2", [0.0, 10.0, 20.0], [16000.0, 16300.0, 16600.0])
        with pytest.raises(DataError, match="flight F2: 3 blips in the altitude interval"):
            profile_from_flight(nbjt, traj)

    def test_linear_thrust_recovered_from_dense_blips(self, nbjt):
        # synthetic flight with known linear thrust, noise-free dense blips
        grid = default_grid()
        span = np.linspace(fl_to_m(140.0), fl_to_m(335.0), 200)
        true = ThrustProfile(span, nominal_thrust(nbjt, span) - 2000.0
                             - 0.8 * (span - span[0]))
        traj_phys = integrate_climb(nbjt, nbjt.nominal_mass, true, span[0], span[-1])
        t_blips = np.arange(0.0, traj_phys.t[-1], 2.0)
        alt_ft = np.interp(t_blips, traj_phys.t, traj_phys.h) / FT
        traj = make_traj("F3", t_blips, alt_ft)
        recovered = profile_from_flight(nbjt, traj)
        reference = np.interp(grid, true.grid, true.values)
        rms = np.sqrt(np.mean((recovered.values - reference) ** 2))
        assert rms / np.sqrt(np.mean(reference**2)) < 0.005

    def test_extrapolation_clamps_to_nearest(self, nbjt):
        grid = default_grid()
        # blips cover only the middle of the interval
        alt_ft = np.linspace(20000.0, 28000.0, 30)
        t = (alt_ft - alt_ft[0]) * 60.0 / 1800.0   # a constant 1800 ft/min
        traj = make_traj("F4", t, alt_ft)
        profile = profile_from_flight(nbjt, traj)
        first_inside = invert_thrust(nbjt, nbjt.nominal_mass, 1800.0 * FT / 60.0,
                                     alt_ft[:1] * FT)
        assert profile.values[:1] == pytest.approx(first_inside, rel=1e-12)


class TestFlightProfiles:
    def test_one_inversion_masks_flights_whose_climb_rate_is_not_finite(self, nbjt,
                                                                        count_calls):
        # finite climbs mixed with climbs whose altitudes hold NaN or inf:
        # one invert_thrust call, the other flights' rows as each is
        # profiled alone, and a flight whose rate is not finite in the
        # window rejected by name.  The median filter removes the rate spike
        # of one infinite blip but not of two; a NaN far below the window
        # leaves the rates in it finite
        t = np.arange(0.0, 600.0, 6.0)
        flights = [make_traj(f"F{k}", t, 12000.0 + (1800.0 + 50.0 * k) * t / 60.0)
                   for k in range(9)]
        flights[1].alt_ft[41] = np.nan
        flights[4].alt_ft[44:46] = np.inf
        flights[7].alt_ft[47] = -np.inf
        flights[6].alt_ft[0] = np.nan
        calls = count_calls(learning, "invert_thrust")
        values, errors = flight_profiles(nbjt, [tr.flight_id for tr in flights],
                                         np.concatenate([tr.t_s for tr in flights]),
                                         np.concatenate([tr.alt_ft for tr in flights]),
                                         np.arange(len(flights) + 1) * t.size)
        assert len(calls) == 1
        alone, rejected = [], []
        for tr in flights:
            try:
                alone.append(profile_from_flight(nbjt, tr).values)
            except DataError as exc:
                rejected.append(str(exc))
        assert [str(e) for e in errors] == rejected
        assert [text.split(":")[0] for text in rejected] == ["flight F1", "flight F4"]
        assert all(" climb rate not finite at " in text for text in rejected)
        assert [row.tobytes() for row in values] == [row.tobytes() for row in alone]

    def test_an_error_no_flight_causes_raises_once(self, nbjt, count_calls):
        # the climb-rate gain is not positive above 7408 m at delta_T = 240 K,
        # so no flight can be profiled: the block raises, after one inversion
        t = np.arange(0.0, 600.0, 6.0)
        flights = [make_traj(f"F{k}", t, 12000.0 + (1800.0 + 50.0 * k) * t / 60.0)
                   for k in range(4)]
        calls = count_calls(learning, "invert_thrust")
        with pytest.raises(ValidationError, match="climb-rate gain is not positive"):
            flight_profiles(nbjt, [tr.flight_id for tr in flights],
                            np.concatenate([tr.t_s for tr in flights]),
                            np.concatenate([tr.alt_ft for tr in flights]),
                            np.arange(len(flights) + 1) * t.size, delta_T=240.0)
        assert len(calls) == 1
        with pytest.raises(ValidationError, match="climb-rate gain is not positive"):
            profile_from_flight(nbjt, flights[0], delta_T=240.0)


class TestSelectComponents:
    def test_nine_four_one_with_tail(self):
        fractions = [9 / 14, 4 / 14, 1 / 14] + [1e-9] * 7
        assert select_components(fractions) == 3

    def test_single_component(self):
        assert select_components([1.0]) == 1

    def test_flat_spectrum_falls_back_to_cumulative(self):
        assert select_components([0.05] * 20) == 10

    def test_clamped_to_max(self):
        fractions = np.full(40, 1.0 / 40.0)
        assert select_components(fractions) <= 10

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            select_components([0.1, 0.5])


class TestFitFpca:
    def test_identical_profiles(self):
        grid = default_grid()
        values = np.tile(90000.0 - 2.0 * (grid - grid[0]), (12, 1))
        with pytest.raises(DataError, match="the thrust profiles have no variance"):
            fit_fpca(grid, values)

    def test_rank_one_construction(self):
        grid = default_grid()
        mean = np.full(grid.size, 80000.0)
        shape = orthonormal_shapes(grid, 1)[0]
        signs = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
        basis = fit_fpca(grid, mean + signs[:, None] * 3000.0 * shape)
        assert basis.explained_variance[0] == pytest.approx(1.0, abs=1e-9)
        # first mode proportional to the generating shape (orientation fixed
        # by the sign convention)
        ratio = basis.modes[0] / shape
        assert np.ptp(np.abs(ratio)) < 1e-9

    def test_nine_four_one_variance_ratios(self):
        grid = default_grid()
        basis = _rank3_basis(grid, n_flights=40, seed=11)
        assert basis.n_modes == 3
        assert basis.explained_variance == pytest.approx(
            [9 / 14, 4 / 14, 1 / 14], abs=1e-9
        )

    def test_orthonormality_invariant(self):
        grid = default_grid()
        rng = np.random.default_rng(5)
        values = 90000.0 + 5000.0 * rng.standard_normal((25, grid.size))
        basis = fit_fpca(grid, values, n_max=6)
        w = trapezoid_weights(grid)
        gram = basis.modes @ (w[:, None] * basis.modes.T)
        off = gram - np.eye(basis.n_modes)
        assert np.max(np.abs(off)) < 1e-8

    def test_permutation_invariance(self):
        grid = default_grid()
        rng = np.random.default_rng(9)
        values = 90000.0 + 4000.0 * rng.standard_normal((20, grid.size))
        basis_a = fit_fpca(grid, values, n_max=4)
        order = rng.permutation(len(values))
        basis_b = fit_fpca(grid, values[order], n_max=4)
        assert basis_a.mean == pytest.approx(basis_b.mean)
        assert basis_a.modes == pytest.approx(basis_b.modes, abs=1e-9)

    def test_too_few_profiles(self):
        grid = default_grid()
        with pytest.raises(DomainError):
            fit_fpca(grid, np.ones((5, grid.size)))

    def test_more_modes_than_profiles(self):
        grid = default_grid()
        rng = np.random.default_rng(3)
        with pytest.raises(DomainError):
            fit_fpca(grid, rng.standard_normal((10, grid.size)), n_max=11)

    @pytest.mark.parametrize("case", ["nan_value", "grid_not_increasing", "nan_in_grid",
                                      "row_width", "one_profile_not_a_block"])
    def test_the_checks_of_a_profile(self, case):
        # the values are one row per profile on the grid, and each row
        # gets the checks of a ThrustProfile
        grid = default_grid()
        values = np.random.default_rng(3).standard_normal((12, grid.size))
        if case == "nan_value":
            values[4, 7] = np.nan
        elif case == "grid_not_increasing":
            grid = grid.copy()
            grid[[3, 4]] = grid[[4, 3]]
        elif case == "nan_in_grid":
            grid = grid.copy()
            grid[5] = np.nan
        elif case == "row_width":
            values = values[:, 1:]
        else:
            values = values[0]
        with pytest.raises(DomainError):
            fit_fpca(grid, values)

    def test_one_sign_rule_signs_every_mode(self):
        # the flat truth shape's integral is far from zero, the cosine
        # shapes' integrals are round-off: both branches of the rule run
        grid = default_grid()
        weights = _whitened_weights(40, [4.0, 3.0, 2.0, 1.0], seed=21)
        basis = fit_fpca(grid, 85000.0 + weights @ truth_modes(grid, 4), n_max=4)
        w = trapezoid_weights(grid)
        by_integral = []
        for mode in basis.modes:
            assert np.array_equal(reference_fix_sign(mode, w), mode)
            assert np.array_equal(reference_fix_sign(-mode, w), mode)
            by_integral.append(abs(np.sum(w * mode)) > 1e-10 * np.max(np.abs(mode)))
        assert basis.n_modes >= 2 and by_integral[0] and not all(by_integral)
        assert basis.modes.flags.c_contiguous


def reference_fix_sign(mode, weights):
    """One mode signed by the rule that ``fit_fpca`` applies to all at
    once: a clearly non-zero quadrature integral is made positive, and
    otherwise the first node above the threshold."""
    integral = float(np.sum(weights * mode))
    scale = float(np.max(np.abs(mode)))
    if abs(integral) > 1e-10 * scale:
        return mode if integral > 0.0 else -mode
    nonzero = np.flatnonzero(np.abs(mode) > 1e-10 * scale)
    if nonzero.size and mode[nonzero[0]] < 0.0:
        return -mode
    return mode


def _whitened_weights(n_flights, sds, seed):
    """Weights whose sample covariance is ``diag(1000 * sds)**2``.

    Random weights are whitened so the sample covariance is the identity,
    then scaled per mode; cross-covariances vanish exactly.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_flights, len(sds)))
    z -= z.mean(axis=0)
    cov = z.T @ z / (n_flights - 1)
    chol = np.linalg.cholesky(cov)
    white = z @ np.linalg.inv(chol).T
    return white * np.array(sds) * 1000.0


def _rank3_basis(grid, n_flights, seed):
    """Profiles whose empirical variance ratios are exactly 9:4:1."""
    weights = _whitened_weights(n_flights, [3.0, 2.0, 1.0], seed)
    mean = 85000.0 - 1.5 * (grid - grid[0])
    return fit_fpca(grid, mean + weights @ orthonormal_shapes(grid, 3))


class TestProjectWeights:
    @pytest.fixture()
    def basis(self):
        return _rank3_basis(default_grid(), n_flights=30, seed=21)

    def test_mean_profile_gives_zero_weights(self, basis):
        profile = ThrustProfile(basis.grid, basis.mean.copy())
        assert project_weights(basis, profile) == pytest.approx(np.zeros(3), abs=1e-9)

    def test_pure_mode_recovered(self, basis):
        profile = ThrustProfile(basis.grid, basis.mean + 3.0 * basis.modes[0])
        w = project_weights(basis, profile)
        assert w == pytest.approx([3.0, 0.0, 0.0], abs=1e-9)

    def test_matches_dense_least_squares(self, basis):
        rng = np.random.default_rng(2)
        profile = ThrustProfile(basis.grid, basis.mean + 2500.0 * rng.standard_normal(basis.grid.size))
        w = project_weights(basis, profile)
        # normal-equations oracle in the quadrature norm: minimize
        # || sqrt(W) (profile - mean - modes^T w) ||_2
        sqrt_w = np.sqrt(trapezoid_weights(basis.grid))
        a = (basis.modes * sqrt_w).T
        b = sqrt_w * (profile.values - basis.mean)
        oracle, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert w == pytest.approx(oracle, rel=1e-9)

    def test_residual_orthogonal_to_modes(self, basis):
        rng = np.random.default_rng(4)
        profile = ThrustProfile(basis.grid, basis.mean + 2000.0 * rng.standard_normal(basis.grid.size))
        w = project_weights(basis, profile)
        residual = profile.values - basis.mean - w @ basis.modes
        quad = trapezoid_weights(basis.grid)
        inner = basis.modes @ (quad * residual)
        assert np.max(np.abs(inner)) < 1e-8

    def test_grid_mismatch_rejected(self, basis):
        other = np.linspace(fl_to_m(150.0), fl_to_m(300.0), GRID_SIZE)
        with pytest.raises(DomainError):
            project_weights(basis, ThrustProfile(other, np.zeros(other.size)))
