"""Climb physics tests: drag, energy share factor, climb rate, integration."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from climbgen.atmosphere import (
    BETA,
    G0,
    KAPPA,
    R_AIR,
    SpeedSchedule,
    cas_to_tas,
    crossover_altitude,
    fl_to_m,
    isa_state,
    schedule_speed,
)
from climbgen import dynamics
from climbgen.dynamics import (
    N_NODES,
    ROCD_FLOOR,
    drag,
    energy_share,
    integrate_climb,
    integrate_climb_block,
    rate_factors,
    rocd,
)
from climbgen.errors import DomainError, InfeasibleClimbError, ValidationError
from climbgen.learning import ThrustProfile, default_grid, invert_thrust
from climbgen.performance import min_level_thrust, nominal_thrust


class TestDrag:
    def test_parasitic_only(self):
        stub = SimpleNamespace(c_d0=0.03, c_d2=0.0, wing_area=100.0)
        state = isa_state(np.array([5000.0]))
        v = 200.0
        expected = 0.5 * state.rho * v * v * 100.0 * 0.03
        assert drag(stub, 50000.0, state, v) == pytest.approx(expected, rel=1e-12)

    def test_induced_term_scales_with_mass_squared(self):
        stub = SimpleNamespace(c_d0=0.0, c_d2=0.04, wing_area=100.0)
        state = isa_state(np.array([5000.0]))
        d1 = drag(stub, 40000.0, state, 200.0)
        d2 = drag(stub, 80000.0, state, 200.0)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)

    def test_reference_value_against_oracle(self, nbjt):
        # independent evaluation of D = q S (cD0 + cD2 (m g / (q S))^2)
        h, v, m = 6000.0, 210.0, 64000.0
        T = 288.15 - 0.0065 * h
        p = 101325.0 * (T / 288.15) ** (9.80665 / (0.0065 * 287.05287))
        rho = p / (287.05287 * T)
        q = 0.5 * rho * v * v
        cl = m * 9.80665 / (q * nbjt.wing_area)
        oracle = q * nbjt.wing_area * (nbjt.c_d0 + nbjt.c_d2 * cl * cl)
        assert drag(nbjt, m, isa_state(np.array([h])), v) == pytest.approx(oracle, rel=1e-12)


class TestEnergyShare:
    SCHEDULE = SpeedSchedule(v_cas=154.3, mach=0.78)   # crossover ~8938 m
    HIGH = SpeedSchedule(v_cas=120.0, mach=0.85)       # crossover ~13580 m, above the tropopause

    def test_constant_mach_above_tropopause_is_one(self):
        assert np.array_equal(energy_share(0.78, np.array([12000.0]), self.SCHEDULE), [1.0])

    def test_constant_cas_below_tropopause_oracle(self):
        # independent evaluation of the constant-CAS troposphere form at M=0.5
        m2 = 0.25
        lapse = 1.4 * 287.05287 * (-0.0065) / (2 * 9.80665) * m2
        base = 1.0 + 0.2 * m2
        compress = base ** (-2.5) * (base**3.5 - 1.0)
        oracle = 1.0 / (1.0 + lapse + compress)
        assert energy_share(0.5, np.array([5000.0]), self.SCHEDULE) == pytest.approx(oracle, rel=1e-12)

    def test_constant_cas_above_tropopause_oracle(self):
        # independent evaluation of the constant-CAS stratosphere form at M=0.7:
        # no lapse-rate term, as the temperature is constant
        m2 = 0.49
        base = 1.0 + 0.2 * m2
        oracle = 1.0 / (1.0 + base ** (-2.5) * (base**3.5 - 1.0))
        assert energy_share(0.7, np.array([12000.0]), self.HIGH) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("leg, h", [("cas", 5000.0), ("cas", 12000.0),
                                        ("mach", 10000.0), ("mach", 12000.0)])
    def test_each_leg_and_layer_matches_the_three_factor_form(self, leg, h):
        # one factor per flight condition, written from the module's constants:
        # the one expression gives each bit for bit
        m = np.linspace(0.3, 0.9, 7)
        m2 = m * m
        half = (KAPPA - 1.0) / 2.0
        lapse = KAPPA * R_AIR * BETA / (2.0 * G0) * m2
        base = 1.0 + half * m2
        compress = base ** (-1.0 / (KAPPA - 1.0)) * (base ** (KAPPA / (KAPPA - 1.0)) - 1.0)
        expected = {("cas", True): 1.0 / (1.0 + lapse + compress),
                    ("cas", False): 1.0 / (1.0 + compress),
                    ("mach", True): 1.0 / (1.0 + lapse),
                    ("mach", False): np.ones(7)}[leg, h < 11000.0]
        schedule = self.HIGH if leg == "cas" else self.SCHEDULE
        assert (h < crossover_altitude(schedule)) == (leg == "cas")
        assert np.array_equal(energy_share(m, np.full(7, h), schedule), expected)

    def test_bounded_share_below_crossover(self):
        f = energy_share(np.linspace(0.05, 0.95, 19), np.full(19, 5000.0), self.SCHEDULE)
        assert np.all((0.0 < f) & (f <= 1.0))

    def test_constant_mach_below_tropopause_exceeds_one(self):
        # climbing at constant Mach in the troposphere releases kinetic energy
        f = energy_share(0.78, np.array([10000.0]), self.SCHEDULE)
        assert f == pytest.approx(1.0 / (1.0 + 1.4 * 287.05287 * (-0.0065) / (2 * 9.80665) * 0.78**2))
        assert f > 1.0

    def test_piecewise_switches_at_crossover(self):
        h_cross = crossover_altitude(self.SCHEDULE)
        below, above = energy_share(0.78, np.array([h_cross - 1.0, h_cross + 1.0]), self.SCHEDULE)
        assert below != above


class TestRocd:
    def test_thrust_equals_drag_gives_zero(self, nbjt):
        h = np.array([fl_to_m(200.0)])
        assert rocd(nbjt, nbjt.nominal_mass, min_level_thrust(nbjt, h), h) == pytest.approx(0.0, abs=1e-10)

    def test_delta_t_zero_collapses_leading_factor(self, nbjt):
        h = np.array([fl_to_m(200.0)])
        t_hr = nominal_thrust(nbjt, h)
        state = isa_state(h)
        r0 = rocd(nbjt, nbjt.nominal_mass, t_hr, h, delta_T=0.0)
        r15 = rocd(nbjt, nbjt.nominal_mass, t_hr, h, delta_T=15.0)
        # with dT=0 the temperature ratio is exactly 1; with dT>0 it shrinks
        assert r15[0] != r0[0]
        ratio = (state.T - 15.0) / state.T
        assert ratio < 1.0

    @pytest.mark.parametrize("delta_T", [-15.0, 0.0, 15.0])
    def test_rocd_applies_rate_factors(self, nbjt, delta_T):
        h = np.linspace(fl_to_m(150.0), fl_to_m(325.0), 50)
        mass = nbjt.nominal_mass
        t_hr = nominal_thrust(nbjt, h)
        d, k = rate_factors(nbjt, mass, h, delta_T)
        state = isa_state(h, delta_T)
        v, mach = schedule_speed(nbjt.schedule, state)
        ratio = (state.T - delta_T) / state.T
        f = energy_share(mach, h, nbjt.schedule)
        assert np.array_equal(d, drag(nbjt, mass, state, v))
        assert np.array_equal(k, ratio * v * f / (mass * G0))
        assert np.array_equal(rocd(nbjt, mass, t_hr, h, delta_T), k * (t_hr - d))

    def test_composed_closed_form_oracle(self, nbjt):
        # independent chain: ISA -> TAS -> drag -> ESF -> climb-rate formula
        h, t_hr, m = 6500.0, 95000.0, 64000.0
        T = 288.15 - 0.0065 * h
        p = 101325.0 * (T / 288.15) ** (9.80665 / (0.0065 * 287.05287))
        rho = p / (287.05287 * T)
        mu = 0.4 / 1.4
        rho0 = 101325.0 / (287.05287 * 288.15)
        inner = (1 + mu * rho0 * nbjt.schedule.v_cas**2 / (2 * 101325.0)) ** (1 / mu) - 1
        v = math.sqrt(2 * p / (mu * rho) * ((1 + (101325.0 / p) * inner) ** mu - 1))
        mach = v / math.sqrt(1.4 * 287.05287 * T)
        q = 0.5 * rho * v * v
        cl = m * 9.80665 / (q * nbjt.wing_area)
        d = q * nbjt.wing_area * (nbjt.c_d0 + nbjt.c_d2 * cl * cl)
        m2 = mach * mach
        lapse = 1.4 * 287.05287 * (-0.0065) / (2 * 9.80665) * m2
        base = 1.0 + 0.2 * m2
        f = 1.0 / (1.0 + lapse + base ** (-2.5) * (base**3.5 - 1.0))
        oracle = (t_hr - d) * v / (m * 9.80665) * f
        assert rocd(nbjt, m, t_hr, np.array([h])) == pytest.approx(oracle, rel=1e-12)


def oracle_rate_factors(perf, mass, h, delta_T):
    """``(D, k)`` from the ISA closed forms alone, written out here: the
    tropospheric temperature and pressure, density and speed of sound at
    ``T + delta_T``, the crossover from the CAS-Mach pressure ratio, the
    compressible CAS-to-TAS conversion, the parabolic polar, the
    tropospheric energy share and the ratio ``(T - delta_T) / T`` of the
    ISA temperature ``T`` (BADA 3's ratio of the actual temperature,
    ``T / (T + delta_T)``, differs by 0.43% near FL300 at +-15 K).  Valid
    below the tropopause; also returns the crossover altitude."""
    r, g, kappa, p0, t0, lapse = 287.05287, 9.80665, 1.4, 101325.0, 288.15, -0.0065
    mu = (kappa - 1.0) / kappa

    def pressure(t_isa):
        return p0 * (t_isa / t0) ** (-g / (lapse * r))

    def impact(mach):   # (p_t - p) / p at a Mach number
        return (1.0 + (kappa - 1.0) / 2.0 * mach**2) ** (1.0 / mu) - 1.0

    p_cross = p0 * impact(perf.schedule.v_cas / math.sqrt(kappa * r * t0)) / impact(perf.schedule.mach)
    h_cross = (t0 * (p_cross / p0) ** (-lapse * r / g) - t0) / lapse
    t_isa = t0 + lapse * h
    p = pressure(t_isa)
    rho = p / (r * (t_isa + delta_T))
    a = math.sqrt(kappa * r * (t_isa + delta_T))
    if h < h_cross:
        rho0 = p0 / (r * t0)
        inner = (1.0 + mu * rho0 * perf.schedule.v_cas**2 / (2.0 * p0)) ** (1.0 / mu) - 1.0
        v = math.sqrt(2.0 * p / (mu * rho) * ((1.0 + p0 / p * inner) ** mu - 1.0))
    else:
        v = perf.schedule.mach * a
    mach = v / a
    q_s = 0.5 * rho * v * v * perf.wing_area
    d = q_s * (perf.c_d0 + perf.c_d2 * (mass * g / q_s) ** 2)
    share = 1.0 + kappa * r * lapse / (2.0 * g) * mach**2
    if h < h_cross:
        base = 1.0 + (kappa - 1.0) / 2.0 * mach**2
        share += base ** (-1.0 / (kappa - 1.0)) * (base ** (kappa / (kappa - 1.0)) - 1.0)
    ratio = (t_isa - delta_T) / t_isa
    return d, ratio * v / share / (mass * g), h_cross


class TestRateFactorsOracle:
    @pytest.mark.parametrize("delta_T", [-15.0, 0.0, 15.0])
    @pytest.mark.parametrize("type_code", ["NBJT", "WBJT"])
    def test_rate_factors_rocd_and_inversion_match_the_closed_forms(self, catalog, type_code,
                                                                    delta_T):
        perf = catalog[type_code]
        mass = perf.nominal_mass
        h_cross = oracle_rate_factors(perf, mass, 0.0, 0.0)[2]
        assert h_cross == pytest.approx(crossover_altitude(perf.schedule), abs=1e-6)
        heights = [fl_to_m(150.0), fl_to_m(250.0), fl_to_m(325.0), h_cross - 10.0, h_cross + 10.0]
        d, k = np.array([oracle_rate_factors(perf, mass, h, delta_T)[:2] for h in heights]).T
        h = np.array(heights)
        got_d, got_k = rate_factors(perf, mass, h, delta_T)
        assert got_d == pytest.approx(d, rel=1e-12) and got_k == pytest.approx(k, rel=1e-12)
        thrust = 1.3 * d
        rate = k * (thrust - d)
        assert rocd(perf, mass, thrust, h, delta_T) == pytest.approx(rate, rel=1e-12)
        assert invert_thrust(perf, mass, rate, h, delta_T) == pytest.approx(thrust, rel=1e-12)
        # FL325 flies the Mach leg, FL150 and FL250 the CAS leg
        assert heights[1] < h_cross < heights[2]


class TestRateFactorsRefusal:
    """Factors no climb can use are refused where they are computed, so the
    climb kernel, ``rocd``, ``min_level_thrust`` and ``invert_thrust`` all
    refuse them, naming the type, with no numpy warning first."""

    H = np.array([fl_to_m(150.0), fl_to_m(325.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mass, delta_T, error, message", [
        (1e308, 0.0, ValidationError, "NBJT: climb-rate gain is not positive and finite"),
        (1e-320, 0.0, ValidationError, "NBJT: climb-rate gain is not positive and finite"),
        (1e305, 0.0, ValidationError, "NBJT: drag is not finite"),
        (None, 240.0, ValidationError, "NBJT: climb-rate gain is not positive and finite"),
        (None, 1e305, DomainError,
         "NBJT: delta_T 1e+305 K: T + delta_T not positive, or gas law overflows"),
        (None, 6e305, DomainError,
         "NBJT: delta_T 6e+305 K: T + delta_T not positive, or gas law overflows"),
    ], ids=["gain-zero", "gain-infinite", "drag-infinite", "temperature-ratio-negative",
            "airspeed-overflows", "gas-law-overflows"])
    def test_every_reader_refuses(self, nbjt, mass, delta_T, error, message):
        # 1e308 kg makes the gain 0 and 1e-320 kg infinite; 1e305 kg overflows
        # the lift coefficient's square; at 240 K the temperature ratio is
        # negative at FL325; at 1e305 K the CAS-to-TAS conversion would
        # overflow, and the atmosphere refuses the offset first
        mass = nbjt.nominal_mass if mass is None else mass
        perf = dataclasses.replace(nbjt, nominal_mass=mass)
        grid = default_grid()
        calls = {
            "rate_factors": lambda: rate_factors(perf, mass, self.H, delta_T),
            "rocd": lambda: rocd(perf, mass, 1e5, self.H, delta_T),
            "min_level_thrust": lambda: min_level_thrust(perf, self.H, delta_T),
            "invert_thrust": lambda: invert_thrust(perf, mass, 5.0, self.H, delta_T),
            "climb kernel": lambda: integrate_climb_block(perf, mass, grid,
                                                          np.full((1, grid.size), 1e5),
                                                          grid[0], grid[-1], delta_T),
        }
        for call in calls.values():
            with pytest.raises(error, match=re.escape(message)):
                call()


class TestEnergyBalanceGainOracle:
    """The climb-rate gain from the total-energy balance alone,
    ``(Thr - D) V = m g0 dh/dt + m V dV/dt`` along the speed schedule, so
    ``k = V / (m g0) / (1 + (V / g0) dV/dh)`` at ISA.  ``dV/dh`` is a
    central difference of ``schedule_speed``; the oracle shares the
    atmosphere and the speed schedule with ``rate_factors``, not
    ``energy_share`` or the temperature ratio."""

    STEP = 0.01        # m, the central difference's half step
    TOLERANCE = 1e-8   # relative; the difference's own error is about 3e-10

    @pytest.mark.parametrize("type_code", ["NBJT", "WBJT", "CPJT"])
    def test_gain_matches_the_energy_balance_at_isa(self, catalog, type_code):
        perf = catalog[type_code]
        mass = perf.nominal_mass
        h = default_grid()
        # the schedule's speed has a kink at the crossover
        h = h[np.abs(h - crossover_altitude(perf.schedule)) > 5.0]

        def speed(h):
            return schedule_speed(perf.schedule, isa_state(h))[0]

        v = speed(h)
        dv_dh = (speed(h + self.STEP) - speed(h - self.STEP)) / (2.0 * self.STEP)
        oracle = v / (mass * G0) / (1.0 + v / G0 * dv_dh)
        assert rate_factors(perf, mass, h)[1] == pytest.approx(oracle, rel=self.TOLERANCE)


class TestIntegrateClimb:
    def test_constant_rocd_exact(self, nbjt):
        # thrust profile built on the integrator's own refinement, so the
        # climb rate is exactly 7 m/s at every quadrature node (interval kept
        # below the crossover so the rate is smooth); the integral of a
        # constant is exact
        h1, h2 = fl_to_m(150.0), fl_to_m(280.0)
        nodes = np.linspace(h1, h2, N_NODES)
        profile = ThrustProfile(nodes, invert_thrust(nbjt, nbjt.nominal_mass, 7.0, nodes))
        traj = integrate_climb(nbjt, nbjt.nominal_mass, profile, h1, h2)
        assert traj.t[-1] == pytest.approx((h2 - h1) / 7.0, rel=1e-9)
        assert np.all(np.diff(traj.t) > 0.0)
        assert traj.t[0] == 0.0

    def test_piecewise_constant_rocd_analytic_oracle(self):
        # quadrature path checked directly against the analytic segment sum
        rates = [4.0, 8.0, 5.0]
        bounds = [5000.0, 6000.0, 7500.0, 9000.0]
        h_parts, r_parts = [], []
        for r, lo, hi in zip(rates, bounds[:-1], bounds[1:]):
            seg = np.linspace(lo, hi, 200)
            h_parts.append(seg)
            r_parts.append(np.full(seg.size, r))
        h = np.concatenate(h_parts)
        r = np.concatenate(r_parts)
        analytic = sum((hi - lo) / rate for rate, lo, hi in zip(rates, bounds[:-1], bounds[1:]))
        t = dynamics._trapezoid_times(0.5 * np.diff(h), r, r.size)
        assert t[-1] == pytest.approx(analytic, rel=1e-10)

    def test_infeasible_climb_names_altitude(self, nbjt):
        h1, h2 = fl_to_m(150.0), fl_to_m(325.0)
        grid = default_grid()
        low = ThrustProfile(grid, min_level_thrust(nbjt, grid) - 5000.0)
        with pytest.raises(InfeasibleClimbError) as err:
            integrate_climb(nbjt, nbjt.nominal_mass, low, h1, h2)
        assert h1 <= err.value.altitude_m <= h2

    def test_inversion_round_trip_on_grid(self, nbjt):
        # the integrator's pointwise climb rate, inverted back, recovers the
        # thrust profile at every grid node (the refinement includes them)
        grid = default_grid()
        true_thrust = nominal_thrust(nbjt, grid) - 4000.0
        profile = ThrustProfile(grid, true_thrust)
        h, r = node_rates(nbjt, nbjt.nominal_mass, profile, grid[0], grid[-1])
        rocd_at_nodes = np.interp(grid, h, r)
        recovered = invert_thrust(nbjt, nbjt.nominal_mass, rocd_at_nodes, grid)
        assert np.max(np.abs(recovered - true_thrust) / true_thrust) < 1e-3
        assert np.max(np.abs(recovered - true_thrust) / true_thrust) < 1e-9

    def test_time_decreases_with_extra_thrust(self, nbjt):
        grid = default_grid()
        base = ThrustProfile(grid, nominal_thrust(nbjt, grid))
        boosted = ThrustProfile(grid, nominal_thrust(nbjt, grid) + 1000.0)
        t_base = integrate_climb(nbjt, nbjt.nominal_mass, base, grid[0], grid[-1]).t[-1]
        t_boost = integrate_climb(nbjt, nbjt.nominal_mass, boosted, grid[0], grid[-1]).t[-1]
        assert t_boost < t_base

    def test_quadrature_refinement_converged(self, nbjt):
        # doubling the refinement of the reference moves the climb time by
        # less than 1e-6
        grid = default_grid()
        profile = ThrustProfile(grid, nominal_thrust(nbjt, grid))
        args = (nbjt, nbjt.nominal_mass, profile, grid[0], grid[-1])
        t1 = integrate_climb(*args).t[-1]
        t2 = reference_climb(*args, n_nodes=2 * N_NODES)[0][-1]
        assert abs(t2 - t1) / t1 < 1e-6

    def test_bad_bounds_rejected(self, nbjt):
        grid = default_grid()
        profile = ThrustProfile(grid, nominal_thrust(nbjt, grid))
        with pytest.raises(DomainError):
            integrate_climb(nbjt, nbjt.nominal_mass, profile, grid[-1], grid[0])
        with pytest.raises(DomainError):
            integrate_climb(nbjt, nbjt.nominal_mass, profile, grid[0] - 500.0, grid[-1])

    def test_a_grid_is_checked_once_and_a_failing_one_on_every_call(self, nbjt):
        # the grid is checked where its kernel is built: a good grid is not
        # checked again on a cache hit, and a failing one leaves no entry
        grid = default_grid()
        values = nominal_thrust(nbjt, grid)[None, :]
        swapped = grid.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        span = (float(grid[0]), float(grid[-1]))
        dynamics._climb_kernel.cache_clear()
        for _ in range(2):
            integrate_climb_block(nbjt, nbjt.nominal_mass, grid, values, *span)
            with pytest.raises(DomainError, match="strictly increasing"):
                integrate_climb_block(nbjt, nbjt.nominal_mass, swapped, values, *span)
        info = dynamics._climb_kernel.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 1)

    def test_call_counter_increments(self, nbjt, count_calls):
        # once per call: on a kernel miss, on a hit, and on an infeasible climb;
        # a kernel is built only for a span and temperature offset not seen before
        calls = count_calls(dynamics, "integrate_climb")
        grid = default_grid()
        feasible = ThrustProfile(grid, nominal_thrust(nbjt, grid))
        infeasible = ThrustProfile(grid, min_level_thrust(nbjt, grid) - 5000.0)
        dynamics._climb_kernel.cache_clear()
        for profile, delta_T, misses in ((feasible, 0.0, 1), (feasible, 0.0, 1),
                                         (feasible, 5.0, 2), (infeasible, 0.0, 2)):
            before = len(calls)
            try:
                dynamics.integrate_climb(nbjt, nbjt.nominal_mass, profile, grid[0], grid[-1],
                                         delta_T)
            except InfeasibleClimbError:
                pass
            assert len(calls) == before + 1
            assert dynamics._climb_kernel.cache_info().misses == misses

    def test_floor_constant(self):
        assert ROCD_FLOOR == 0.5


def trapezoid_times(h, r):
    """Cumulative trapezoidal time from the climb rates ``r`` at the
    altitudes ``h``, by the integrator's arithmetic in its order: half
    steps times the summed inverse rates, added up one segment at a time."""
    seg = 0.5 * np.diff(h) * (1.0 / r[1:] + 1.0 / r[:-1])
    return np.concatenate(([0.0], np.cumsum(seg)))


def reference_climb(perf, mass, profile, h_start, h_end, delta_T=0.0, n_nodes=N_NODES):
    """Node-by-node integration through rocd, without the cached kernel:
    the times, the altitudes and the climb rates at them."""
    grid = profile.grid
    base = np.linspace(h_start, h_end, n_nodes)
    nodes = np.unique(np.concatenate([base, grid[(grid > h_start) & (grid < h_end)]]))
    h_cross = crossover_altitude(perf.schedule)

    def rates(h_nodes, h_eval):
        r = rocd(perf, mass, np.interp(h_nodes, grid, profile.values), h_eval, delta_T)
        bad = r <= ROCD_FLOOR
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InfeasibleClimbError(
                f"climb rate {float(r[i]):.3f} m/s at {float(h_nodes[i]):.0f} m "
                f"is at or below the {ROCD_FLOOR} m/s floor",
                altitude_m=float(h_nodes[i]),
            )
        return r

    if not h_start < h_cross < h_end:
        r = rates(nodes, nodes)
        return trapezoid_times(nodes, r), nodes, r
    left = np.append(nodes[nodes < h_cross], h_cross)
    right = np.append(h_cross, nodes[nodes > h_cross])
    left_eval = left.copy()
    left_eval[-1] = np.nextafter(h_cross, h_start)
    r_left = rates(left, left_eval)
    r_right = rates(right, right)
    t_left = trapezoid_times(left, r_left)
    t_right = trapezoid_times(right, r_right) + t_left[-1]
    return (np.concatenate([t_left[:-1], t_right]), np.concatenate([left[:-1], right]),
            np.concatenate([r_left[:-1], r_right]))


def node_rates(perf, mass, profile, h_start, h_end, delta_T=0.0):
    """The cached kernel's climb rates at the output altitudes of a climb,
    the left part's crossover node dropped as the times drop it."""
    grid = profile.grid
    kernel = dynamics._climb_kernel(perf, mass, grid.tobytes(), h_start, h_end, delta_T)
    r = kernel.rates(np.interp(kernel.h_rate, grid, profile.values))
    n = kernel.n_left
    return kernel.h, (r if n == r.size else np.concatenate([r[:n - 1], r[n:]]))


def assert_same_climb(args, expected):
    traj = integrate_climb(*args)
    for got, want in zip((traj.t, traj.h, node_rates(*args)[1]), expected, strict=True):
        assert np.array_equal(got, want)


def bumpy_profile(perf, grid, seed=0):
    rng = np.random.default_rng(seed)
    return ThrustProfile(grid, nominal_thrust(perf, grid) + rng.normal(0.0, 2000.0, grid.size))


class TestClimbKernel:
    SPANS = {"crossover": (fl_to_m(150.0), fl_to_m(325.0)),
             "cas_leg_only": (fl_to_m(150.0), fl_to_m(280.0))}

    @pytest.mark.parametrize("delta_T", [-15.0, 0.0, 15.0])
    @pytest.mark.parametrize("span", sorted(SPANS))
    @pytest.mark.parametrize("n_nodes", [N_NODES])
    def test_rates_bit_identical_to_rocd_at_nodes(self, nbjt, delta_T, span, n_nodes):
        h1, h2 = self.SPANS[span]
        grid = default_grid()
        assert (h1 < crossover_altitude(nbjt.schedule) < h2) == (span == "crossover")
        profile = bumpy_profile(nbjt, grid)
        mass = nbjt.nominal_mass
        args = (nbjt, mass, profile, h1, h2, delta_T)
        h, r = node_rates(*args)
        assert np.array_equal(r, rocd(nbjt, mass, np.interp(h, grid, profile.values), h, delta_T))
        # the integrator's refinement is the reference's at n_nodes
        assert_same_climb(args, reference_climb(*args, n_nodes=n_nodes))
        # the left part's last rate node is taken just below the crossover
        kernel = dynamics._climb_kernel(nbjt, mass, grid.tobytes(), h1, h2, delta_T)
        if span == "crossover":
            n = kernel.n_left
            h_cross = crossover_altitude(nbjt.schedule)
            assert kernel.h_rate[n - 1] == kernel.h_rate[n] == h_cross
            below = np.nextafter(h_cross, h1)
            thrust_cross = np.interp(h_cross, grid, profile.values)
            r = kernel.rates(np.interp(kernel.h_rate, grid, profile.values))
            assert r[n - 1] == rocd(nbjt, mass, thrust_cross, np.array([below]), delta_T)[0]
            assert r[n - 1] != r[n]
        else:
            assert kernel.n_left == kernel.h_rate.size

    def test_each_key_component_gives_a_fresh_result(self, catalog, nbjt):
        grid = default_grid()
        h1, h2 = float(grid[0]), float(grid[-1])
        shifted = np.concatenate([[h1], grid[1:-1] + 7.0, [h2]])
        base = dict(perf=nbjt, mass=nbjt.nominal_mass, grid=grid, h_start=h1, h_end=h2,
                    delta_T=0.0)
        variants = [
            dict(perf=dataclasses.replace(nbjt, c_d0=nbjt.c_d0 * 1.05)),
            dict(perf=catalog["WBJT"], mass=catalog["WBJT"].nominal_mass),
            dict(mass=nbjt.nominal_mass * 0.97),
            dict(delta_T=10.0),
            dict(grid=shifted),
            dict(h_start=h1 + 250.0),
            dict(h_end=h2 - 250.0),
        ]
        for change in [{}] + variants:
            case = {**base, **change}
            profile = bumpy_profile(case["perf"], case["grid"], seed=3)
            args = (case["perf"], case["mass"], profile, case["h_start"], case["h_end"],
                    case["delta_T"])
            integrate_climb(nbjt, nbjt.nominal_mass, bumpy_profile(nbjt, grid), h1, h2)  # base key
            assert_same_climb(args, reference_climb(*args))

    @pytest.mark.parametrize("span", sorted(SPANS))
    def test_returned_arrays_do_not_alias_the_cache(self, nbjt, span):
        h1, h2 = self.SPANS[span]
        profile = bumpy_profile(nbjt, default_grid())
        args = (nbjt, nbjt.nominal_mass, profile, h1, h2)
        first = integrate_climb(*args)
        for array in (first.t, first.h):
            array[:] = -1.0
        assert_same_climb(args, reference_climb(*args))

    @pytest.mark.parametrize("where", ["left", "right"])
    def test_infeasible_message_and_altitude_match_reference(self, nbjt, where):
        grid = default_grid()
        h_cross = crossover_altitude(nbjt.schedule)
        floor = min_level_thrust(nbjt, grid)
        weak = (grid > 6000.0) if where == "left" else (grid > h_cross + 200.0)
        profile = ThrustProfile(grid, np.where(weak, floor - 3000.0, nominal_thrust(nbjt, grid)))
        args = (nbjt, nbjt.nominal_mass, profile, float(grid[0]), float(grid[-1]))
        with pytest.raises(InfeasibleClimbError) as want:
            reference_climb(*args)
        for _ in range(2):   # a kernel miss, then a hit
            with pytest.raises(InfeasibleClimbError) as got:
                integrate_climb(*args)
            assert str(got.value) == str(want.value)
            assert got.value.altitude_m == want.value.altitude_m
        assert (want.value.altitude_m < h_cross) == (where == "left")


class TestIntegrateClimbBlock:
    SPANS = TestClimbKernel.SPANS

    @staticmethod
    def mixed_block(perf, grid, rows, seed, span):
        """``rows`` bumpy profiles, every third one pushed under the floor
        on 4 nodes of ``span`` that move from row to row, every other time
        into the span's top 8 nodes (above the crossover, where it lies
        inside the span)."""
        rng = np.random.default_rng(seed)
        values = nominal_thrust(perf, grid) + rng.normal(0.0, 2000.0, (rows, grid.size))
        floor = min_level_thrust(perf, grid)
        inside = np.flatnonzero((grid >= span[0]) & (grid <= span[1]))
        for k in range(0, rows, 3):
            low = inside[-8] if k % 2 else inside[0]
            at = int(rng.integers(low, inside[-1] - 4))
            values[k, at:at + 4] = floor[at:at + 4] - 3000.0
        return values

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("delta_T", [-15.0, 0.0, 10.0])
    @pytest.mark.parametrize("span", sorted(SPANS))
    def test_each_row_is_the_reference_climb(self, nbjt, rows, delta_T, span):
        h1, h2 = self.SPANS[span]
        grid = default_grid()
        mass = nbjt.nominal_mass
        values = self.mixed_block(nbjt, grid, rows, seed=rows, span=(h1, h2))
        block = integrate_climb_block(nbjt, mass, grid, values, h1, h2, delta_T)
        assert block.t.shape == (rows, block.h.size)
        n_infeasible = 0
        for k, row in enumerate(values):
            args = (nbjt, mass, ThrustProfile(grid, row), h1, h2, delta_T)
            try:
                t, h, _ = reference_climb(*args)
            except InfeasibleClimbError as want:
                n_infeasible += 1
                assert not block.feasible[k]
                got = block.error(k)
                assert str(got) == str(want) and got.altitude_m == want.altitude_m
                assert np.isnan(block.t[k, 1:]).all()
                # integrate_climb itself still raises the same error
                with pytest.raises(InfeasibleClimbError) as single:
                    integrate_climb(*args)
                assert str(single.value) == str(want)
                assert single.value.altitude_m == want.altitude_m
                continue
            assert block.feasible[k] and np.isnan(block.fail_m[k])
            assert np.array_equal(block.t[k], t) and np.array_equal(block.h, h)
            # a feasible row does not depend on its neighbours
            alone = integrate_climb_block(nbjt, mass, grid, row[None, :], h1, h2, delta_T)
            assert np.array_equal(alone.t[0], block.t[k])
        assert n_infeasible == len(range(0, rows, 3))
        if rows == 64 and span == "crossover":   # failures on both legs of the climb
            below = block.fail_m < crossover_altitude(nbjt.schedule)
            assert below.any() and (~below & ~block.feasible).any()

    def test_arrays_are_the_callers_own(self, nbjt):
        grid = default_grid()
        span = (float(grid[0]), float(grid[-1]))
        values = self.mixed_block(nbjt, grid, 4, seed=1, span=span)
        args = (nbjt, nbjt.nominal_mass, grid, values, *span)
        first = integrate_climb_block(*args)
        first.h[:] = -1.0
        first.t[:] = -1.0
        again = integrate_climb_block(*args)
        want = integrate_climb(nbjt, nbjt.nominal_mass, ThrustProfile(grid, values[1]),
                               float(grid[0]), float(grid[-1]))
        assert np.array_equal(again.h, want.h) and np.array_equal(again.t[1], want.t)

    @pytest.mark.parametrize("case", ["nan_value", "inf_value", "grid_not_increasing",
                                      "one_node", "row_width", "one_profile_not_a_block",
                                      "span_reversed", "span_outside_grid"])
    def test_the_checks_of_a_profile_and_a_climb(self, nbjt, case):
        grid = default_grid()
        values = np.tile(nominal_thrust(nbjt, grid), (3, 1))
        h1, h2 = float(grid[0]), float(grid[-1])
        if case == "nan_value":
            values[2, 5] = np.nan
        elif case == "inf_value":
            values[0, 0] = np.inf
        elif case == "grid_not_increasing":
            grid = grid.copy()
            grid[[3, 4]] = grid[[4, 3]]
        elif case == "one_node":
            grid, values = grid[:1], values[:, :1]
        elif case == "row_width":
            values = values[:, 1:]
        elif case == "one_profile_not_a_block":
            values = values[0]
        elif case == "span_reversed":
            h1, h2 = h2, h1
        else:
            h1 -= 500.0
        with pytest.raises(DomainError):
            integrate_climb_block(nbjt, nbjt.nominal_mass, grid, values, h1, h2)
