"""Atmosphere and airspeed conversion tests.

Derived expected values are frozen from independent evaluations of the
closed forms (see the inline oracles); they are not computed through the
module under test.  The module takes and returns arrays: a single
altitude is a one-element array.
"""

import math
import re

import numpy as np
import pytest

from climbgen.atmosphere import (
    BETA,
    FT,
    G0,
    H_TROPOPAUSE,
    KAPPA,
    MU,
    P0,
    R_AIR,
    RHO0,
    T0,
    SpeedSchedule,
    cas_to_tas,
    crossover_altitude,
    fl_to_m,
    isa_state,
    schedule_speed,
    speed_of_sound,
)
from climbgen.errors import DomainError


def oracle_isa(h):
    """Closed-form two-layer standard atmosphere, written independently."""
    if h <= 11000.0:
        T = 288.15 - 0.0065 * h
        p = 101325.0 * (T / 288.15) ** (9.80665 / (0.0065 * 287.05287))
    else:
        T = 216.65
        p11 = 101325.0 * (216.65 / 288.15) ** (9.80665 / (0.0065 * 287.05287))
        p = p11 * math.exp(-9.80665 * (h - 11000.0) / (287.05287 * 216.65))
    return T, p, p / (287.05287 * T)


def oracle_cas_to_tas(v_cas, h):
    T, p, rho = oracle_isa(h)
    mu = 0.4 / 1.4
    rho0 = 101325.0 / (287.05287 * 288.15)
    inner = (1.0 + mu * rho0 * v_cas**2 / (2.0 * 101325.0)) ** (1.0 / mu) - 1.0
    outer = (1.0 + (101325.0 / p) * inner) ** mu - 1.0
    return math.sqrt(2.0 * p / (mu * rho) * outer)


class TestIsaState:
    def test_sea_level_definition(self):
        state = isa_state(np.array([0.0]))
        assert state.T == pytest.approx(288.15)
        assert state.p == pytest.approx(101325.0)
        assert state.rho == pytest.approx(1.225, rel=1e-6)

    def test_tropopause_temperature(self):
        assert isa_state(np.array([11000.0, 15000.0])).T == pytest.approx(216.65)

    def test_5000m_against_oracle(self):
        # frozen from the independent closed-form evaluation above
        state = isa_state(np.array([5000.0]))
        assert state.T == pytest.approx(255.65, abs=1e-9)
        assert state.p == pytest.approx(54019.888188145786, rel=1e-12)
        assert state.rho == pytest.approx(0.736115547399152, rel=1e-12)

    def test_pressure_matches_hydrostatic_integration(self):
        # RK4 integration of dp/dh = -g0 p / (R T(h)) through the troposphere
        def dpdh(h, p):
            return -G0 * p / (R_AIR * (T0 + BETA * h))

        p, h, dh = P0, 0.0, 5.0
        while h < 11000.0 - 1e-9:
            k1 = dpdh(h, p)
            k2 = dpdh(h + dh / 2, p + dh / 2 * k1)
            k3 = dpdh(h + dh / 2, p + dh / 2 * k2)
            k4 = dpdh(h + dh, p + dh * k3)
            p += dh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            h += dh
            if h in (2000.0, 5000.0, 8000.0, 11000.0):
                assert isa_state(np.array([h])).p == pytest.approx(p, rel=1e-4)
        assert isa_state(np.array([11000.0])).p == pytest.approx(p, rel=1e-4)

    def test_delta_t_shifts_density_not_pressure(self):
        base = isa_state(np.array([6000.0]))
        hot = isa_state(np.array([6000.0]), delta_T=15.0)
        assert np.array_equal(hot.p, base.p)
        assert hot.rho == pytest.approx(hot.p / (R_AIR * (hot.T + 15.0)), rel=1e-12)
        assert hot.rho < base.rho

    def test_density_strictly_decreasing(self):
        h = np.linspace(0.0, 20000.0, 500)
        rho = isa_state(h).rho
        assert np.all(np.diff(rho) < 0.0)

    @pytest.mark.parametrize("h", [-1.0, 20001.0, float("nan"), float("inf")])
    def test_out_of_range_altitude(self, h):
        with pytest.raises(DomainError):
            isa_state(np.array([h]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta_T", [-216.65, -300.0, 6e305, 1e306, math.inf, math.nan],
                             ids=["zero-at-tropopause", "negative", "sound-speed-overflows",
                                  "density-overflows", "infinite", "nan"])
    def test_delta_t_without_a_positive_finite_gas_law_rejected(self, delta_T):
        # a warning would be raised as an error here, and not be a DomainError:
        # at 6e305 K kappa R (T + delta_T) overflows, at 1e306 K R (T + delta_T)
        with pytest.raises(DomainError, match=re.escape(f"delta_T {delta_T} K: ")):
            isa_state(np.array([0.0, 15000.0]), delta_T)

    @pytest.mark.filterwarnings("error")
    def test_delta_t_is_bounded_where_the_airspeed_stays_finite(self):
        # at the bound, cas_to_tas's 2 p / (MU rho), the largest gas-law
        # quantity, is half the largest float, and the schedule's speeds are
        # finite with no warning at every altitude; the next float up is
        # refused (from about 9e304 K that quantity overflowed with a warning)
        bound = MU * np.finfo(float).max / (4.0 * R_AIR)
        assert 4.47e304 < bound < 4.48e304
        h = np.array([0.0, 5000.0, 11000.0, 15000.0, 20000.0])
        state = isa_state(h, bound)
        for speeds in (*schedule_speed(SpeedSchedule(154.3, 0.78), state), speed_of_sound(state),
                       2.0 * state.p / (MU * state.rho)):
            assert np.isfinite(speeds).all()
        past = np.nextafter(bound, np.inf)
        with pytest.raises(DomainError, match=re.escape(f"delta_T {past} K: ")):
            isa_state(h, past)

    def test_delta_t_checked_where_it_is_flown(self):
        # -250 K leaves T + delta_T positive below 5869 m, not above it
        assert isa_state(np.array([0.0, 5000.0]), -250.0).rho.min() > 0.0
        with pytest.raises(DomainError):
            isa_state(np.array([6000.0]), -250.0)


class TestAirspeedConversions:
    def test_cas_equals_tas_at_sea_level(self):
        assert cas_to_tas(150.0, isa_state(np.array([0.0]))) == pytest.approx(150.0, rel=1e-12)

    def test_cas_to_tas_8000m_against_oracle(self):
        # frozen from oracle_cas_to_tas(150, 8000)
        got = cas_to_tas(150.0, isa_state(np.array([8000.0])))
        assert got == pytest.approx(220.34332293475447, rel=1e-12)
        assert got == pytest.approx(oracle_cas_to_tas(150.0, 8000.0), rel=1e-12)

    def test_tas_grows_with_altitude(self):
        low, high = cas_to_tas(150.0, isa_state(np.array([5000.0, 10000.0])))
        assert high > low

    @pytest.mark.parametrize("bad", [0.0, -10.0, float("nan")])
    def test_cas_to_tas_rejects_bad_input(self, bad):
        with pytest.raises(DomainError):
            cas_to_tas(bad, isa_state(np.array([0.0])))

    def test_mach_one_sea_level_speed_of_sound(self):
        sea_level = isa_state(np.array([0.0]))
        assert 1.0 * speed_of_sound(sea_level) == pytest.approx(340.29, abs=5e-3)
        assert 1.0 * speed_of_sound(sea_level) == pytest.approx(
            math.sqrt(KAPPA * R_AIR * 288.15), rel=1e-12
        )

    def test_mach_078_at_tropopause(self):
        got = 0.78 * speed_of_sound(isa_state(np.array([11000.0])))
        assert got == pytest.approx(230.15420493707578, rel=1e-12)
        assert got == pytest.approx(230.16, abs=1e-2)

    def test_mach_zero(self):
        assert np.array_equal(0.0 * speed_of_sound(isa_state(np.array([7000.0]))), [0.0])


class TestCrossover:
    # the second crosses above the tropopause, near 13 580 m
    @pytest.mark.parametrize("schedule", [SpeedSchedule(v_cas=154.3, mach=0.78),
                                          SpeedSchedule(v_cas=120.0, mach=0.85)])
    def test_against_bisection_oracle(self, schedule):
        # independent inversion: bisect TAS_CAS(h) - TAS_Mach(h) through the
        # module's conversion functions

        def gap(h):
            state = isa_state(np.array([h]))
            return (cas_to_tas(schedule.v_cas, state) - schedule.mach * speed_of_sound(state))[0]

        lo, hi = 0.0, 20000.0
        assert gap(lo) < 0.0 < gap(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert crossover_altitude(schedule) == pytest.approx(0.5 * (lo + hi), abs=1e-3)

    def test_tas_legs_agree_at_crossover(self):
        for v_cas, mach in ((154.3, 0.78), (139.4, 0.75), (160.4, 0.82)):
            schedule = SpeedSchedule(v_cas=v_cas, mach=mach)
            state = isa_state(np.array([crossover_altitude(schedule)]))
            assert cas_to_tas(v_cas, state) == pytest.approx(
                mach * speed_of_sound(state), rel=1e-9
            )

    def test_higher_mach_raises_crossover(self):
        low = crossover_altitude(SpeedSchedule(v_cas=154.3, mach=0.74))
        high = crossover_altitude(SpeedSchedule(v_cas=154.3, mach=0.80))
        assert high > low

    def test_non_intersecting_legs_rejected(self):
        with pytest.raises(DomainError):
            crossover_altitude(SpeedSchedule(v_cas=250.0, mach=0.5))   # below 0 m
        with pytest.raises(DomainError):
            crossover_altitude(SpeedSchedule(v_cas=60.0, mach=0.95))   # above 20 km

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v_cas, mach", [(1e200, 0.78),    # closed form overflows: p = inf
                                             (154.3, 1e-200),  # Mach leg's ratio is 0: p = inf
                                             (1e-300, 0.78),   # CAS leg's ratio is 0: p = 0
                                             (1e-9, 0.78)])    # 1 + tiny rounds to 1: p = 0
    def test_closed_form_out_of_range_rejected_without_warnings(self, v_cas, mach):
        # a warning would be raised as an error here, and not be a DomainError
        message = f"CAS/Mach legs of v_cas {v_cas} m/s and mach {mach} do not cross in [0, 20000] m"
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            crossover_altitude(SpeedSchedule(v_cas=v_cas, mach=mach))

    def test_schedule_speed_switches_legs(self):
        schedule = SpeedSchedule(v_cas=154.3, mach=0.78)
        h_cross = crossover_altitude(schedule)
        state = isa_state(np.array([h_cross - 500.0, h_cross + 500.0]))
        (tas_below, tas_above), (mach_below, mach_above) = schedule_speed(schedule, state)
        assert tas_below == pytest.approx(cas_to_tas(154.3, state)[0])
        assert mach_above == 0.78
        assert mach_below < 0.78
        assert tas_above == pytest.approx(0.78 * speed_of_sound(state)[1])


class TestUnits:
    def test_flight_level_round_trip(self):
        assert fl_to_m(325.0) == pytest.approx(32500 * 0.3048)
        assert FT == 0.3048

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            SpeedSchedule(v_cas=-1.0, mach=0.7)
        with pytest.raises(DomainError):
            SpeedSchedule(v_cas=150.0, mach=1.2)
