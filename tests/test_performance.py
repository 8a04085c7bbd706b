"""Performance catalog and nominal thrust model tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from climbgen.atmosphere import SpeedSchedule, fl_to_m
from climbgen.dynamics import rocd
from climbgen.errors import DomainError, ValidationError
from climbgen.performance import (
    PERF_H_MAX,
    AircraftPerformance,
    default_catalog_path,
    load_performance,
    min_level_thrust,
    nominal_thrust,
)

TWO_TYPES = [
    {
        "type_code": "AAA1",
        "c_D0": 0.025,
        "c_D2": 0.036,
        "S_m2": 120.0,
        "m_nom_kg": 60000.0,
        "v_cas_ms": 150.0,
        "mach": 0.78,
        "c_T1_N": 140000.0,
        "c_T2_m": 50000.0,
        "c_T3_per_m2": 0.0,
    },
    {
        "type_code": "BBB2",
        "c_D0": 0.022,
        "c_D2": 0.046,
        "S_m2": 49.0,
        "m_nom_kg": 8200.0,
        "v_cas_ms": 139.0,
        "mach": 0.75,
        "c_T1_N": 36000.0,
        "c_T2_m": 16000.0,
        "c_T3_per_m2": 3e-10,
    },
]


def write_perf(tmp_path, records, name="perf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(records, indent=2))
    return path


class TestLoadPerformance:
    def test_two_type_file(self, tmp_path):
        catalog = load_performance(write_perf(tmp_path, TWO_TYPES))
        assert sorted(catalog) == ["AAA1", "BBB2"]
        assert catalog["AAA1"].wing_area == 120.0
        assert catalog["BBB2"].schedule == SpeedSchedule(v_cas=139.0, mach=0.75)

    @pytest.mark.parametrize("key, value", [("c_D0", -0.01), ("S_m2", -1.0), ("m_nom_kg", -1.0),
                                            ("c_T3_per_m2", -1e-10)])
    def test_negative_coefficient_names_field(self, tmp_path, key, value):
        path = write_perf(tmp_path, [dict(TWO_TYPES[0], **{key: value})])
        with pytest.raises(ValidationError, match=f"AAA1: {key} must be") as info:
            load_performance(path)
        assert f"performance file {path}: " in str(info.value)

    @pytest.mark.parametrize("key, value, rule", [("v_cas_ms", -1.0, "must be positive"),
                                                  ("v_cas_ms", 0.0, "must be positive"),
                                                  ("mach", 1.2, "must lie in (0, 1)"),
                                                  ("mach", 0.0, "must lie in (0, 1)")])
    def test_speed_schedule_names_its_catalog_key(self, tmp_path, key, value, rule):
        path = write_perf(tmp_path, [dict(TWO_TYPES[0], **{key: value})])
        with pytest.raises(ValidationError) as info:
            load_performance(path)
        assert str(info.value) == f"performance file {path}: AAA1: {key} {rule}, got {value}"

    @pytest.mark.parametrize("value", [True, math.nan, -math.inf, "0.025", None],
                             ids=["true", "nan", "minus-infinity", "text", "null"])
    def test_field_not_a_finite_number_names_field(self, tmp_path, value):
        bad = [dict(TWO_TYPES[0], c_D0=value)]
        with pytest.raises(ValidationError, match="AAA1: field c_D0 must be a finite number"):
            load_performance(write_perf(tmp_path, bad))

    def test_unknown_field_rejected(self, tmp_path):
        bad = [dict(TWO_TYPES[0], wingspan_m=35.0)]
        with pytest.raises(ValidationError, match="wingspan_m"):
            load_performance(write_perf(tmp_path, bad))

    def test_missing_field_rejected(self, tmp_path):
        record = dict(TWO_TYPES[0])
        del record["m_nom_kg"]
        with pytest.raises(ValidationError, match="m_nom_kg"):
            load_performance(write_perf(tmp_path, [record]))

    def test_duplicate_type_code_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            load_performance(write_perf(tmp_path, [TWO_TYPES[0], TWO_TYPES[0]]))

    def test_order_independent(self, tmp_path):
        forward = load_performance(write_perf(tmp_path, TWO_TYPES, "fwd.json"))
        backward = load_performance(write_perf(tmp_path, TWO_TYPES[::-1], "bwd.json"))
        assert list(forward) == list(backward)
        assert forward == backward

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_performance(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(ValidationError):
            load_performance(path)


class TestNominalThrust:
    @pytest.fixture()
    def linear_perf(self):
        return AircraftPerformance(
            type_code="AAA1", c_d0=0.025, c_d2=0.036, wing_area=120.0,
            nominal_mass=60000.0, schedule=SpeedSchedule(150.0, 0.78),
            c_t1=150000.0, c_t2=50000.0, c_t3=0.0,
        )

    def test_sea_level_coefficient(self, linear_perf):
        assert nominal_thrust(linear_perf, np.array([0.0])) == pytest.approx(150000.0)

    def test_linear_form_hand_value(self, linear_perf):
        h = np.array([25000 * 0.3048])   # 7620 m
        assert nominal_thrust(linear_perf, h) == pytest.approx(150000.0 * (1 - 7620.0 / 50000.0))
        assert nominal_thrust(linear_perf, h) == pytest.approx(127140.0)

    def test_altitude_above_interval_rejected(self, linear_perf):
        with pytest.raises(DomainError):
            nominal_thrust(linear_perf, np.array([PERF_H_MAX + 1.0]))
        with pytest.raises(DomainError):
            nominal_thrust(linear_perf, np.array([-5.0]))

    def test_invalid_coefficients_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            AircraftPerformance(
                type_code="XXX", c_d0=0.02, c_d2=0.04, wing_area=100.0,
                nominal_mass=50000.0, schedule=SpeedSchedule(150.0, 0.78),
                c_t1=100000.0, c_t2=9000.0, c_t3=0.0,   # thrust < 0 below 15 km
            )

    @pytest.mark.parametrize("c_t3, refused", [(9.9414e-9, True), (1.0e-8, False)],
                             ids=["dips-below-zero", "stays-positive"])
    def test_thrust_minimum_between_altitudes_decides(self, tmp_path, c_t3, refused):
        # the quadratic's vertex 1 / (2 c_T2 c_T3) is near 10029 m: there the
        # thrust dips to c_T1 (1 - 1 / (4 c_T2^2 c_T3)), just below zero for
        # the first value and just above it for the second
        records = json.loads(default_catalog_path().read_text())
        nbjt = next(r for r in records if r["type_code"] == "NBJT")
        path = write_perf(tmp_path, [{**nbjt, "c_T2_m": 5014.7009, "c_T3_per_m2": c_t3}])
        if refused:
            with pytest.raises(ValidationError, match="NBJT: nominal thrust non-positive at 10029 m"):
                load_performance(path)
        else:
            perf = load_performance(path)["NBJT"]
            assert np.all(nominal_thrust(perf, np.linspace(0.0, PERF_H_MAX, 100001)) > 0.0)


class TestMinLevelThrust:
    def test_zero_climb_consistency(self, nbjt):
        h = fl_to_m(np.array([160.0, 250.0, 320.0]))
        thrust = min_level_thrust(nbjt, h)
        assert np.all(abs(rocd(nbjt, nbjt.nominal_mass, thrust, h)) < 1e-8)

    def test_mass_monotonicity(self, nbjt):
        heavy = dataclasses.replace(nbjt, nominal_mass=2 * nbjt.nominal_mass)
        h = np.array([fl_to_m(250.0)])
        assert min_level_thrust(heavy, h) > min_level_thrust(nbjt, h)

    def test_fl250_against_drag_oracle(self, nbjt):
        # independent closed-form chain: ISA -> CAS->TAS -> drag
        h = fl_to_m(250.0)
        T = 288.15 - 0.0065 * h
        p = 101325.0 * (T / 288.15) ** (9.80665 / (0.0065 * 287.05287))
        rho = p / (287.05287 * T)
        mu = 0.4 / 1.4
        rho0 = 101325.0 / (287.05287 * 288.15)
        inner = (1 + mu * rho0 * nbjt.schedule.v_cas**2 / (2 * 101325.0)) ** (1 / mu) - 1
        v = math.sqrt(2 * p / (mu * rho) * ((1 + (101325.0 / p) * inner) ** mu - 1))
        q = 0.5 * rho * v * v * nbjt.wing_area
        c_lift = nbjt.nominal_mass * 9.80665 / q
        drag_oracle = q * (nbjt.c_d0 + nbjt.c_d2 * c_lift**2)
        assert min_level_thrust(nbjt, np.array([h])) == pytest.approx(drag_oracle, rel=1e-12)

    def test_shipped_types_can_climb(self, catalog):
        h = np.linspace(fl_to_m(140.0), fl_to_m(335.0), 200)
        for perf in catalog.values():
            assert np.all(min_level_thrust(perf, h) < nominal_thrust(perf, h))
