"""Arrival-time metrics, KL divergence, coverage, and report tests."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from climbgen import evaluation, generative, pipeline
from climbgen.dynamics import ClimbTrajectory, integrate_climb
from climbgen.errors import DataError, InfeasibleClimbError
from climbgen.evaluation import (
    ArrivalSample,
    arrival_times,
    coverage,
    kde_density,
    kl_divergence,
    mae,
    run_report,
    silverman_bandwidth,
)
from climbgen.learning import ThrustProfile, default_grid
from climbgen.performance import nominal_thrust
from climbgen.pipeline import Trajectory


def make_traj(flight_id, t, alt_ft):
    return Trajectory(flight_id=flight_id, type_code="NBJT", t_s=t, alt_ft=alt_ft)


def constant_rate_traj(flight_id, alt0, alt1, rate_fpm, dt=5.0):
    rate_fps = rate_fpm / 60.0
    n = int((alt1 - alt0) / (rate_fps * dt)) + 1
    t = np.arange(n) * dt
    return make_traj(flight_id, t, alt0 + t * rate_fps)


class TestArrivalTimes:
    def test_constant_climb_hand_value(self):
        traj = constant_rate_traj("A", 14000.0, 33500.0, 2540.0)
        sample = arrival_times(traj)
        assert sample is not None
        # 10000 ft above the FL150 reference at 2540 ft/min
        assert sample.t_fl250 == pytest.approx(10000.0 / 2540.0 * 60.0, abs=1e-6)
        assert sample.t_fl325 == pytest.approx(17500.0 / 2540.0 * 60.0, abs=1e-6)

    def test_blip_exactly_at_level_uses_own_timestamp(self):
        traj = make_traj("B", [0.0, 100.0, 200.0, 300.0],
                         [15000.0, 20000.0, 25000.0, 33000.0])
        sample = arrival_times(traj)
        assert sample.t_fl250 == pytest.approx(200.0)

    def test_first_crossing_before_a_later_exact_hit(self):
        # the climb crosses FL150 at t = 5, dips back, and lands on it at t = 30
        t = np.array([0.0, 10.0, 20.0, 30.0])
        alt = np.array([14900.0, 15100.0, 14950.0, 15000.0])
        assert evaluation._crossing_time(t, alt, 15000.0) == 5.0
        traj = make_traj("E", [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
                         [14900.0, 15100.0, 14950.0, 15000.0, 25000.0, 32500.0])
        sample = arrival_times(traj)
        assert (sample.t_fl250, sample.t_fl325) == (35.0, 45.0)

    def test_exact_hits_and_data_that_start_above(self):
        # a monotone climb onto the level keeps the blip's own timestamp
        t = np.array([0.0, 7.0, 19.0])
        assert evaluation._crossing_time(t, np.array([14900.0, 15000.0, 15100.0]), 15000.0) == 7.0
        # data that start above the level cross it after their first return
        assert evaluation._crossing_time(t, np.array([15100.0, 15000.0, 14900.0]), 15000.0) == 7.0
        assert evaluation._crossing_time(t, np.array([15100.0, 14900.0, 15100.0]), 15000.0) == 13.0

    def test_non_spanning_trajectory_excluded(self):
        traj = make_traj("C", [0.0, 100.0, 200.0], [16000.0, 20000.0, 24000.0])
        assert arrival_times(traj) is None

    def test_clipped_start_extrapolates_reference(self):
        # filtered trajectories start just above FL150; the reference
        # crossing is extrapolated from the first segment
        traj = constant_rate_traj("D", 15100.0, 33000.0, 2000.0)
        sample = arrival_times(traj)
        assert sample is not None
        assert sample.t_fl250 == pytest.approx((25000.0 - 15000.0) / 2000.0 * 60.0, abs=1e-6)

    def test_model_trajectory_accepted(self, small_world, catalog, nbjt):
        model, _, _, _ = small_world
        from climbgen.dynamics import integrate_climb

        grid = model.basis.grid
        traj = integrate_climb(nbjt, nbjt.nominal_mass, model.mean_profile(),
                               float(grid[0]), float(grid[-1]))
        sample = arrival_times(traj)
        assert sample is not None
        assert 0.0 < sample.t_fl250 < sample.t_fl325

    def test_ordering_enforced(self):
        with pytest.raises(Exception):
            ArrivalSample(flight_id="X", t_fl250=100.0, t_fl325=50.0)


class TestMae:
    def test_zero_when_equal(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert mae(140.0, np.array([100.0, 200.0])) == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mae(1.0, np.array([]))


class TestKlDivergence:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(0)
        s = rng.normal(0.0, 1.0, 500)
        assert kl_divergence(s, s.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_unit_shift_gaussians_near_half(self):
        rng = np.random.default_rng(1)
        p = rng.normal(0.0, 1.0, 10_000)
        q = rng.normal(1.0, 1.0, 10_000)
        assert kl_divergence(p, q) == pytest.approx(0.5, rel=0.10)

    def test_asymmetry(self):
        rng = np.random.default_rng(2)
        p = rng.exponential(1.0, 5_000)
        q = rng.normal(1.0, 1.0, 5_000)
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), rel=0.01)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            kl_divergence(np.arange(10.0), np.arange(30.0))

    def test_degenerate_sample(self):
        with pytest.raises(DataError):
            kl_divergence(np.full(30, 5.0), np.arange(30.0))

    def test_kde_integrates_to_one(self):
        rng = np.random.default_rng(3)
        s = rng.normal(10.0, 3.0, 400)
        bw = silverman_bandwidth(s)
        grid = np.linspace(s.min() - 5 * bw, s.max() + 5 * bw, 2048)
        density = kde_density(s, grid, bw)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)


class TestCoverage:
    @pytest.fixture()
    def bands(self):
        h = np.linspace(4572.0, 9906.0, 200)
        fast = ClimbTrajectory(t=(h - h[0]) / 12.0, h=h)
        slow = ClimbTrajectory(t=(h - h[0]) / 6.0, h=h)
        return slow, fast

    def test_trajectory_inside_counts_fully(self, bands):
        slow, fast = bands
        # 8 m/s constant climb sits between the 6 and 12 m/s envelopes
        traj = constant_rate_traj("A", 14500.0, 33500.0, 8.0 / 0.3048 * 60.0)
        assert coverage([traj], slow, fast) == pytest.approx(100.0)

    def test_trajectory_outside_counts_zero(self, bands):
        slow, fast = bands
        traj = constant_rate_traj("B", 14500.0, 33500.0, 3.0 / 0.3048 * 60.0)
        assert coverage([traj], slow, fast) == pytest.approx(0.0, abs=10.0)

    def test_huge_bands_give_full_coverage(self, small_world):
        # the limiting case of level -> 1: bands far wider than any flight
        _, split_data, _, _ = small_world
        h = np.linspace(4572.0, 9906.0, 200)
        fast = ClimbTrajectory(t=(h - h[0]) / 100.0, h=h)
        slow = ClimbTrajectory(t=(h - h[0]) / 0.01, h=h)
        assert coverage(split_data.test, slow, fast) == pytest.approx(100.0)

    def test_tiny_level_far_below_nominal(self, small_world, nbjt):
        model, split_data, _, _ = small_world
        grid = model.basis.grid
        slow, fast = generative.bound_trajectories(
            model, nbjt, nbjt.nominal_mass, float(grid[0]), float(grid[-1]),
            level=0.05,
        )
        assert coverage(split_data.test, slow, fast) < 90.0

    def test_monotone_in_level(self, small_world, nbjt):
        model, split_data, _, _ = small_world
        grid = model.basis.grid
        values = []
        for level in (0.2, 0.5, 0.8, 0.95):
            slow, fast = generative.bound_trajectories(
                model, nbjt, nbjt.nominal_mass, float(grid[0]), float(grid[-1]), level,
            )
            values.append(coverage(split_data.test, slow, fast))
        assert values == sorted(values)

    def test_no_blips_rejected(self, bands):
        slow, fast = bands
        with pytest.raises(DataError):
            coverage([], slow, fast)


class TestModelClimb:
    def test_the_window_climb_at_nominal_mass(self, small_world, catalog):
        model = small_world[0]
        perf = catalog["NBJT"]
        grid = default_grid()
        nominal = evaluation.nominal_profile(perf)
        assert np.array_equal(nominal.grid, grid)
        assert np.array_equal(nominal.values, nominal_thrust(perf, grid))
        profiles = (model.mean_profile(), nominal)
        climbs = evaluation.model_climbs(perf, grid, np.array([p.values for p in profiles]))
        assert climbs.feasible.all()
        for got, profile in zip(climbs.t, profiles):
            want = integrate_climb(perf, perf.nominal_mass, profile, grid[0], grid[-1])
            assert np.array_equal(got, want.t) and np.array_equal(climbs.h, want.h)


    @pytest.mark.parametrize("block_climbs", [None, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_an_infeasible_sample_raises_its_own_error(self, small_world, catalog, tmp_path,
                                                       monkeypatch, seed, block_climbs):
        # a wide model whose mean and envelope at a low level climb, but
        # some of whose samples do not: evaluate raises the first such
        # sample's error, in whichever block it lies, and writes nothing
        if block_climbs:
            monkeypatch.setattr(evaluation, "BLOCK_CLIMBS", block_climbs)
        model, split_data, _, _ = small_world
        perf = catalog["NBJT"]
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 30.0,
                                    total_variance=model.basis.total_variance * 30.0)
        wide = generative.GenerativeClimbModel("NBJT", basis, model.n_flights_fit)
        grid = basis.grid

        def climb(profile):
            return integrate_climb(perf, perf.nominal_mass, profile, grid[0], grid[-1])

        for profile in (wide.mean_profile(), *generative.bound_profiles(wide, 0.01)):
            climb(profile)
        n = sum(arrival_times(tr) is not None for tr in split_data.test)
        errors = []
        for row in generative.sample_values(wide, n, seed):
            try:
                climb(ThrustProfile(grid, row))
            except InfeasibleClimbError as exc:
                errors.append(exc)
        assert 2 <= len(errors) < n and str(errors[0]) != str(errors[1])
        out = tmp_path / "out"
        with pytest.raises(InfeasibleClimbError) as got:
            evaluation.evaluate_type(wide, perf, split_data.test, out, seed=seed, level=0.01)
        assert str(got.value) == str(errors[0])
        assert got.value.altitude_m == errors[0].altitude_m
        assert not out.exists()


class TestRunReport:
    def test_report_and_determinism(self, small_world, catalog, tmp_path):
        model, split_data, _, _ = small_world
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        reports_a = run_report({"NBJT": model}, split_data, catalog, out_a, seed=6)
        reports_b = run_report({"NBJT": model}, split_data, catalog, out_b, seed=6)
        assert len(reports_a) == 1
        assert (out_a / "metrics_report.csv").read_bytes() == (out_b / "metrics_report.csv").read_bytes()
        assert (out_a / "metrics_report.json").read_bytes() == (out_b / "metrics_report.json").read_bytes()
        assert (out_a / "profiles_NBJT.csv").read_bytes() == (out_b / "profiles_NBJT.csv").read_bytes()
        assert (out_a / "kde_NBJT.csv").read_bytes() == (out_b / "kde_NBJT.csv").read_bytes()
        row = reports_a[0]
        assert row.type_code == "NBJT"
        assert row.n_f == model.n_flights_fit
        assert 0.0 <= row.coverage_pct <= 100.0
        doc = json.loads((out_a / "metrics_report.json").read_text())
        assert doc[0]["type_code"] == "NBJT"

    def test_missing_model_skipped_with_warning(self, small_world, catalog, tmp_path, caplog):
        _, split_data, _, _ = small_world
        import logging

        with caplog.at_level(logging.WARNING, logger="climbgen.evaluation"):
            reports = run_report({}, split_data, catalog, tmp_path / "out", seed=0)
        assert reports == []
        assert "no fitted model" in " ".join(r.message for r in caplog.records)
        assert (tmp_path / "out" / "metrics_report.csv").exists()

    def test_empty_test_set_succeeds_with_empty_table(self, small_world, catalog, tmp_path):
        model, _, _, _ = small_world
        empty = pipeline.DatasetSplit(train=[], test=[])
        reports = run_report({"NBJT": model}, empty, catalog, tmp_path / "out", seed=0)
        assert reports == []
        text = (tmp_path / "out" / "metrics_report.csv").read_text()
        assert text.splitlines()[0].startswith("type_code")
        assert len(text.splitlines()) == 1

    def test_models_read_only(self, small_world, catalog, tmp_path):
        model, split_data, _, _ = small_world
        model_path = tmp_path / "model.json"
        generative.save_model(model, model_path)
        digest_before = hashlib.sha256(model_path.read_bytes()).hexdigest()
        run_report({"NBJT": generative.load_model(model_path)}, split_data, catalog,
                   tmp_path / "out", seed=1)
        assert hashlib.sha256(model_path.read_bytes()).hexdigest() == digest_before

    def test_one_envelope_per_evaluated_type(self, small_world, catalog, tmp_path, monkeypatch):
        """evaluate builds each type's envelope once, also for a type whose
        slow bound climb is infeasible, and writes it unchanged."""
        model, split_data, _, _ = small_world
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 1e4,
                                    total_variance=model.basis.total_variance * 1e4)
        wide = generative.GenerativeClimbModel("WIDE", basis, model.n_flights_fit)
        test = split_data.test + [dataclasses.replace(tr, type_code="WIDE")
                                  for tr in split_data.test]
        data = pipeline.DatasetSplit(train=[], test=test)
        catalog = {**catalog, "WIDE": dataclasses.replace(catalog["NBJT"], type_code="WIDE")}
        original = generative.bound_profiles
        calls = []

        def counting(m, *args, **kwargs):
            calls.append(m.type_code)
            return original(m, *args, **kwargs)

        for module in (generative, evaluation):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
        reports = run_report({"NBJT": model, "WIDE": wide}, data, catalog, tmp_path,
                             seed=2, level=0.9)
        assert calls == ["NBJT", "WIDE"]
        assert [r.type_code for r in reports] == ["NBJT"]
        assert not list(tmp_path.glob("*_WIDE.csv"))
        assert len(list(tmp_path.glob("*_NBJT.csv"))) == 5

        lines = (tmp_path / "profiles_NBJT.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        lower, upper = original(model, 0.9)
        assert np.array_equal(table[:, header.index("lower_N")], lower.values)
        assert np.array_equal(table[:, header.index("upper_N")], upper.values)

    def test_one_type_held_at_a_time(self, small_world, catalog, tmp_path):
        """Scoring a second type holds nothing of the first: two types of
        500+ test flights peak within 15% of one.  Smaller types cannot
        tell the two apart, as the per-type state is then too small."""
        model, split_data, _, _ = small_world
        copies = -(-500 // len(split_data.test))
        nbjt = [dataclasses.replace(tr, flight_id=f"{tr.flight_id}.{k}")
                for k in range(copies) for tr in split_data.test]
        nbju = [dataclasses.replace(tr, type_code="NBJU") for tr in nbjt]
        models = {"NBJT": model, "NBJU": dataclasses.replace(model, type_code="NBJU")}
        catalog = {**catalog, "NBJU": dataclasses.replace(catalog["NBJT"], type_code="NBJU")}

        def peak(test, out):
            tracemalloc.start()
            try:
                reports = run_report(models, pipeline.DatasetSplit(train=[], test=test),
                                     catalog, out, seed=3)
                return tracemalloc.get_traced_memory()[1], reports
            finally:
                tracemalloc.stop()

        one, reports = peak(nbjt, tmp_path / "one")
        assert len(reports) == 1
        two, reports = peak(nbjt + nbju, tmp_path / "two")
        assert len(reports) == 2
        assert two <= 1.15 * one, (one, two)
