"""Arrival-time metrics, KL divergence, coverage, and report tests."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from climbgen import cli, evaluation, generative, pipeline
from climbgen.atmosphere import FT
from climbgen.dynamics import BLOCK_CLIMBS, ClimbTrajectory, integrate_climb
from climbgen.errors import DataError, InfeasibleClimbError
from climbgen.evaluation import (
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


def crossing_time(t, alt, target_ft):
    """The shared reader's crossing time of one track, which a block of
    two copies of the track reads in both columns."""
    read = evaluation._crossing(alt, target_ft)
    assert np.array_equal(read(np.column_stack((t, t))), np.full(2, read(t)))
    return read(t)


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
        assert crossing_time(t, alt, 15000.0) == 5.0
        traj = make_traj("E", [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
                         [14900.0, 15100.0, 14950.0, 15000.0, 25000.0, 32500.0])
        sample = arrival_times(traj)
        assert (sample.t_fl250, sample.t_fl325) == (35.0, 45.0)

    def test_exact_hits_and_data_that_start_above(self):
        # a monotone climb onto the level keeps the blip's own timestamp
        t = np.array([0.0, 7.0, 19.0])
        assert crossing_time(t, np.array([14900.0, 15000.0, 15100.0]), 15000.0) == 7.0
        # data that start above the level cross it after their first return
        assert crossing_time(t, np.array([15100.0, 15000.0, 14900.0]), 15000.0) == 7.0
        assert crossing_time(t, np.array([15100.0, 14900.0, 15100.0]), 15000.0) == 13.0

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

    def test_a_climb_reads_as_its_column_of_the_block(self, small_world, nbjt):
        model = small_world[0]
        grid = model.basis.grid
        values = np.vstack((model.basis.mean, *generative.sample_blocks(model, 6, seed=3)))
        block = evaluation.model_climbs(nbjt, grid, values)
        assert block.feasible.all()
        columns = evaluation.arrival_columns(block)
        assert columns.shape == (2, len(values))
        for column, row in zip(columns.T, values):
            climb = integrate_climb(nbjt, nbjt.nominal_mass, ThrustProfile(grid, row),
                                    float(grid[0]), float(grid[-1]))
            sample = arrival_times(climb)
            assert np.array([sample.t_fl250, sample.t_fl325]).tobytes() == column.tobytes()

    @pytest.mark.parametrize("t, alt_ft", [([], []), ([0.0], [15000.0]), ([0.0], [25000.0])])
    def test_fewer_than_two_blips_have_no_crossing(self, t, alt_ft):
        # one rule in the shared reader: no crossing of any level, not even
        # for a blip exactly at FL150
        traj = make_traj("S", t, alt_ft)
        assert evaluation._crossing(traj.alt_ft, 15000.0) is None
        assert evaluation._arrivals(traj.alt_ft, traj.t_s) is None
        assert arrival_times(traj) is None

    def test_out_of_order_arrivals_excluded(self):
        # FL325 at t = 50 s, then down through FL150 and up through it at
        # t = 129.5 s: the FL325 arrival comes before the FL250 arrival
        traj = make_traj("A-ODD", [0.0, 60.0, 120.0, 300.0], [30000.0, 33000.0, 14000.0, 33000.0])
        t250, t325 = evaluation._arrivals(traj.alt_ft, traj.t_s)
        assert t250 == pytest.approx(94.74, abs=0.01) and t325 == pytest.approx(-79.47, abs=0.01)
        assert arrival_times(traj) is None


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

    def test_quartiles_are_np_percentile_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for n in range(2, 2001):
            sample = rng.normal(600.0, 40.0, n)
            for s in (sample, np.round(sample, -1), np.floor(sample / 100.0)):   # ties
                assert (evaluation._quartiles(s).tobytes()
                        == np.percentile(s, [75.0, 25.0]).tobytes()), n

    def test_kde_integrates_to_one(self):
        rng = np.random.default_rng(3)
        s = rng.normal(10.0, 3.0, 400)
        bw = silverman_bandwidth(s)
        grid = np.linspace(s.min() - 5 * bw, s.max() + 5 * bw, 2048)
        density = kde_density(s, grid, bw)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("chunk_cells", [None, 64])
    @pytest.mark.parametrize("n", [1, 20, 500, 20_000])
    def test_kde_equals_the_one_matrix_sum_bit_for_bit(self, monkeypatch, n, chunk_cells):
        if chunk_cells:
            monkeypatch.setattr(evaluation, "_KDE_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(n)
        s = rng.normal(300.0, 40.0, n)
        bw = silverman_bandwidth(s) if n > 1 else 7.5
        grid = np.linspace(s.min() - 3 * bw, s.max() + 3 * bw, evaluation.KDE_GRID_SIZE)
        z = (grid[:, None] - s[None, :]) / bw
        want = np.exp(-0.5 * z * z).sum(axis=1) / (s.size * bw * np.sqrt(2.0 * np.pi))
        got = kde_density(s, grid, bw)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_the_samples(self):
        # the kernel is summed over chunks of grid points; one (grid,
        # sample) matrix of two 20 000-point samples takes about 470 MiB
        rng = np.random.default_rng(4)
        p, q = rng.normal(0.0, 1.0, 20_000), rng.normal(0.5, 1.2, 20_000)
        tracemalloc.start()
        try:
            kl = kl_divergence(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kl > 0.0
        assert peak < 10 * 2**20, f"{peak / 2**20:.1f} MiB"


def reference_coverage(test_trajectories, slow, fast):
    """Coverage as it was computed a flight at a time, band read per flight:
    the window blips at or after the flight's FL150 crossing (tau >= 0)."""
    low_ft, high_ft = evaluation.INTERVAL_FL[0] * 100.0, evaluation.INTERVAL_FL[1] * 100.0
    inside = total = 0
    for tr in test_trajectories:
        read = evaluation._crossing(tr.alt_ft, evaluation.REF_FL * 100.0)
        if read is None:
            continue
        tau = tr.t_s - read(tr.t_s)
        mask = (tr.alt_ft >= low_ft) & (tr.alt_ft <= high_ft) & (tau >= 0.0)
        if not np.any(mask):
            continue
        alt_m = tr.alt_ft[mask] * FT
        tau = tau[mask]
        eps = 1e-9
        inside += int(np.count_nonzero((tau >= fast.time_at(alt_m) - eps)
                                       & (tau <= slow.time_at(alt_m) + eps)))
        total += int(np.count_nonzero(mask))
    if total == 0:
        raise DataError("coverage: no test blips inside the interval")
    return 100.0 * inside / total


def random_tracks(seed, n):
    """Tracks around the window: climbs with plateaus, dips below FL150
    and altitudes on a 100 ft step, so some blips hit a level exactly; one
    to 30 blips each, and some with no blip inside the window."""
    rng = np.random.default_rng(seed)
    tracks = []
    for i in range(n):
        size = int(rng.choice([1, 2, rng.integers(3, 31)], p=[0.1, 0.15, 0.75]))
        t = np.cumsum(rng.uniform(4.0, 40.0, size))
        rate_fps = rng.choice([-20.0, 0.0, 30.0, 50.0], size, p=[0.15, 0.15, 0.4, 0.3])
        low, high = (12000.0, 34000.0) if rng.random() < 0.2 else (13500.0, 15500.0)
        alt = rng.uniform(low, high) + np.cumsum(rate_fps * rng.uniform(4.0, 40.0, size))
        if rng.random() < 0.5:
            alt = np.round(alt, -2)
        tracks.append(make_traj(f"R{i}", t, alt))
    return tracks


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

    def test_equals_the_per_flight_reference(self, bands, small_world, nbjt):
        model, split_data, _, _ = small_world
        grid = model.basis.grid
        model_bands = generative.bound_trajectories(
            model, nbjt, nbjt.nominal_mass, float(grid[0]), float(grid[-1]), 0.5)
        for slow, fast in (bands, model_bands):
            assert coverage(split_data.test, slow, fast) == \
                reference_coverage(split_data.test, slow, fast)
        tracks = random_tracks(7, 600) + [
            make_traj("dip", [0.0, 10.0, 20.0, 30.0, 40.0],
                      [14000.0, 15500.0, 14800.0, 16000.0, 17000.0]),
            make_traj("plateau", [0.0, 10.0, 20.0, 30.0], [15000.0, 15000.0, 20000.0, 20000.0]),
            make_traj("hits", [0.0, 50.0, 90.0], [15000.0, 25000.0, 32500.0]),
            make_traj("one", [0.0], [15000.0]),
            make_traj("two", [0.0, 30.0], [14900.0, 16500.0]),
            make_traj("over", [0.0, 60.0], [14000.0, 33000.0]),   # no window blip
        ]
        window = [((tr.alt_ft >= 15000.0) & (tr.alt_ft <= 32500.0)).sum() for tr in tracks]
        assert {1, 2} <= {tr.n_blips for tr in tracks} and 0 in window
        rng = np.random.default_rng(8)
        for slow, fast in (bands, model_bands):
            for _ in range(200):
                chosen = [tracks[k] for k in rng.choice(len(tracks), rng.integers(1, 9))]
                try:
                    expected = reference_coverage(chosen, slow, fast)
                except DataError:
                    with pytest.raises(DataError):
                        coverage(chosen, slow, fast)
                    continue
                assert coverage(chosen, slow, fast) == expected
            assert coverage(tracks, slow, fast) == reference_coverage(tracks, slow, fast)

    @pytest.mark.parametrize("alt_ft", [[], [15200.0], [15000.0]])
    def test_a_flight_of_fewer_than_two_blips_is_skipped(self, bands, caplog, alt_ft):
        # a track of fewer than two blips has no crossing, not even a blip
        # exactly at FL150: the flight is skipped with the one warning
        slow, fast = bands
        traj = constant_rate_traj("A", 14500.0, 33500.0, 3.0 / 0.3048 * 60.0)
        alone = coverage([traj], slow, fast)
        short = make_traj("X", [0.0] * len(alt_ft), alt_ft)
        with caplog.at_level("WARNING", logger="climbgen.evaluation"):
            got = coverage([short, traj], slow, fast)
        assert got == alone
        assert [r.getMessage() for r in caplog.records] == [
            "type NBJT: 1 test flight(s) have no FL150 crossing; skipped from coverage "
            "(first: X)"]

    def test_blips_before_the_crossing_are_not_scored(self, bands):
        # A-ODD's one window blip, 30000 ft at t = 0, comes 129.5 s before
        # its FL150 crossing, so A-ODD has no blip to score
        slow, fast = bands
        traj = constant_rate_traj("A", 14500.0, 33500.0, 8.0 / 0.3048 * 60.0)
        odd = make_traj("A-ODD", [0.0, 60.0, 120.0, 300.0], [30000.0, 33000.0, 14000.0, 33000.0])
        assert coverage([traj], slow, fast) == pytest.approx(100.0)
        assert coverage([odd, traj], slow, fast) == coverage([traj], slow, fast)
        with pytest.raises(DataError, match="no test blips inside the interval"):
            coverage([odd], slow, fast)

    def test_flights_with_blips_before_the_crossing_are_named(self, bands, caplog):
        # A-ODD's window blip at t = 0 and B-DIP's 20000 ft blip at t = 0
        # come before their FL150 crossings (129.5 s and 90 s): one warning
        # names both, and B-DIP scores as it would without that blip
        slow, fast = bands
        traj = constant_rate_traj("A", 14500.0, 33500.0, 8.0 / 0.3048 * 60.0)
        odd = make_traj("A-ODD", [0.0, 60.0, 120.0, 300.0], [30000.0, 33000.0, 14000.0, 33000.0])
        dip = make_traj("B-DIP", [0.0, 60.0, 120.0, 400.0], [20000.0, 14000.0, 16000.0, 30000.0])
        late = make_traj("B-DIP", [60.0, 120.0, 400.0], [14000.0, 16000.0, 30000.0])
        with caplog.at_level("WARNING", logger="climbgen.evaluation"):
            got = coverage([odd, traj, dip], slow, fast)
            assert [r.getMessage() for r in caplog.records] == [
                "type NBJT: 2 test flight(s) have window blips before their FL150 crossing; "
                "those blips skipped from coverage (first: A-ODD, B-DIP)"]
            caplog.clear()
            assert got == coverage([traj, late], slow, fast)
            assert coverage([traj], slow, fast) == pytest.approx(100.0)
        assert caplog.records == []


class TestModelClimb:
    def test_the_window_climb_at_nominal_mass(self, small_world, catalog):
        model = small_world[0]
        perf = catalog["NBJT"]
        grid = default_grid()
        profiles = (model.mean_profile(), ThrustProfile(grid, nominal_thrust(perf, grid)))
        climbs = evaluation.model_climbs(perf, grid, np.array([p.values for p in profiles]))
        assert climbs.feasible.all()
        for got, profile in zip(climbs.t, profiles):
            want = integrate_climb(perf, perf.nominal_mass, profile, grid[0], grid[-1])
            assert np.array_equal(got, want.t) and np.array_equal(climbs.h, want.h)

    def test_a_model_on_another_grid_is_scored_on_its_own_grid(self, small_world, catalog,
                                                                tmp_path, monkeypatch):
        # evaluate and predict take the nominal thrust on the model's grid:
        # a 199-node copy of a fitted model is scored, not refused by numpy
        model, split_data, _, _ = small_world
        perf = catalog["NBJT"]
        grid = model.basis.grid
        fine = np.linspace(grid[0], grid[-1], 199)
        basis = dataclasses.replace(
            model.basis, grid=fine, mean=np.interp(fine, grid, model.basis.mean),
            modes=np.array([np.interp(fine, grid, mode) for mode in model.basis.modes]))
        copy = generative.GenerativeClimbModel("NBJT", basis, model.n_flights_fit)
        nominal = evaluation.model_climbs(perf, fine, nominal_thrust(perf, fine)[None, :])
        (nominal_250,), (nominal_325,) = evaluation.arrival_columns(nominal)
        observed = [a for a in map(arrival_times, split_data.test) if a is not None]

        report = evaluation.evaluate_type(copy, perf, split_data.test, tmp_path / "eval", seed=1)
        assert report.mae_fl250_nominal == evaluation.mae(nominal_250,
                                                          [a.t_fl250 for a in observed])
        assert report.mae_fl325_nominal == evaluation.mae(nominal_325,
                                                          [a.t_fl325 for a in observed])
        lines = (tmp_path / "eval" / "profiles_NBJT.csv").read_text().splitlines()
        column = lines[0].split(",").index("nominal_N")
        assert [float(line.split(",")[column]) for line in lines[1:]] == \
            nominal_thrust(perf, fine).tolist()

        monkeypatch.setattr(generative, "load_model", lambda path: copy)
        assert cli.main(["predict", "--model", "copy.json", "--out", str(tmp_path / "p")]) == 0
        lines = (tmp_path / "p" / "predict_NBJT.csv").read_text().splitlines()
        assert [float(line.split(",")[2]) for line in lines[1:]] == nominal.t[0].tolist()

    def test_an_infeasible_lower_envelope_is_named(self, small_world, catalog, tmp_path):
        # a model widened 1e4 times: its mean climbs, its lower envelope does
        # not, and evaluate raises that climb's error, naming it, and writes
        # nothing
        model, split_data, _, _ = small_world
        perf = catalog["NBJT"]
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 1e4,
                                    total_variance=model.basis.total_variance * 1e4)
        wide = generative.GenerativeClimbModel("NBJT", basis, model.n_flights_fit)
        grid = basis.grid
        lower, _ = generative.bound_profiles(wide, 0.95)
        integrate_climb(perf, perf.nominal_mass, wide.mean_profile(), grid[0], grid[-1])
        with pytest.raises(InfeasibleClimbError) as want:
            integrate_climb(perf, perf.nominal_mass, ThrustProfile(grid, lower),
                            grid[0], grid[-1])
        out = tmp_path / "out"
        with pytest.raises(InfeasibleClimbError) as got:
            evaluation.evaluate_type(wide, perf, split_data.test, out, seed=1)
        assert str(got.value) == f"lower-envelope {want.value}"
        assert got.value.altitude_m == want.value.altitude_m
        assert not out.exists()

    @pytest.mark.parametrize("block_climbs", [None, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_an_infeasible_sample_raises_its_own_error(self, small_world, catalog, tmp_path,
                                                       monkeypatch, seed, block_climbs):
        # a wide model whose mean and envelope at a low level climb, but
        # some of whose samples do not: evaluate raises the first such
        # sample's error, in whichever block it lies, and writes nothing
        model, split_data, _, _ = small_world
        perf = catalog["NBJT"]
        basis = dataclasses.replace(model.basis, variance=model.basis.variance * 30.0,
                                    total_variance=model.basis.total_variance * 30.0)
        wide = generative.GenerativeClimbModel("NBJT", basis, model.n_flights_fit)
        grid = basis.grid

        def climb(values):
            return integrate_climb(perf, perf.nominal_mass, ThrustProfile(grid, values),
                                   grid[0], grid[-1])

        for values in (basis.mean, *generative.bound_profiles(wide, 0.01)):
            climb(values)
        n = sum(arrival_times(tr) is not None for tr in split_data.test)
        errors = []
        for k, row in enumerate(np.concatenate(list(generative.sample_blocks(wide, n, seed)))):
            try:
                climb(row)
            except InfeasibleClimbError as exc:
                errors.append((k, exc))
        assert 2 <= len(errors) < n and str(errors[0][1]) != str(errors[1][1])
        first, error = errors[0]
        out = tmp_path / "out"
        if block_climbs:
            monkeypatch.setattr(generative, "BLOCK_CLIMBS", block_climbs)
        with pytest.raises(InfeasibleClimbError) as got:
            evaluation.evaluate_type(wide, perf, split_data.test, out, seed=seed, level=0.01)
        # the same error, naming the sample, counted from 0
        assert str(got.value) == f"sample {first} {error}"
        assert got.value.altitude_m == error.altitude_m
        assert not out.exists()


    def test_sampled_climbs_integrated_in_blocks_change_no_byte(self, small_world, catalog,
                                                                tmp_path, monkeypatch):
        # the sampled climbs are integrated a block of BLOCK_CLIMBS rows at a
        # time, as they are drawn; the three CSVs and the report do not
        # depend on the block size
        model, split_data, _, _ = small_world
        perf = catalog["NBJT"]
        names = {f"{kind}_NBJT.csv" for kind in ("profiles", "arrivals_test", "kde")}
        whole = evaluation.evaluate_type(model, perf, split_data.test, tmp_path / "whole", seed=1)
        monkeypatch.setattr(generative, "BLOCK_CLIMBS", 4)
        rows = []
        model_climbs = evaluation.model_climbs

        def spy(perf, grid, values):
            rows.append(len(values))
            return model_climbs(perf, grid, values)

        monkeypatch.setattr(evaluation, "model_climbs", spy)
        blocks = evaluation.evaluate_type(model, perf, split_data.test, tmp_path / "blocks", seed=1)
        # the four model climbs, then the samples four at a time, a lone
        # last sample joining the block before it
        n_samples = sum(rows[1:])
        assert n_samples > 8 and rows[0] == 4
        assert rows[1:-1] == [4] * (len(rows) - 2) and 2 <= rows[-1] <= 5
        for out in ("whole", "blocks"):
            assert {p.name for p in (tmp_path / out).iterdir()} == names
        for name in names:
            assert (tmp_path / "blocks" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes()
        assert repr(blocks) == repr(whole)


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

    def test_skipped_flights_are_one_warning_per_reason(self, small_world, catalog, tmp_path,
                                                        caplog):
        # four flights that top out below FL325 and four that start above
        # FL150: the eight miss the report levels, and the four also miss
        # the coverage reference
        model, split_data, _, _ = small_world
        short = [constant_rate_traj(f"S{i}", 14000.0, 30000.0, 2000.0 + i) for i in range(4)]
        high = [constant_rate_traj(f"H{i}", 16000.0, 33500.0, 2000.0 + i) for i in range(4)]
        with caplog.at_level("WARNING", logger="climbgen.evaluation"):
            evaluation.evaluate_type(model, catalog["NBJT"], short + split_data.test + high,
                                     tmp_path, seed=1)
        lines = [r.getMessage() for r in caplog.records]
        assert lines == [
            "type NBJT: 8 test flight(s) miss one of FL150, FL250, FL325; excluded "
            "(first: S0, S1, S2)",
            "type NBJT: 4 test flight(s) have no FL150 crossing; skipped from coverage "
            "(first: H0, H1, H2)",
        ]

    def test_a_flight_out_of_order_is_named_apart_from_one_that_misses_a_level(
            self, small_world, catalog, tmp_path, caplog):
        # S0 tops out below FL325; A-ODD reaches FL325 before FL150 and
        # FL250: both are excluded from the MAE and the KL, each for its
        # own reason
        model, split_data, _, _ = small_world
        short = constant_rate_traj("S0", 14000.0, 30000.0, 2000.0)
        odd = make_traj("A-ODD", [0.0, 60.0, 120.0, 300.0], [30000.0, 33000.0, 14000.0, 33000.0])
        with caplog.at_level("WARNING", logger="climbgen.evaluation"):
            evaluation.evaluate_type(model, catalog["NBJT"], [odd, short, *split_data.test],
                                     tmp_path, seed=1)
        lines = [r.getMessage() for r in caplog.records]
        assert lines[:2] == [
            "type NBJT: 1 test flight(s) miss one of FL150, FL250, FL325; excluded (first: S0)",
            "type NBJT: 1 test flight(s) cross the report levels out of order; excluded "
            "(first: A-ODD)",
        ]

    def test_each_test_flight_is_read_once(self, small_world, catalog, tmp_path, caplog,
                                           count_calls):
        # A-ODD crosses the levels out of order and CUT, a test flight cut
        # below FL325, misses one: one read of each flight names its reason
        model, split_data, _, _ = small_world
        first = split_data.test[0]
        below = first.alt_ft < 31500.0
        cut = Trajectory("CUT", first.type_code, first.t_s[below], first.alt_ft[below])
        odd = make_traj("A-ODD", [0.0, 60.0, 120.0, 300.0], [30000.0, 33000.0, 14000.0, 33000.0])
        flights = [odd, *split_data.test, cut]
        plain = evaluation.evaluate_type(model, catalog["NBJT"], split_data.test,
                                         tmp_path / "plain", seed=1)
        reads = count_calls(evaluation, "_arrivals")
        one_track = count_calls(evaluation, "arrival_times")
        with caplog.at_level("WARNING", logger="climbgen.evaluation"):
            report = evaluation.evaluate_type(model, catalog["NBJT"], flights, tmp_path / "both",
                                              seed=1)
        model_blocks = 1 + -(-len(split_data.test) // BLOCK_CLIMBS)
        assert len(reads) == len(flights) + model_blocks
        assert one_track == []
        lines = [r.getMessage() for r in caplog.records]
        assert lines[:2] == [
            "type NBJT: 1 test flight(s) miss one of FL150, FL250, FL325; excluded (first: CUT)",
            "type NBJT: 1 test flight(s) cross the report levels out of order; excluded "
            "(first: A-ODD)",
        ]
        for field in ("mae_fl250_model", "mae_fl250_nominal", "mae_fl325_model",
                      "mae_fl325_nominal", "kl_fl250", "kl_fl325"):
            assert getattr(report, field) == getattr(plain, field)

    def test_missing_model_skipped_with_warning(self, small_world, catalog, tmp_path, caplog):
        _, split_data, _, _ = small_world
        import logging

        with caplog.at_level(logging.WARNING, logger="climbgen.evaluation"):
            reports = run_report({}, split_data, catalog, tmp_path / "out", seed=0)
        assert reports == []
        assert "no fitted model" in " ".join(r.message for r in caplog.records)
        assert not (tmp_path / "out").exists()   # no report that looks like a finished run

    def test_empty_test_set_writes_no_report(self, small_world, catalog, tmp_path):
        model, _, _, _ = small_world
        empty = pipeline.DatasetSplit(train=[], test=[])
        reports = run_report({"NBJT": model}, empty, catalog, tmp_path / "out", seed=0)
        assert reports == []
        assert not (tmp_path / "out").exists()

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
        assert {p.name for p in tmp_path.glob("*_NBJT.csv")} == {
            f"{kind}_NBJT.csv" for kind in ("profiles", "arrivals_test", "kde")}

        lines = (tmp_path / "profiles_NBJT.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        lower, upper = original(model, 0.9)
        assert np.array_equal(table[:, header.index("lower_N")], lower)
        assert np.array_equal(table[:, header.index("upper_N")], upper)

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
