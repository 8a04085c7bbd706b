import numpy as np
import pytest

from climbgen import generative, learning, pipeline
from climbgen.performance import default_catalog_path, load_performance

_ACCEPTANCE_LINES = []


@pytest.fixture()
def acceptance_log():
    """Recorder for per-criterion pass/fail lines, echoed in the summary."""

    def record(name: str, passed: bool, detail: str = "") -> None:
        line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" - {detail}" if detail else "")
        print(line)
        _ACCEPTANCE_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(module, name)`` puts a wrapper in place of
    ``module.name`` for the test and returns the list to which it appends
    each call's positional arguments."""

    def install(module, name: str) -> list:
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture(scope="session")
def catalog():
    return load_performance(default_catalog_path())


@pytest.fixture(scope="session")
def nbjt(catalog):
    return catalog["NBJT"]


@pytest.fixture(scope="session")
def small_world(catalog, tmp_path_factory):
    """A small simulated fleet with a fitted model, shared across tests.

    Returns (model, split, csv_path, truth_path).
    """
    tmp = tmp_path_factory.mktemp("small_world")
    scenario = pipeline.FleetScenario(
        types={
            "NBJT": pipeline.TypeScenario(
                count=80, thrust_bias_n=-2000.0, mode_sds=(1.0e5, 0.6e5, 0.3e5)
            )
        },
        alt_noise_ft=0.0,
        quantization_ft=0.0,
    )
    csv_path = tmp / "blips.csv"
    truth_path = tmp / "truth.json"
    pipeline.simulate_fleet(catalog, scenario, seed=424, csv_path=csv_path,
                            truth_path=truth_path)
    trajectories = pipeline.filter_climbs(pipeline.ingest(csv_path))
    split_data = pipeline.split(trajectories, seed=5)
    model = generative.fit_type_model(catalog["NBJT"], split_data.train)
    return model, split_data, csv_path, truth_path


@pytest.fixture(scope="session")
def radar_fleet(catalog, tmp_path_factory):
    """Flights as radar gives them, in an order that mixes their kinds:
    the climbs of a seeded fleet with 25 ft quantization and 30 ft noise,
    each followed by a flight of another kind in turn: a pickup wholly
    inside the modeled window, two 2-blip flights with the same times, a
    3-blip flight, a level flight inside the window and a climb with one
    altitude missing (NaN)."""
    tmp = tmp_path_factory.mktemp("radar_fleet")
    scenario = pipeline.FleetScenario(
        types={"NBJT": pipeline.TypeScenario(count=40, thrust_bias_n=-2000.0,
                                             mode_sds=(1.0e5, 5e4))},
        alt_noise_ft=30.0, quantization_ft=25.0,
    )
    pipeline.simulate_fleet(catalog, scenario, seed=17, csv_path=tmp / "blips.csv",
                            truth_path=tmp / "truth.json")
    low_ft, high_ft = (fl * 100.0 for fl in learning.INTERVAL_FL)
    flights = []
    for i, climb in enumerate(pipeline.ingest(tmp / "blips.csv")):
        flights.append(climb)
        name, t, alt = climb.flight_id, climb.t_s, climb.alt_ft
        inside = (alt >= low_ft) & (alt <= high_ft)
        j = 3 * i
        extra = [
            [(f"{name}/in", t[inside], alt[inside])],
            [(f"{name}/2a", t[j:j + 2], alt[j:j + 2]), (f"{name}/2b", t[j:j + 2], alt[j:j + 2])],
            [(f"{name}/3", t[j:j + 3], alt[j:j + 3])],
            [(f"{name}/level", t[:8], np.full(8, 20000.0))],
            [(f"{name}/nan", t, np.where(np.arange(t.size) == np.flatnonzero(inside)[5],
                                         np.nan, alt))],
        ][i % 5]
        flights += [pipeline.Trajectory(flight_id, "NBJT", t_s, alt_ft)
                    for flight_id, t_s, alt_ft in extra]
    return flights
