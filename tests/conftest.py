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
