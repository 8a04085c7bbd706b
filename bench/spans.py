"""Span tracing of climbgen's layers from outside the package.

``install`` replaces each function named in ``WRAPPED`` by a timing wrapper
in every climbgen module that binds it (the defining module, modules that
did ``from .x import f``, and the package namespace), and returns a
callable that puts the originals back.  Nothing under ``src/`` is edited.

The table is explicit on purpose: a function that is renamed or moved
makes ``install`` raise instead of silently dropping a layer, and
``REQUIRED_BINDINGS`` fails the same way if a cross-module import that the
per-layer numbers rely on disappears.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` lists
and written out once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from workloads import STAGES

LAYERS = ("atmosphere", "performance", "dynamics", "learning",
          "generative", "pipeline", "evaluation", "cli")

# (layer, function): the public functions whose calls are spans.
WRAPPED = (
    ("atmosphere", "isa_state"),
    ("atmosphere", "schedule_speed"),
    ("performance", "load_performance"),
    ("performance", "nominal_thrust"),
    ("performance", "min_level_thrust"),
    ("dynamics", "integrate_climb"),
    ("dynamics", "rocd"),
    ("learning", "profile_from_flight"),
    ("learning", "invert_thrust"),
    ("learning", "fit_fpca"),
    ("learning", "project_weights"),
    ("generative", "bound_profiles"),
    ("generative", "confidence_radius"),
    ("generative", "bound_trajectories"),
    ("generative", "sample_thrust"),
    ("generative", "fit_weight_distribution"),
    ("generative", "save_model"),
    ("generative", "load_model"),
    ("pipeline", "simulate_fleet"),
    ("pipeline", "ingest"),
    ("pipeline", "filter_climbs"),
    ("pipeline", "split"),
    ("pipeline", "write_trajectories_csv"),
    ("evaluation", "run_report"),
    ("evaluation", "evaluate_type"),
    ("evaluation", "kl_divergence"),
    ("evaluation", "coverage"),
    ("evaluation", "arrival_times"),
)

# (module, name) pairs that must be rebound, or a layer's spans lose their
# parents: the climb integrator is imported by name into these modules.
REQUIRED_BINDINGS = (
    ("pipeline", "integrate_climb"),
    ("generative", "integrate_climb"),
    ("evaluation", "integrate_climb"),
)

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


# Extra counters, updated after a call returns or raises:
# extra(counters, args, kwargs, result, exc).
def _isa_state(c, args, kwargs, result, exc):
    c["atmosphere.isa_state.nodes"] += _size(_arg(args, kwargs, 0, "h"))


def _integrate_climb(c, args, kwargs, result, exc):
    if exc is None:
        c["dynamics.integrate_climb.nodes"] += result.h.size
    elif type(exc).__name__ == "InfeasibleClimbError":
        c["dynamics.integrate_climb.infeasible"] += 1


def _profile_from_flight(c, args, kwargs, result, exc):
    if exc is not None:
        c["learning.profile_from_flight.rejected"] += 1


def _sample_thrust(c, args, kwargs, result, exc):
    if exc is None:
        c["generative.sample_thrust.profiles"] += len(result)


def _simulate_fleet(c, args, kwargs, result, exc):
    if exc is None:
        c["pipeline.simulate_fleet.bytes_written"] += (
            os.path.getsize(_arg(args, kwargs, 3, "csv_path"))
            + os.path.getsize(_arg(args, kwargs, 4, "truth_path")))


def _ingest(c, args, kwargs, result, exc):
    if exc is None:
        c["pipeline.ingest.rows"] += sum(tr.n_blips for tr in result)


def _filter_climbs(c, args, kwargs, result, exc):
    if exc is None:
        c["pipeline.filter_climbs.seen"] += len(_arg(args, kwargs, 0, "trajectories"))
        c["pipeline.filter_climbs.kept"] += len(result)


def _write_trajectories_csv(c, args, kwargs, result, exc):
    if exc is None:
        c["pipeline.write_trajectories_csv.bytes_written"] += os.path.getsize(
            _arg(args, kwargs, 1, "path"))


def _run_report(c, args, kwargs, result, exc):
    if exc is None:
        split_data = _arg(args, kwargs, 1, "split_data")
        types = {tr.type_code for tr in split_data.test}
        c["evaluation.run_report.rows"] += len(result)
        c["evaluation.run_report.rows_skipped"] += len(types) - len(result)


EXTRAS = {
    "atmosphere.isa_state": _isa_state,
    "dynamics.integrate_climb": _integrate_climb,
    "learning.profile_from_flight": _profile_from_flight,
    "generative.sample_thrust": _sample_thrust,
    "pipeline.simulate_fleet": _simulate_fleet,
    "pipeline.ingest": _ingest,
    "pipeline.filter_climbs": _filter_climbs,
    "pipeline.write_trajectories_csv": _write_trajectories_csv,
    "evaluation.run_report": _run_report,
}


class Tracer:
    """In-memory span recorder; one instance per traced run.  A root span
    (a CLI stage or a query) and everything under it share a run id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0

    def _open(self, name: str) -> list:
        if self.stack:
            parent = self.stack[-1]
        else:
            parent = -1
            self.run_id += 1   # a root span starts a new request
        span = [name, perf_counter(), 0.0, parent, self.run_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI stage."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, func):
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                if extra is not None:
                    extra(self.counters, args, kwargs, None, exc)
                raise
            self._close(span)
            if extra is not None:
                extra(self.counters, args, kwargs, result, None)
            return result

        return functools.wraps(func)(wrapper)

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def install(tracer: Tracer):
    """Wrap every function in ``WRAPPED`` wherever climbgen binds it.

    Returns a function that restores the original bindings.  Raises
    ``LookupError`` when a listed function or required binding is missing.
    """
    import climbgen

    modules = [climbgen] + [importlib.import_module(f"climbgen.{name}")
                            for name in LAYERS]
    patched: list[tuple[object, str, object]] = []
    try:
        for layer, func_name in WRAPPED:
            home = importlib.import_module(f"climbgen.{layer}")
            original = getattr(home, func_name, None)
            if not callable(original):
                raise LookupError(f"climbgen.{layer}.{func_name} is not a function; "
                                  "update bench/spans.py WRAPPED")
            wrapper = tracer.wrap(f"{layer}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        for module_name, attr in REQUIRED_BINDINGS:
            module = importlib.import_module(f"climbgen.{module_name}")
            if not hasattr(getattr(module, attr, None), "__wrapped__"):
                raise LookupError(f"climbgen.{module_name} no longer binds {attr}; "
                                  "update bench/spans.py REQUIRED_BINDINGS")
    except BaseException:
        _restore(patched)
        raise
    return lambda: _restore(patched)


def _restore(patched) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
    patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def check_accounting(spans: list[list], rel_tol: float = 1e-6) -> list[str]:
    """Problems with the span tree: children outside their parent, or a
    root whose subtree's self times do not sum to the root's wall time."""
    problems = []
    selfs = self_times(spans)
    root_of = [0] * len(spans)
    subtotal: dict[int, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"{name}: span ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"{name}: span lies outside its parent {p[0]}")
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
        subtotal[root_of[i]] += selfs[i]
    for root, total in subtotal.items():
        wall = spans[root][2] - spans[root][1]
        if abs(total - wall) > rel_tol * max(wall, 1e-9):
            problems.append(f"{spans[root][0]}: self times sum to {total:.6f} s, "
                            f"wall time is {wall:.6f} s")
    return problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls / self_s / total_s per wrapped function, the extra counters,
    and the derived ratios; functions never called report zeros."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += selfs[i]
    m: dict[str, float] = {}
    for layer, func_name in WRAPPED:
        key = f"{layer}.{func_name}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.self_s"] = own[key]
        m[f"{key}.total_s"] = total[key]
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"]

    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    nodes = c["atmosphere.isa_state.nodes"]
    m["atmosphere.isa_state.nodes"] = nodes
    m["atmosphere.ns_per_node"] = 1e9 * ratio(
        own["atmosphere.isa_state"] + own["atmosphere.schedule_speed"], nodes)
    n_int = calls["dynamics.integrate_climb"]
    infeasible = c["dynamics.integrate_climb.infeasible"]
    m["dynamics.integrate_climb.nodes"] = c["dynamics.integrate_climb.nodes"]
    m["dynamics.integrate_climb.infeasible"] = infeasible
    m["dynamics.integrate_climb.feasible_ratio"] = ratio(n_int - infeasible, n_int)
    m["dynamics.integrate_climb.us_per_node"] = 1e6 * ratio(
        total["dynamics.integrate_climb"], c["dynamics.integrate_climb.nodes"])
    n_pff = calls["learning.profile_from_flight"]
    rejected = c["learning.profile_from_flight.rejected"]
    m["learning.profile_from_flight.rejected"] = rejected
    m["learning.profile_from_flight.accepted_ratio"] = ratio(n_pff - rejected, n_pff)
    m["generative.sample_thrust.profiles"] = c["generative.sample_thrust.profiles"]
    m["pipeline.simulate_fleet.bytes_written"] = c["pipeline.simulate_fleet.bytes_written"]
    m["pipeline.ingest.rows"] = c["pipeline.ingest.rows"]
    m["pipeline.ingest.rows_per_s"] = ratio(c["pipeline.ingest.rows"], total["pipeline.ingest"])
    m["pipeline.filter_climbs.kept_ratio"] = ratio(c["pipeline.filter_climbs.kept"],
                                                   c["pipeline.filter_climbs.seen"])
    m["pipeline.write_trajectories_csv.bytes_written"] = c[
        "pipeline.write_trajectories_csv.bytes_written"]
    m["evaluation.run_report.rows"] = c["evaluation.run_report.rows"]
    m["evaluation.run_report.rows_skipped"] = c["evaluation.run_report.rows_skipped"]
    return m
