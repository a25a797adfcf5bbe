"""The benchmark's span tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import qaction.cli  # noqa: F401  the tracer patches every layer it names, the CLI's too
from qaction import fit, trajectory
from qaction.model import ActionParams, PotentialSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
STANDARD = ActionParams(mass=1.0, hbar=1.0, potential=PotentialSpec({2: 0.5, -2: 1.0}))


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_are_package_functions():
    spans = _spans()
    assert spans.TRACED
    for module, name, _ in spans.TRACED:
        target = getattr(importlib.import_module(f"qaction.{module}"), name, None)
        assert callable(target), f"perfbench/spans.py traces qaction.{module}.{name}"


def test_observers_count_the_fields_of_the_results():
    # the benchmark's per-layer counts add up fields of the traced results;
    # each must arrive as the int the result holds
    tracer = _spans().Tracer()
    tracer.install()
    try:
        traj = trajectory.solve_bvp(STANDARD, 0.8, 2.5, trajectory.TimeGrid(1.0, intervals=100))
        table = fit.build_table(STANDARD, fit.BoundarySet((1.0, 2.0), (1.2, 1.8, 2.6)), 1.0)
        init = ActionParams(1.0, 1.0, PotentialSpec({0: 0.0, 2: 0.5, -2: 1.0}))
        result = fit.fit_at_time(table, [0, 2, -2], init, 100)
    finally:
        tracer.uninstall()
    assert traj.iterations > 0 and result.evaluations > 0
    for key, want in (
        ("trajectory.newton_iters", traj.iterations),
        ("fit.evaluations", result.evaluations),
        ("fit.converged", int(result.converged)),
    ):
        assert type(tracer.counts[key]) is int and tracer.counts[key] == want, key
