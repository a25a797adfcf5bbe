import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from qaction import cli
from qaction.cli import ConfigError, _decomposition, config_hash, load_config, main
from qaction.oracle import amplitude

STANDARD_MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": 1.0}}
OSCILLATOR_MODEL = {
    "mass": 1.0,
    "hbar": 1.0,
    "coefficients": {"2": 0.5},
    "domain": "full_line",
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_console_script_installed():
    proc = subprocess.run(["qaction", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("propagator", "spectrum", "fit", "flow", "verify", "scales"):
        assert cmd in proc.stdout


def run_module(*args, timeout=None):
    """`python -m qaction *args` in a fresh interpreter that imports qaction from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "qaction", *args], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def test_module_entry_point_runs_without_install():
    proc = run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Usage: qaction")
    for cmd in ("propagator", "spectrum", "fit", "flow", "verify", "scales"):
        assert cmd in proc.stdout


def test_scales_reports_model_constants(runner, tmp_path):
    cfg = write_config(tmp_path, {"model": STANDARD_MODEL, "scales": {}})
    res = runner.invoke(main, ["scales", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    payload = json.loads((tmp_path / "scales.json").read_text())
    assert payload["omega"] == pytest.approx(1.0, abs=1e-15)
    assert payload["gamma"] == pytest.approx(1.5, abs=1e-15)
    assert payload["ground_energy"] == pytest.approx(2.5, abs=1e-15)
    assert payload["time_scale"] == pytest.approx(0.4, abs=1e-15)
    assert payload["length_scale"] == pytest.approx(2.3527109569086866, abs=1e-12)
    assert payload["asymptotic_products"]["mass_v_2"] == pytest.approx(0.5, abs=1e-15)
    assert payload["asymptotic_products"]["mass_v_-2"] == pytest.approx(2.0, abs=1e-12)
    assert payload["config_hash"] == "sha256:" + config_hash(json.loads(open(cfg).read()))


def test_in_process_commands_keep_no_output_buffer_alive(tmp_path):
    # a long-lived process that runs commands with redirected output, as the
    # benchmark worker does, must let go of every buffer it redirected to
    good = write_config(tmp_path, {"model": STANDARD_MODEL, "scales": {}}, "good.json")
    bad = write_config(tmp_path, {"model": STANDARD_MODEL, "scales": {"bogus": 1}}, "bad.json")
    refs = []
    for i in range(10):
        out, err = io.StringIO(), io.StringIO()
        argv = ["scales", "--config", bad if i % 2 else good, "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=argv, prog_name="qaction", standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == 1
        assert ("config error" in err.getvalue()) == bool(i % 2)
        assert ("wrote scales.json" in out.getvalue()) != bool(i % 2)
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_verify_passes_on_consistent_model(runner, tmp_path):
    cfg = write_config(tmp_path, {"model": STANDARD_MODEL, "verify": {}})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "7/7 checks passed" in res.output
    assert "FAIL" not in res.output


def test_verify_detects_corrupted_exponent(runner, tmp_path):
    cfg = write_config(
        tmp_path, {"model": STANDARD_MODEL, "verify": {"gamma_shift": 0.2}}
    )
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "FAIL" in res.output
    assert "numerical failure" in res.output
    # the shift breaks the inverse transformation, not the generic identities
    assert "transformation_residual" in res.output


def test_config_errors_exit_one(runner, tmp_path):
    bad_cases = [
        ("scales", {"model": STANDARD_MODEL, "scales": {}, "bogus": 1}),
        ("scales", {"scales": {}}),  # model missing
        ("fit", {"model": STANDARD_MODEL}),  # fit section required
        (
            "fit",
            {
                "model": STANDARD_MODEL,
                "fit": {
                    "ansatz": [2],
                    "initial": [1.0],
                    "final": [2.0],
                    "times": [1.0],
                    "points_per_unit": 100,
                    "intervals": 200,
                },
            },
        ),
        (
            "fit",
            {
                "model": STANDARD_MODEL,
                "fit": {
                    "ansatz": [2, -2],
                    "initial": [1.0],
                    "final": [2.0],
                    "times": [1.0],
                    "init": {"mass": 1.0, "coefficients": {"4": 0.1}},
                },
            },
        ),
        (
            "fit",
            {
                "model": STANDARD_MODEL,
                "fit": {"ansatz": [2], "initial": [1.0], "final": [2.0], "times": [-1.0]},
            },
        ),
        (
            "flow",
            {
                "model": STANDARD_MODEL,
                "flow": {
                    "initial": {"beta": 1.0, "mass": 1.0, "coefficients": {"2": 0.5}},
                    "initial_point": 1.0,
                    "final_points": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    "beta_end": 2.0,
                    "mode": "sideways",
                },
            },
        ),
        ("scales", {"model": STANDARD_MODEL, "scales": {"probability": 1.5}}),
        (
            "propagator",  # quartic has no closed form to compare against
            {
                "model": {"mass": 1.0, "coefficients": {"4": 1.0}, "domain": "full_line"},
                "propagator": {"initial": [1.0], "final": [2.0], "times": [1.0]},
            },
        ),
    ]
    for cmd, doc in bad_cases:
        cfg = write_config(tmp_path, doc)
        res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 1, (doc, res.output)
        assert "config error" in res.output
    # unreadable and unparsable configs
    res = runner.invoke(main, ["scales", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert res.exit_code == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    res = runner.invoke(main, ["scales", "--config", str(garbled), "--out", str(tmp_path)])
    assert res.exit_code == 1
    cfg = write_config(tmp_path, {"model": STANDARD_MODEL, "scales": {}})
    res = runner.invoke(main, ["scales", "--config", cfg, "--out", str(tmp_path), "--threads", "0"])
    assert res.exit_code == 1


def _flow_doc(**changes):
    initial = {"beta": 1.0, "mass": 1.0, "coefficients": {"0": 0.1, "2": 0.5, "-2": 1.0}}
    initial.update(changes.pop("initial", {}))
    flow = {
        "initial": initial,
        "initial_point": 1.5,
        "final_points": {"start": 0.5, "stop": 3.0, "count": 8},
        "beta_end": 1.01,
        "intervals": 100,
    }
    flow.update(changes)
    return {"model": STANDARD_MODEL, "flow": flow}


def _fit_doc(**changes):
    fit = {"ansatz": [0, 2, -2], "initial": [1.0], "final": [1.5, 2.0], "times": [1.0]}
    fit.update(changes)
    return {"model": STANDARD_MODEL, "fit": fit}


@pytest.mark.parametrize(
    "cmd, doc, message",
    [
        ("flow", _flow_doc(final_points=[1.0, 2.0, 3.0, 4.0]), "final points"),
        ("flow", _flow_doc(final_points=[-0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
         "final_points"),
        ("flow", _flow_doc(final_points=[0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
         "final_points"),
        # its lower neighbour would sit at 5e-4 - 1e-3 < 0
        ("flow", _flow_doc(final_points=[5e-4, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
         "neighbour offset"),
        ("flow", _flow_doc(initial_point=0.0), "initial_point"),
        ("flow", _flow_doc(initial_point=-1.0), "initial_point"),
        ("flow", _flow_doc(initial={"mass": -1.0}), "mass"),
        ("flow", _flow_doc(initial={"coefficients": {"2": 0.5, "3": 0.1}}), "exponent 3"),
        ("fit", _fit_doc(ansatz=[0, 2, 3]), "exponent 3"),
        ("fit", _fit_doc(final={"start": -0.5, "stop": 2.0, "count": 4}), "fit.final"),
        ("fit", _fit_doc(init={"mass": -1.0, "coefficients": {"2": 0.5}}), "mass"),
        ("flow", _flow_doc(compare_fit={"initial": [-0.5, 0.8], "final": [1.0, 2.0]}),
         "flow.compare_fit.initial"),
        ("fit", _fit_doc(points_per_unit=0), "fit.points_per_unit"),
        ("fit", _fit_doc(points_per_unit=-5), "fit.points_per_unit"),
        # an oracle table's points must lie on the oracle grid
        ("fit", _fit_doc(source="oracle", final=[1.5, 13.0]),
         "fit.final point 13.0 lies outside the oracle grid [0.002, "),
        ("fit", _fit_doc(source="oracle", extent=8.0, initial=[9.0]),
         "fit.initial point 9.0 lies outside the oracle grid [0.002, "),
        ("flow", _flow_doc(compare_fit={"initial": [1.0], "final": [1.0, 20.0], "source": "oracle"}),
         "flow.compare_fit.final point 20.0 lies outside the oracle grid"),
        # the evaluation budget is the constant fit.MAX_EVALUATIONS, not a key
        ("fit", _fit_doc(max_evaluations=300), "unknown keys in fit: ['max_evaluations']"),
        ("flow", _flow_doc(compare_fit={"initial": [1.0], "final": [1.0, 2.0], "max_evaluations": 40}),
         "unknown keys in flow.compare_fit: ['max_evaluations']"),
        # repeated boundary points: the fit exited 2, and the flow exited 2
        # after every step, when its comparison fits built the boundary set
        ("fit", _fit_doc(final=[1.5, 1.5]), "fit: final boundary points must be distinct"),
        ("fit", _fit_doc(initial={"start": 1, "stop": 1, "count": 3}),
         "fit: initial boundary points must be distinct"),
        ("flow", _flow_doc(compare_fit={"initial": [1.0, 1.0], "final": [1.5, 2.0]}),
         "flow.compare_fit: initial boundary points must be distinct"),
        ("flow", _flow_doc(compare_fit={"initial": [1.0],
                                        "final": {"start": 2, "stop": 2, "count": 3}}),
         "flow.compare_fit: final boundary points must be distinct"),
        # negative exponents on the full line exited 2, even at a zero coefficient
        ("fit", dict(_fit_doc(ansatz=[-2, 0, 2], initial=[-0.5, 0.8], final=[0.2, 1.0]),
                     model=OSCILLATOR_MODEL),
         "fit.ansatz: negative-exponent coefficients require the half-line domain"),
        ("flow", dict(_flow_doc(initial={"coefficients": {"-2": 0.0, "0": 0.0, "2": 0.5}},
                                initial_point=0.2,
                                final_points={"start": -1.0, "stop": 1.5, "count": 8}),
                      model=OSCILLATOR_MODEL),
         "flow.initial.coefficients: negative-exponent coefficients require the half-line domain"),
        # the rates have one solve, minimum norm; the pinned-v_0 one is a test reference
        ("flow", _flow_doc(mode="pin_v0"), "unknown keys in flow: ['mode']"),
    ],
    ids=[
        "flow_4_points", "flow_negative_final", "flow_zero_final", "flow_final_within_offset",
        "flow_zero_initial",
        "flow_negative_initial", "flow_negative_mass", "flow_exponent_3", "fit_exponent_3",
        "fit_negative_final", "fit_negative_mass", "flow_compare_fit_negative_initial",
        "fit_zero_points_per_unit", "fit_negative_points_per_unit",
        "oracle_fit_final_past_extent", "oracle_fit_initial_past_extent",
        "oracle_compare_fit_final_past_extent", "fit_max_evaluations",
        "compare_fit_max_evaluations", "fit_repeated_final", "fit_repeated_initial_range",
        "compare_fit_repeated_initial", "compare_fit_repeated_final_range",
        "fit_full_line_negative_ansatz", "flow_full_line_negative_coefficient",
        "flow_mode",
    ],
)
def test_bad_fit_and_flow_parameters_exit_one(runner, tmp_path, cmd, doc, message):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output
    # rejected at load: nothing ran, nothing was written
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("hbar", [1e200, 1e-200])
@pytest.mark.parametrize("cmd, section", [
    ("scales", {}),
    ("verify", {}),
    ("fit", {"ansatz": [0, 2, -2], "initial": [1.0], "final": [1.5, 2.0], "times": [1.0]}),
])
def test_hbar_without_a_normal_square_exits_one(runner, tmp_path, cmd, section, hbar):
    # hbar^2 overflowed (OverflowError) or underflowed to 0 (ZeroDivisionError): exit 2
    doc = {"model": dict(STANDARD_MODEL, hbar=hbar), cmd: section}
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert f"config error: model: hbar^2 must be a normal float, got hbar {hbar}" in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# Half-line points where x^-2 of the model or of the fitted action overflows.
# The fit ran its whole evaluation budget, wrote a row of inf and nan and
# exited 2; the flow printed LAPACK's DLASCL complaint and exited 2.
@pytest.mark.parametrize(
    "cmd, doc, message",
    [
        ("fit", _fit_doc(initial=[1e-160]),
         "fit.initial: x^-2 overflows at 1e-160"),
        ("flow", _flow_doc(initial_point=1e-160), "flow.initial_point: x^-2 overflows at 1e-160"),
        # only the ansatz has the negative power
        ("fit", dict(_fit_doc(final=[1.0, 1e-160]), model=dict(STANDARD_MODEL, coefficients={"2": 0.5})),
         "fit.final: x^-2 overflows at 1e-160"),
        ("flow", _flow_doc(compare_fit={"initial": [1e-170], "final": [1.0, 2.0]}),
         "flow.compare_fit.initial: x^-2 overflows at 1e-170"),
    ],
    ids=["fit_initial", "flow_initial_point", "fit_final_ansatz_only", "compare_fit_initial"],
)
def test_points_where_a_negative_power_overflows_exit_one(tmp_path, cmd, doc, message):
    out = tmp_path / "out"
    proc = run_module(cmd, "--config", write_config(tmp_path, doc), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"config error: {message}, too close to 0" in proc.stderr
    assert "DLASCL" not in proc.stdout + proc.stderr
    assert not out.exists()


# A dbeta that cannot advance beta looped forever; each case runs in its own
# process with a timeout, so that a loop fails the test instead of hanging it.
@pytest.mark.parametrize(
    "dbeta, message",
    [
        (0, "flow.dbeta must be positive"),
        (-0.01, "flow.dbeta must be positive"),
        (1e-300, "flow.dbeta 1e-300 leaves initial.beta unchanged"),
    ],
    ids=["zero", "negative", "below_the_spacing_of_floats"],
)
def test_dbeta_that_cannot_advance_beta_exits_one(tmp_path, dbeta, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _flow_doc(dbeta=dbeta))
    proc = run_module("flow", "--config", cfg, "--out", str(out), timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert f"config error: {message}" in proc.stderr
    assert not out.exists()


def test_flow_step_that_leaves_beta_unchanged_exits_two(tmp_path):
    # 1.9999999999999998 + 1.5e-16 rounds to 2, and 2 + 1.5e-16 rounds to 2:
    # the first step passes, the second would not move beta
    doc = _flow_doc(initial={"beta": 1.9999999999999998}, dbeta=1.5e-16, beta_end=2.1)
    out = tmp_path / "out"
    proc = run_module("flow", "--config", write_config(tmp_path, doc), "--out", str(out),
                      timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "numerical failure: flow step 1.5e-16 leaves beta=2.0000 unchanged" in (
        proc.stderr
    )
    assert list(out.iterdir()) == []


def test_comparison_fits_use_the_flow_mesh(runner, tmp_path, monkeypatch):
    meshes = []
    real_sweep = cli.sweep

    def recorded(*args, **kwargs):
        results = real_sweep(*args, **kwargs)
        meshes.extend(r.grid.intervals for r in results)
        return results

    monkeypatch.setattr(cli, "sweep", recorded)
    doc = _flow_doc(intervals=250, compare_fit={"initial": [1.0], "final": [1.5, 2.0, 2.5]})
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["flow", "--config", cfg, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "out" / "flow_summary.json").read_text())
    assert meshes == [250] * summary["comparison"]["points"]


def test_valid_flow_and_fit_parameters_load(tmp_path):
    # the documents the bad cases above start from are themselves valid
    flow_cfg = load_config(write_config(tmp_path, _flow_doc(), "flow.json"), "flow")
    assert flow_cfg["section"]["state"].final_points[0] == 0.5
    fit_cfg = load_config(
        write_config(tmp_path, _fit_doc(init={"mass": 1.1, "coefficients": {"2": 0.4}})),
        "fit",
    )
    init = fit_cfg["section"]["init"]
    assert init.mass == 1.1 and init.potential.coefficients == {-2: 0.0, 0: 0.0, 2: 0.4}


def test_fit_and_flow_without_a_mesh_get_the_one_default(tmp_path):
    flow_doc = _flow_doc()
    del flow_doc["flow"]["intervals"]
    flow_cfg = load_config(write_config(tmp_path, flow_doc, "flow.json"), "flow")
    fit_cfg = load_config(write_config(tmp_path, _fit_doc(), "fit.json"), "fit")
    assert flow_cfg["section"]["intervals"] == cli.DEFAULT_INTERVALS == 500
    assert fit_cfg["section"]["grid"] == {"intervals": cli.DEFAULT_INTERVALS}


def _propagator_doc(**changes):
    propagator = {"initial": [1.0], "final": [1.5], "times": [0.5], "spacing": 1e-2, "levels": 40}
    propagator.update(changes)
    return {"model": STANDARD_MODEL, "propagator": propagator}


# Endpoints the oracle cannot evaluate: rejected at load, before the
# eigensolve. Each case exited 2 after it.
@pytest.mark.parametrize(
    "doc, message",
    [
        (_propagator_doc(initial=[-1.0]), "propagator.initial must be positive"),
        (_propagator_doc(final=[0.0]), "propagator.final must be positive"),
        (_propagator_doc(final=[1.5, 30.0]),
         "propagator.final point 30.0 lies outside the oracle grid [0.01, 12.0]"),
        # positive, but below the half-line grid's first node at one spacing
        (_propagator_doc(initial=[0.005]),
         "propagator.initial point 0.005 lies outside the oracle grid"),
    ],
    ids=["negative_initial", "zero_final", "final_past_extent", "initial_below_grid"],
)
def test_bad_propagator_endpoints_exit_one(runner, tmp_path, doc, message):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _oracle_fit_doc(**changes):
    return _fit_doc(source="oracle", spacing=0.05, extent=12.0, **changes)


def _spectrum_doc(coefficients):
    model = dict(STANDARD_MODEL, coefficients=coefficients)
    return {"model": model, "spectrum": {"spacing": 1e-2, "levels": 5}}


def _tiny_mass(doc):
    return dict(doc, model=dict(doc["model"], mass=1e-310))


# Oracle grids the eigensolves cannot use, on extent 12: rejected at load.
# Each case exited 2 after it. Half-line grids at spacing 0.05, 0.1 and 0.2
# have 240, 120 and 60 nodes; the second of each pair is the Richardson partner.
@pytest.mark.parametrize(
    "cmd, doc, message",
    [
        ("propagator", _propagator_doc(spacing=0.2, extent=12.0),
         "oracle grid at spacing 0.2: grid needs at least 100 points"),
        ("propagator", _propagator_doc(spacing=0.1, extent=12.0),
         "oracle grid at spacing 0.2: grid needs at least 100 points"),
        ("propagator", _propagator_doc(spacing=0.05, extent=12.0, levels=239),
         "levels 239 exceeds 238, the most the 240-node oracle grid at spacing 0.05 holds"),
        ("spectrum", {"model": STANDARD_MODEL,
                      "spectrum": {"spacing": 0.05, "extent": 12.0, "levels": 160}},
         "levels 160 exceeds 118, the most the 120-node oracle grid at spacing 0.1 holds"),
        ("spectrum", {"model": STANDARD_MODEL,
                      "spectrum": {"spacing": 0.1, "extent": 12.0, "levels": 50}},
         "oracle grid at spacing 0.2: grid needs at least 100 points"),
        ("spectrum", {"model": STANDARD_MODEL, "spectrum": {
            "spacing": 0.1, "extent": 12.0, "levels": 119, "refine": False}},
         "levels 119 exceeds 118, the most the 120-node oracle grid at spacing 0.1 holds"),
        ("fit", _oracle_fit_doc(levels=160),
         "levels 160 exceeds 118, the most the 120-node oracle grid at spacing 0.1 holds"),
        ("flow", _flow_doc(compare_fit={"initial": [1.0], "final": [1.5, 2.0], "source": "oracle",
                                        "spacing": 0.2, "extent": 12.0}),
         "oracle grid at spacing 0.2: grid needs at least 100 points"),
        # hbar^2 / (2 m h^2) overflows to inf: stebz failed on it (exit 2)
        ("spectrum", _tiny_mass(_spectrum_doc({"2": 0.5, "-2": 1.0})),
         "oracle grid at spacing 0.01: kinetic coupling hbar^2 / (2 m h^2) overflows "
         "at mass 1e-310, hbar 1 and spacing 0.01"),
        ("propagator", _tiny_mass(_propagator_doc()),
         "oracle grid at spacing 0.01: kinetic coupling"),
        ("fit", _tiny_mass(_oracle_fit_doc()), "oracle grid at spacing 0.05: kinetic coupling"),
        ("flow", _tiny_mass(_flow_doc(compare_fit={"initial": [1.0], "final": [1.5, 2.0],
                                                   "source": "oracle"})),
         "oracle grid at spacing 0.002: kinetic coupling"),
    ],
    ids=["propagator_fine_too_coarse", "propagator_partner_too_coarse",
         "propagator_levels_past_fine", "spectrum_levels_past_partner",
         "spectrum_partner_too_coarse", "spectrum_levels_past_fine_without_refine",
         "oracle_fit_levels_past_partner", "compare_fit_fine_too_coarse",
         "spectrum_coupling_overflows", "propagator_coupling_overflows",
         "oracle_fit_coupling_overflows", "compare_fit_coupling_overflows"],
)
def test_unusable_oracle_grids_exit_one(runner, tmp_path, cmd, doc, message):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# 1e308 overflows the node count at load; 1e14 gives 5e16 nodes at the
# default spacing 2e-3, whose 355 PiB exceed even a 57-bit address space, so
# the first array of the eigensolve fails to allocate without touching memory
@pytest.mark.parametrize(
    "extent, code, message",
    [
        (1e308, 1, "config error: oracle grid at spacing 0.002: node count of "
                   "[0.002, 1e+308] overflows"),
        (1e14, 2, "numerical failure: MemoryError: Unable to allocate"),
    ],
    ids=["overflow_at_load", "out_of_memory_at_run"],
)
def test_oversized_oracle_grids_exit_without_traceback(tmp_path, extent, code, message):
    doc = {"model": STANDARD_MODEL,
           "propagator": {"initial": [1.0], "final": [2.0], "times": [1.0], "extent": extent}}
    cfg = write_config(tmp_path, doc)
    proc = run_module("propagator", "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_memory_error_while_loading_exits_one(runner, tmp_path, monkeypatch):
    def exhausted(path, command):
        raise MemoryError("Unable to allocate 3.55 PiB")

    monkeypatch.setattr(cli, "load_config", exhausted)
    cfg = write_config(tmp_path, {"model": STANDARD_MODEL, "scales": {}})
    res = runner.invoke(main, ["scales", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error: MemoryError: Unable to allocate 3.55 PiB" in res.output


def test_propagator_partner_needs_room_only_for_the_levels_kept(runner, tmp_path):
    # 160 levels fit on the fine grid but not on its 120-node partner; the
    # smallest time keeps 20 of them, and the partner solves only those
    cfg = write_config(tmp_path, _propagator_doc(spacing=0.05, extent=12.0, levels=160, times=[1.0]))
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert ", 20 of 160 levels)" in res.output


def test_oracle_grids_are_not_checked_for_analytic_fits(tmp_path):
    cfg = load_config(write_config(tmp_path, _fit_doc(spacing=0.2, extent=12.0)), "fit")
    assert cfg["section"]["source"] == "analytic"
    refined = load_config(write_config(tmp_path, _oracle_fit_doc(levels=118)), "fit")
    assert refined["section"]["levels"] == 118


def test_analytic_fit_endpoints_need_no_oracle_grid(tmp_path):
    # the oracle keys of an analytic-source table describe no grid it uses
    cfg = load_config(write_config(tmp_path, _fit_doc(final=[1.5, 13.0])), "fit")
    assert cfg["section"]["bounds"].final == (1.5, 13.0)


def test_scales_with_overflowing_results_is_numerical_failure(runner, tmp_path):
    # omega = sqrt(2 v_2 / m) overflows: nothing may write Infinity into JSON
    model = dict(STANDARD_MODEL, coefficients={"2": 1e308, "-2": 1.0})
    cfg = write_config(tmp_path, {"model": model, "scales": {}})
    res = runner.invoke(main, ["scales", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "numerical failure: scales.json not written" in res.output
    assert not (tmp_path / "scales.json").exists()


# JSON's NaN and Infinity parse as floats; every case here exited 2 after the
# numbers got past validation.
@pytest.mark.parametrize(
    "cmd, doc, message",
    [
        ("fit", _fit_doc(times=[math.nan]), "fit.times[0]"),
        ("fit", _fit_doc(times=[math.inf]), "fit.times[0]"),
        ("fit", _fit_doc(final=[math.nan, 2.0]), "fit.final[0]"),
        ("fit", _fit_doc(final=[1.5, math.inf]), "fit.final[1]"),
        ("propagator", _propagator_doc(times=[math.nan]), "propagator.times[0]"),
        ("propagator", _propagator_doc(final=[math.inf]), "propagator.final[0]"),
        ("propagator", _propagator_doc(initial=[-math.inf]), "propagator.initial[0]"),
        ("verify", {"model": STANDARD_MODEL, "verify": {"gamma_shift": math.nan}},
         "verify.gamma_shift"),
        ("spectrum", _spectrum_doc({"2": 0.5, "-2": math.inf}), "model.coefficients[-2]"),
        ("spectrum", _spectrum_doc({"2": -math.inf}), "model.coefficients[2]"),
    ],
    ids=[
        "fit_times_nan", "fit_times_infinity", "fit_final_nan", "fit_final_infinity",
        "propagator_times_nan", "propagator_final_infinity",
        "propagator_initial_minus_infinity", "verify_gamma_shift_nan",
        "model_v_minus_2_infinity", "model_v_2_minus_infinity",
    ],
)
def test_non_finite_numbers_exit_one(runner, tmp_path, cmd, doc, message):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and f"{message} must be finite" in res.output


@pytest.mark.parametrize(
    "verify, message",
    [
        ({"spacing": 0.0}, "spacing"),
        ({"spacing": -0.01}, "spacing"),
        ({"spacing": 10.0}, "spacing"),
        ({"composition_time": -0.5}, "composition_time"),
        ({"composition_time": 0.0}, "composition_time"),
        ({"boundary": -1.0}, "boundary"),
        ({"boundary": 0.0}, "boundary"),
        ({"boundary": 20.0, "extent": 10.0}, "boundary"),
        # np.arange raised "Maximum allowed size exceeded" at run time: exit 2
        ({"spacing": 1e-300}, "verify grid at spacing 1e-300: node count 1e+301 of"),
    ],
    ids=[
        "zero_spacing", "negative_spacing", "spacing_equals_extent", "negative_time",
        "zero_time", "negative_boundary", "zero_boundary", "boundary_beyond_extent",
        "grid_beyond_one_array",
    ],
)
def test_bad_verify_parameters_exit_one(runner, tmp_path, verify, message):
    cfg = write_config(tmp_path, {"model": STANDARD_MODEL, "verify": verify})
    res = runner.invoke(main, ["verify", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output


def test_propagator_outputs_are_deterministic(runner, tmp_path):
    doc = {
        "model": STANDARD_MODEL,
        "propagator": {
            "initial": [0.5, 1.0],
            "final": [1.5],
            "times": [0.5, 1.0],
            "spacing": 5e-3,
            "levels": 120,
        },
    }
    cfg = write_config(tmp_path, doc)
    outputs = []
    for sub, threads in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / sub
        res = runner.invoke(
            main,
            ["propagator", "--config", cfg, "--out", str(out), "--threads", str(threads)],
        )
        assert res.exit_code == 0, res.output
        outputs.append((out / "propagator.csv").read_bytes())
    assert outputs[0] == outputs[1]  # re-run
    assert outputs[0] == outputs[2]  # thread count changes scheduling only
    text = outputs[0].decode()
    lines = text.strip().split("\n")
    assert lines[0] == f"# config_hash=sha256:{config_hash(doc)} seed=0"
    assert lines[1].startswith("initial,final,time,")
    assert len(lines) == 2 + 4
    for line in lines[2:]:
        assert float(line.split(",")[-1]) < 1e-4  # closed form vs oracle


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_checked_in_config_loads(path):
    doc = json.loads(path.read_text())
    (command,) = set(doc) - {"model"}
    assert load_config(path, command)["hash"] == config_hash(doc)


# Replacements for one node of a checked-in config. None of them allocates
# much at load: there is no integer between 1e7 and 1e18 among them.
FUZZ_VALUES = ("x", None, True, [], {}, math.nan, math.inf, -math.inf, 1e308, -1e308,
               5e-324, -5e-324, 2.2e-308, 1e-160, 0, -1, 0.5)
DROP = object()


def _node_paths(node, path=()):
    """Paths to every node below the root, leaves and containers alike."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def test_mutated_checked_in_configs_load_or_raise_config_error(tmp_path):
    rng = random.Random(16)
    for path in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(path.read_text())
        (command,) = set(doc) - {"model"}
        cases = [(p, v) for p in _node_paths(doc) for v in FUZZ_VALUES + (DROP,)]
        for node, value in rng.sample(cases, 20):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in node[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[node[-1]]
            else:
                parent[node[-1]] = value
            cfg = write_config(tmp_path, mutated)
            try:
                load_config(cfg, command)
            except ConfigError:
                pass
            except Exception as exc:  # name the mutation that escaped validation
                pytest.fail(f"{path.name}: {node} -> {value!r} raised {exc!r}")


def test_readme_fit_example_loads(tmp_path):
    readme = (CONFIGS.parent / "README.md").read_text()
    after = readme.split("Minimal fit example:", 1)[1]
    example = after.split("```json\n", 1)[1].split("```", 1)[0]
    sec = load_config(write_config(tmp_path, json.loads(example)), "fit")["section"]
    assert sec["source"] == "analytic" and sec["grid"] == {"intervals": 500}


@pytest.mark.parametrize(
    "name, kept", [("propagator_cross_check", 45), ("propagator_image_formula", 38)]
)
def test_propagator_solves_levels_visible_at_smallest_time(runner, tmp_path, name, kept):
    cfg = str(CONFIGS / f"{name}.json")
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert f", {kept} of 160 levels)" in res.output
    loaded = load_config(cfg, "propagator")
    sec = loaded["section"]
    # all 160 levels, as solved before the smallest time chose the count
    full = _decomposition(loaded["model"], sec["grids"], 160)
    lines = (tmp_path / "propagator.csv").read_text().strip().split("\n")
    assert len(lines) == 2 + len(sec["times"]) * len(sec["initial"]) * len(sec["final"])
    columns = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(columns, map(float, line.split(","))))
        reference = amplitude(full, row["initial"], row["final"], row["time"])
        assert row["oracle"] == pytest.approx(reference, rel=1e-8, abs=0.0)


def test_propagator_too_small_level_cap_is_numerical_failure(runner, tmp_path):
    doc = {
        "model": STANDARD_MODEL,
        "propagator": {"initial": [1.0], "final": [2.0], "times": [0.4], "levels": 20},
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "need E_last - E_0 >= 69.1, have 38.0" in res.output


def test_propagator_underflowing_amplitude_is_numerical_failure(runner, tmp_path):
    # exp(-E_0 T) underflows to 0 at T = 300, so rel_diff would be 0/0
    cfg = write_config(tmp_path, _propagator_doc(times=[300.0]))
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "numerical failure" in res.output


def test_propagator_steep_model_passes_truncation_check(runner, tmp_path):
    # levels 50 apart: E_0 and E_1 lie within 53 ln 2 / 0.4 = 91.9 of E_0, and
    # with E_2, the first level past it, three are solved
    doc = {
        "model": {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 312.5, "-2": 1.0}},
        "propagator": {"initial": [0.2, 0.3], "final": [0.25, 0.4], "times": [0.4, 1.0]},
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert ", 3 of 160 levels)" in res.output
    for line in (tmp_path / "propagator.csv").read_text().strip().split("\n")[2:]:
        assert float(line.split(",")[-1]) < 3e-5


@pytest.mark.parametrize("cmd", ["verify", "scales"])
@pytest.mark.parametrize(
    "coefficients, message",
    [
        ({"0": 0.3, "2": 0.5, "-2": 1.0}, "extra terms [0]"),
        ({"2": 0.5, "-2": -0.1}, "v_-2 >= 0"),
    ],
    ids=["constant_term", "negative_inverse_square"],
)
def test_scale_commands_need_the_solvable_family(runner, tmp_path, cmd, coefficients, message):
    doc = {"model": {"mass": 1.0, "hbar": 1.0, "coefficients": coefficients}, cmd: {}}
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output


@pytest.mark.parametrize(
    "cmd, section",
    [
        ("propagator", {"initial": [1.0], "final": [2.0], "times": [1.0]}),
        ("fit", {"ansatz": [0, 2, -2], "initial": [1.0], "final": [1.5, 2.0], "times": [1.0]}),
    ],
    ids=["propagator", "analytic_fit"],
)
def test_closed_form_commands_reject_negative_inverse_square(runner, tmp_path, cmd, section):
    # the kernel has no closed form for v_-2 < 0, so the config is bad input
    model = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": -0.1}}
    cfg = write_config(tmp_path, {"model": model, cmd: section})
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and "closed-form amplitude" in res.output


def test_propagator_empty_times(runner, tmp_path):
    doc = {
        "model": STANDARD_MODEL,
        "propagator": {"initial": [1.0], "final": [2.0], "times": []},
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["propagator", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "propagator.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # meta comment and header only


def test_fit_summary_and_determinism(runner, tmp_path):
    doc = {
        "model": STANDARD_MODEL,
        "fit": {
            "ansatz": [0, 2, -2],
            "initial": {"start": 1.0, "stop": 2.0, "count": 2},
            "final": {"start": 1.2, "stop": 2.6, "count": 4},
            "times": [0.6],
            "intervals": 250,
        },
    }
    cfg = write_config(tmp_path, doc)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        blobs.append((out / "fit_results.csv").read_bytes())
    assert blobs[0] == blobs[1]
    summary = json.loads((tmp_path / "a" / "fit_summary.json").read_text())
    assert summary["config_hash"] == "sha256:" + config_hash(doc)
    final = summary["final"]
    assert final["converged"] is True
    assert set(final["products"]) == {"mass_v_0", "mass_v_2", "mass_v_-2"}
    assert math.isfinite(final["constant_term"])
    assert summary["peak_relative_error"]["time"] == 0.6
    assert summary["peak_relative_error"]["value"] < 1e-2
    assert summary["divergence_onset"] is None
    lines = (tmp_path / "a" / "fit_results.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def test_fit_oracle_roundoff_is_numerical_failure(runner, tmp_path):
    doc = {
        "model": STANDARD_MODEL,
        "fit": {
            "ansatz": [2, -2],
            "initial": [0.05],
            "final": [9.0],
            "times": [0.5],
            "source": "oracle",
            "spacing": 5e-3,
            "levels": 160,
            "refine": False,
        },
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["fit", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "numerical failure" in res.output


def test_flow_smoke_with_fit_comparison(runner, tmp_path):
    doc = {
        "model": OSCILLATOR_MODEL,
        "flow": {
            "initial": {
                "beta": 1.0,
                "mass": 1.0,
                "coefficients": {"2": 0.5},
                "log_norm": -0.99969,
            },
            "initial_point": 0.2,
            "final_points": {"start": -1.0, "stop": 1.5, "count": 8},
            "beta_end": 1.04,
            "dbeta": 0.02,
            "intervals": 250,
            "compare_fit": {
                "initial": [-0.5, 0.8],
                "final": {"start": -0.2, "stop": 1.2, "count": 4},
                "stride": 2,
            },
        },
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["flow", "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    trace_lines = (tmp_path / "flow_trace.csv").read_text().strip().split("\n")
    assert trace_lines[1] == "beta,mass,v_2,log_norm,residual_norm,condition,rank,deficiency"
    assert len(trace_lines) == 2 + 3  # initial state plus two steps
    summary = json.loads((tmp_path / "flow_summary.json").read_text())
    assert summary["mode"] == "min_norm"
    assert summary["degenerate_directions_detected"] is False
    assert summary["final"]["beta"] == pytest.approx(1.04)
    assert summary["final"]["mass"] == pytest.approx(1.0, abs=1e-5)
    comparison = summary["comparison"]
    assert comparison["points"] == 2
    assert comparison["max_rel_diff"]["mass"] < 1e-3
    assert comparison["max_rel_diff"]["v_2"] < 1e-3
    vs_lines = (tmp_path / "flow_vs_fit.csv").read_text().strip().split("\n")
    assert vs_lines[1].split(",")[0] == "beta"
    assert len(vs_lines) == 2 + 2


def test_flow_summary_counts_rejected_steps(runner, tmp_path, monkeypatch):
    from qaction import flow

    doc = {
        "model": OSCILLATOR_MODEL,
        "flow": {
            "initial": {"beta": 1.0, "mass": 1.0, "coefficients": {"2": 0.5}},
            "initial_point": 0.2,
            "final_points": {"start": -1.0, "stop": 1.5, "count": 8},
            "beta_end": 1.5,
            "dbeta": 0.25,
            "intervals": 200,
        },
    }
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, ["flow", "--config", cfg, "--out", str(tmp_path / "plain")])
    assert res.exit_code == 0, res.output
    plain = json.loads((tmp_path / "plain" / "flow_summary.json").read_text())
    assert plain["rejected_steps"] == 0
    # four stages of 8 paths per step, counted the same way on every run
    assert plain["path_solves"] == 2 * 4 * 8
    assert plain["path_solves"] <= plain["newton_iterations"]
    res = runner.invoke(main, ["flow", "--config", cfg, "--out", str(tmp_path / "again")])
    assert res.exit_code == 0, res.output
    again = json.loads((tmp_path / "again" / "flow_summary.json").read_text())
    assert again == plain
    # a 0.25 step is rejected as an ill-conditioned one would be and retried
    # at 0.125: three rejections on the way to beta 1.375, then the last
    # 0.125 step
    real_step = flow.step

    def limited(state, classical, dbeta, *args, **kwargs):
        if dbeta > 0.2:
            raise flow.StepRejected("condition beyond the limit")
        return real_step(state, classical, dbeta, *args, **kwargs)

    monkeypatch.setattr(flow, "step", limited)
    res = runner.invoke(main, ["flow", "--config", cfg, "--out", str(tmp_path / "halved")])
    assert res.exit_code == 0, res.output
    halved = json.loads((tmp_path / "halved" / "flow_summary.json").read_text())
    assert halved["rejected_steps"] == 3
    assert (plain["recorded_states"], halved["recorded_states"]) == (3, 5)
    assert halved["final"]["beta"] == plain["final"]["beta"] == 1.5


@pytest.mark.parametrize("cmd", ["fit", "flow"])
def test_non_finite_summary_writes_no_file(runner, tmp_path, monkeypatch, cmd):
    # the summary is checked before any CSV is written: exit 2 leaves nothing behind
    if cmd == "fit":
        monkeypatch.setattr(cli, "constant_term", lambda result: math.nan)
        doc = _fit_doc()
    else:
        real_run = cli.flow_run

        def poisoned(*args, **kwargs):
            trace = real_run(*args, **kwargs)
            trace.states[-1] = dataclasses.replace(trace.states[-1], log_norm=math.nan)
            return trace

        monkeypatch.setattr(cli, "flow_run", poisoned)
        doc = _flow_doc(compare_fit={"initial": [1.0], "final": [2.0, 2.5]})
    out = tmp_path / "out"
    res = runner.invoke(main, [cmd, "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{cmd}_summary.json not written: a result is not finite" in res.output
    assert list(out.iterdir()) == []


def test_flow_compares_the_gauge_invariant_constant_term(runner, tmp_path):
    # v_0 alone is a gauge choice shared with ln Z~: the fit keeps its start
    # value, so raw v_0 would differ by 100%. The config leaves the flow's
    # initial ln Z~ at 0, so the flow's v_0 - ln Z~ / beta sits c / beta from
    # the fit's v_0 - hbar ln Z~ / T, with one c on every compared slice.
    config = CONFIGS / "flow_quartic_compare.json"
    res = runner.invoke(main, ["flow", "--config", str(config), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "flow_vs_fit.csv").read_text().strip().split("\n")
    columns = lines[1].split(",")
    assert columns[:7] == ["beta", "flow_mass", "fit_mass", "diff_mass", "flow_constant_term",
                           "fit_constant_term", "diff_constant_term"]
    assert not any("v_0" in c for c in columns)
    rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines[2:]]
    assert len(rows) == 5
    offsets = [r["beta"] * r["diff_constant_term"] for r in rows]
    assert max(offsets) - min(offsets) < 1e-3
    for r in rows:
        assert r["flow_constant_term"] - r["fit_constant_term"] == r["diff_constant_term"]
    summary = json.loads((tmp_path / "flow_summary.json").read_text())
    spread = summary["comparison"]["max_rel_diff"]
    assert set(spread) == {"mass", "constant_term", "v_2", "v_4"}
    assert max(spread["mass"], spread["v_2"], spread["v_4"]) < 1e-3
