import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qaction.cli import config_hash, load_config, main

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


def test_module_entry_point_runs_without_install():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "qaction", "--help"], capture_output=True, text=True, env=env
    )
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
    ],
    ids=[
        "flow_4_points", "flow_negative_final", "flow_zero_final", "flow_final_within_offset",
        "flow_zero_initial",
        "flow_negative_initial", "flow_negative_mass", "flow_exponent_3", "fit_exponent_3",
        "fit_negative_final", "fit_negative_mass",
    ],
)
def test_bad_fit_and_flow_parameters_exit_one(runner, tmp_path, cmd, doc, message):
    cfg = write_config(tmp_path, doc)
    res = runner.invoke(main, [cmd, "--config", cfg, "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert "config error" in res.output and message in res.output


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
