"""tools/same_outputs.py, the output comparison of two source trees,
tools/bench_configs.py, which writes the benchmark configs it compares on,
and the summary of tools/bench_pairs.py, the benchmark comparison of two trees."""

import importlib.util
import json
from pathlib import Path

from qaction.cli import load_config

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _tool("same_outputs")
bench_configs = _tool("bench_configs")
bench_pairs = _tool("bench_pairs")

MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": 1.0}}


def _config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_a_tree_matches_itself_and_a_model_only_config_cannot_run(tmp_path, capsys):
    scales = _config(tmp_path, "scales.json", {"model": MODEL, "scales": {}})
    model_only = _config(tmp_path, "model_only.json", {"model": MODEL})
    assert same_outputs.command_of(scales) == "scales"
    assert same_outputs.command_of(model_only) is None

    assert same_outputs.main([str(ROOT), str(ROOT), str(scales)]) == 0
    assert "scales.json: same (exit 0)" in capsys.readouterr().out

    # verify and scales accept the model alone, but nothing names the command
    assert same_outputs.main([str(ROOT), str(ROOT), str(scales), str(model_only)]) == 1
    out = capsys.readouterr().out
    assert "model_only.json: CANNOT RUN: no section key names the command" in out
    assert "1 of 2 configs give the same outputs" in out


def test_differences_names_every_stream_and_file():
    a = {"exit code": 0, "stdout": b"x", "stderr": b"", "files": {"a.csv": b"1", "b.json": b"2"}}
    b = {"exit code": 2, "stdout": b"x", "stderr": b"e", "files": {"a.csv": b"3", "c.csv": b"4"}}
    assert same_outputs.differences(a, a) == []
    assert same_outputs.differences(a, b) == [
        "exit code", "stderr", "a.csv", "b.json (in one tree only)", "c.csv (in one tree only)"
    ]


def test_column_differences_gives_the_largest_relative_difference_per_numeric_column():
    a = b"# run=a\nbeta,mass,tag,rank\n1,2.0,x,3\n2,4.0,y,3\n"
    b = b"# run=b\nbeta,mass,tag,rank\n1,2.5,z,3\n2,4.000004,y,3\n"
    assert same_outputs.column_differences(a, a) == {"beta": 0.0, "mass": 0.0, "rank": 0.0}
    got = same_outputs.column_differences(a, b)
    assert list(got) == ["beta", "mass", "rank"]  # "tag" does not parse as a float
    assert got["beta"] == got["rank"] == 0.0
    assert got["mass"] == 0.5 / 2.5  # the larger of 0.2 and 1e-6
    assert same_outputs.column_differences(a, b"beta,mass,tag,rank\n1,2.0,x,3\n") is None
    assert same_outputs.column_differences(a, a.replace(b"rank", b"deficiency")) is None
    nan = b"h\nnan\n0\ninf\n"
    assert same_outputs.column_differences(nan, nan) == {"h": 0.0}
    assert same_outputs.column_differences(nan, b"h\n1\n0\ninf\n") == {"h": float("inf")}
    assert same_outputs.column_differences(b"h\n0\n", b"h\n-1e-300\n") == {"h": 1.0}


def test_json_differences_gives_the_largest_relative_difference_per_numeric_key_path():
    a = json.dumps({
        "seed": 11, "mode": "min_norm", "converged": True,
        "final": {"mass": 2.0, "coefficients": {"2": 0.5, "-2": 1.0}},
        "states": [{"beta": 1.0}, {"beta": 2.0}],
        "gone": 3,
    }).encode()
    b = json.dumps({
        "seed": 11, "mode": "pinned", "converged": False,
        "final": {"mass": 2.5, "coefficients": {"2": 0.5, "-2": 1.000001}},
        "states": [{"beta": 1.0}, {"beta": 2.2}],
        "line_search_halvings": 4,
    }).encode()
    assert same_outputs.json_differences(a, a) == {
        "seed": 0.0, "final.mass": 0.0, "final.coefficients.2": 0.0,
        "final.coefficients.-2": 0.0, "states[].beta": 0.0, "gone": 0.0,
    }
    got = same_outputs.json_differences(a, b)
    # strings and bools are not numeric; list items share one path
    assert list(got) == ["seed", "final.mass", "final.coefficients.2", "final.coefficients.-2",
                         "states[].beta", "gone", "line_search_halvings"]
    assert got["seed"] == got["final.coefficients.2"] == 0.0
    assert got["final.mass"] == 0.5 / 2.5
    assert got["final.coefficients.-2"] == same_outputs.relative_difference(1.0, 1.000001)
    assert got["states[].beta"] == same_outputs.relative_difference(2.0, 2.2)
    assert got["gone"] is None and got["line_search_halvings"] is None  # in one only
    assert same_outputs.json_differences(a, json.dumps({"states": [1]}).encode())["states"] is None
    assert same_outputs.json_differences(a, b"a,b\n1,2\n") is None


def test_report_prints_the_largest_absolute_difference_beside_the_relative_one():
    a = b"# meta\nx,rel_diff,tag\n1.0,2e-5,p\n3.0,1e-9,q\n"
    b = b"# meta\nx,rel_diff,tag\n1.0,2.5e-5,p\n3.5,1e-9,q\n"
    absolute = same_outputs.column_differences(a, b, same_outputs.absolute_difference)
    assert absolute == {"x": 0.5, "rel_diff": 2.5e-5 - 2e-5}
    # relative 0.2, absolute 5e-6: a difference of nearly equal numbers
    assert same_outputs.report("propagator.csv", a, b) == (
        "  propagator.csv: largest relative difference: "
        "x 0.14 (abs 0.5), rel_diff 0.2 (abs 5e-06)"
    )
    doc_a = json.dumps({"final": {"mass": 2.0}, "gone": 1}).encode()
    doc_b = json.dumps({"final": {"mass": 2.5}}).encode()
    assert same_outputs.json_differences(doc_a, doc_b, same_outputs.absolute_difference) == {
        "final.mass": 0.5, "gone": None,
    }
    assert same_outputs.report("summary.json", doc_a, doc_b) == (
        "  summary.json: largest relative difference: "
        "final.mass 0.2 (abs 0.5), gone in one tree only"
    )
    assert same_outputs.report("summary.json", doc_a, b"[") == (
        "  summary.json: largest relative difference: not JSON"
    )
    assert same_outputs.report("a.csv", a, None) is None


def test_bench_configs_writes_the_ten_benchmark_configs_and_each_loads(tmp_path):
    paths = bench_configs.write_configs(11, tmp_path)
    assert len(paths) == 10 == len(set(paths))
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    for path in paths:
        command = same_outputs.command_of(path)
        assert command is not None, path.name
        load_config(path, command)


def _run(wall, rss, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}
    return {"correct": correct, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_on_synthetic_runs():
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ]
    # wall_s: the change wins 9 of 10 pairs, by more than the parent's IQR;
    # peak_rss_mb: 12% higher on every pair, past its 10% bound
    parent = [_run(1.0 + 0.01 * i, 40.0) for i in range(10)]
    change = [_run(0.8 + 0.01 * i, 44.8) for i in range(9)] + [_run(1.2, 44.8, failed=1)]
    lines = bench_pairs.summary(parent, change, metrics)
    assert lines[0] == (
        "wall_s: parent 1.045 [1.0225, 1.0675] s, change 0.845 [0.8225, 0.8675] s; "
        "change won 9/10"
    )
    assert lines[1].endswith("> parent IQR 0.045): holds")
    assert lines[2] == "  move -19.14% against bound 25%: within the bound"
    assert lines[3].startswith("peak_rss_mb: parent 40 [40, 40] MiB, change 44.8 [44.8, 44.8]")
    assert lines[3].endswith("change won 0/10")
    assert lines[4].endswith("does not hold")
    assert lines[5] == "  move +12.00% against bound 10%: WORSE than the bound"
    assert lines[6] == "correct with 0 failed: 19/20 runs"
    # 8 wins of 10 is below nine tenths, and a gap inside the parent's IQR claims nothing
    eight = change[:8] + [_run(1.1, 40.0), _run(1.2, 40.0)]
    assert bench_pairs.summary(parent, eight, metrics[:1])[0].endswith("change won 8/10")
    assert bench_pairs.summary(parent, eight, metrics[:1])[1].endswith("does not hold")
    spread = [_run(w, 40.0) for w in (1.0, 2.0, 1.0, 2.0)]
    close = [_run(w - 0.1, 40.0) for w in (1.0, 2.0, 1.0, 2.0)]
    assert bench_pairs.summary(spread, close, metrics[:1])[1].endswith("does not hold")
