"""tools/same_outputs.py: the output comparison of two source trees."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

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
