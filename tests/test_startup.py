"""Start-up cost: the package never loads scipy.optimize, .integrate or .special, and
of scipy.linalg only its LAPACK extension.

Each check runs in a fresh interpreter with PYTHONPATH=src, because the test
session itself has long since imported all of scipy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special")
# the scipy.linalg package import loads scipy._lib, which clones numpy with
# all of its lazy submodules
PACKAGE_IMPORT = ("scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.testing")
PACKAGE_PROBE = ("scipy.", "numpy.f2py", "numpy.testing")
FLAPACK = "scipy.linalg._flapack"
SRC = str(Path(__file__).resolve().parents[1] / "src")
MODEL = {"mass": 1.0, "hbar": 1.0, "coefficients": {"2": 0.5, "-2": 1.0}}


def fresh_python(code, *args):
    """Run code in a new interpreter that imports qaction from src; return its last line as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
import sys
def loaded(prefixes):
    return sorted(k for k in sys.modules if k.startswith(prefixes))
"""


def test_cli_import_and_runs_without_fits_load_no_deferred_scipy(tmp_path):
    # the flow is the benchmark's layer probe: 8 final points, 1 step, 100 intervals
    flow = {
        "initial": {
            "beta": 0.35,
            "mass": 0.99994533,
            "coefficients": {"-2": 1.2280919, "0": 1.1676274, "2": 0.499881},
        },
        "initial_point": 10.0,
        "final_points": {"start": 0.2, "stop": 7.0, "count": 8},
        "beta_end": 0.35375,
        "dbeta": 3.75e-3,
        "intervals": 100,
    }
    propagator = {"initial": [1.0, 2.0], "final": [1.5, 2.5], "times": [0.5, 1.0],
                  "spacing": 1e-2, "extent": 10.0, "levels": 60}
    sections = {"flow": flow, "propagator": propagator, "verify": {},
                "spectrum": {"spacing": 1e-2, "levels": 10}, "scales": {}}
    for cmd, section in sections.items():
        (tmp_path / f"{cmd}.json").write_text(json.dumps({"model": MODEL, cmd: section}))
    code = LOADED + f"""
import json
from pathlib import Path
import qaction.cli
out = {{"import": loaded({DEFERRED!r}),
        "module_level": loaded(("numpy", "scipy.linalg", "qaction."))}}
out["import:linalg"] = loaded({PACKAGE_PROBE!r})
work = Path(sys.argv[1])
for cmd in {tuple(sections)!r}:
    argv = [cmd, "--config", str(work / f"{{cmd}}.json"), "--out", str(work / cmd)]
    qaction.cli.main.main(args=argv, prog_name="qaction", standalone_mode=False)
    out[cmd] = loaded({DEFERRED!r})
    out[f"{{cmd}}:linalg"] = loaded({PACKAGE_PROBE!r})
print(json.dumps(out))
"""
    got = fresh_python(code, str(tmp_path))  # a failed command exits non-zero
    for key in ("import", *sections):
        assert got[key] == [], key
    assert (tmp_path / "flow" / "flow_trace.csv").exists()
    assert (tmp_path / "propagator" / "propagator.csv").exists()
    assert (tmp_path / "spectrum" / "spectrum.csv").exists()
    assert (tmp_path / "scales" / "scales.json").exists()
    # numpy, scipy's LAPACK extension and every layer stay imported at module
    # level; the scipy.linalg package is never imported, on load or by a command
    for name in ("numpy", FLAPACK, "qaction.model", "qaction.lapack",
                 "qaction.specfun", "qaction.analytic", "qaction.oracle",
                 "qaction.trajectory", "qaction.fit", "qaction.flow"):
        assert name in got["module_level"]
    for key in ("import", *sections):
        assert FLAPACK in got[f"{key}:linalg"], key
        assert not set(PACKAGE_IMPORT) & set(got[f"{key}:linalg"]), key


FIT_CALL = """
from qaction.fit import BoundarySet, build_table, equidistant, fit_at_time
from qaction.model import ActionParams, PotentialSpec
model = ActionParams(1.0, 1.0, PotentialSpec({2: 0.5, -2: 1.0}))
table = build_table(model, BoundarySet((1.0, 2.0), equidistant(1.2, 2.6, 4)), 1.0)
init = ActionParams(1.0, 1.0, PotentialSpec({0: 0.0, 2: 0.5, -2: 1.0}))
res = fit_at_time(table, [0, 2, -2], init, {"intervals": 100}, max_evaluations=200)
value = [res.params.mass, *res.params.potential.coefficients.values(), res.log_norm,
         res.objective, float(res.evaluations)]
"""


def test_fits_load_no_deferred_scipy(tmp_path):
    # the fit is the benchmark's layer probe; the flow's comparison fits two slices
    fit = {
        "ansatz": [0, 2, -2],
        "initial": [4.5],
        "final": {"start": 0.5, "stop": 3.0, "count": 5},
        "times": [0.7],
        "intervals": 100,
        "source": "analytic",
        "init": {"mass": 0.9983, "coefficients": {"2": 0.5044, "-2": 1.39, "0": 1.0}},
    }
    flow = {
        "initial": {"beta": 0.35, "mass": 0.99994533,
                    "coefficients": {"-2": 1.2280919, "0": 1.1676274, "2": 0.499881}},
        "initial_point": 10.0,
        "final_points": {"start": 0.2, "stop": 7.0, "count": 8},
        "beta_end": 0.35375,
        "dbeta": 3.75e-3,
        "intervals": 100,
        "compare_fit": {"initial": [4.5], "final": {"start": 0.5, "stop": 3.0, "count": 5}},
    }
    for cmd, section in (("fit", fit), ("flow", flow)):
        (tmp_path / f"{cmd}.json").write_text(json.dumps({"model": MODEL, cmd: section}))
    code = LOADED + f"""
import json
from pathlib import Path
import qaction.cli
{FIT_CALL}
out = {{"value": value, "fit_at_time": loaded({DEFERRED!r}),
        "fit_at_time:linalg": loaded({PACKAGE_PROBE!r})}}
work = Path(sys.argv[1])
for cmd in ("fit", "flow"):
    argv = [cmd, "--config", str(work / f"{{cmd}}.json"), "--out", str(work / cmd)]
    qaction.cli.main.main(args=argv, prog_name="qaction", standalone_mode=False)
    out[cmd] = loaded({DEFERRED!r})
    out[f"{{cmd}}:linalg"] = loaded({PACKAGE_PROBE!r})
print(json.dumps(out))
"""
    got = fresh_python(code, str(tmp_path))
    for key in ("fit_at_time", "fit", "flow"):
        assert got[key] == [], key
        # the fit's SVD is numpy's: the scipy.linalg package import stays out
        assert FLAPACK in got[f"{key}:linalg"], key
        assert not set(PACKAGE_IMPORT) & set(got[f"{key}:linalg"]), key
    here = {}
    exec(FIT_CALL, here)
    assert got["value"] == here["value"]
    assert (tmp_path / "fit" / "fit_results.csv").exists()
    assert (tmp_path / "flow" / "flow_vs_fit.csv").exists()


def test_cli_import_loads_no_thread_pool():
    # nothing qaction imports starts an executor; the concurrent.futures
    # executor modules would load with the first one
    code = LOADED + """
import json
import qaction.cli
print(json.dumps(loaded(("concurrent.futures.thread", "concurrent.futures.process"))))
"""
    assert fresh_python(code) == []


LAPACK_IDENTITY = """
import numpy as np
d, e = np.ones(3), np.ones(2)
stebz, stein = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (d, e))
same = [qaction.lapack.dgtsv is scipy.linalg.lapack.dgtsv,
        qaction.lapack.dgtsv is scipy.linalg.get_lapack_funcs(("gtsv",), (d,))[0],
        qaction.lapack.dpttrf is scipy.linalg.lapack.dpttrf,
        qaction.lapack.dpttrs is scipy.linalg.get_lapack_funcs(("pttrs",), (d,))[0],
        qaction.lapack.dstebz is stebz,
        qaction.lapack.dstein is stein,
        sys.modules[{flapack!r}] is scipy.linalg.lapack._flapack]
"""


@pytest.mark.parametrize("first", ["qaction", "scipy.linalg"])
def test_bound_lapack_routines_are_scipys_own(first):
    # one extension module per process, whichever of the two loads it
    imports = ["import qaction.cli", "import scipy.linalg, scipy.linalg.lapack"]
    if first == "scipy.linalg":
        imports.reverse()
    code = LOADED + "\n".join(imports) + LAPACK_IDENTITY.format(flapack=FLAPACK) + """
import json
print(json.dumps(same))
"""
    assert fresh_python(code) == [True] * 7


def test_missing_lapack_extension_fails_import_with_the_searched_path(tmp_path):
    # a scipy package without linalg/_flapack, first on the path
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = subprocess.run(
        [sys.executable, "-c", "import qaction.cli"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC])),
    )
    assert proc.returncode == 1
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("ImportError: no scipy.linalg._flapack extension in ")
    assert str(tmp_path / "scipy" / "linalg") in last


def _source_nodes():
    """(file name, node) of every AST node in the package's modules."""
    for path in sorted((Path(SRC) / "qaction").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_only_the_lapack_module_imports_scipy():
    # every other module reaches scipy's LAPACK through qaction.lapack
    importers = {}
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            importers.setdefault(name, []).append(node.lineno)
    assert set(importers) <= {"lapack.py"}, importers


def test_no_module_uses_click_echo():
    # click.echo caches every stream it writes to for the life of the process,
    # so a process that runs commands in turn would keep each redirected buffer
    uses = [
        (name, node.lineno)
        for name, node in _source_nodes()
        if (isinstance(node, ast.Attribute) and node.attr == "echo"
            and isinstance(node.value, ast.Name) and node.value.id == "click")
        or (isinstance(node, ast.ImportFrom) and node.module == "click"
            and any(alias.name == "echo" for alias in node.names))
    ]
    assert uses == []
