"""The four LAPACK routines qaction calls, bound from scipy's f2py extension.

    dpttrf   LDL^T factor of a positive definite tridiagonal matrix
             (trajectory: the Newton matrix of every relaxation step)
    dpttrs   solve with that factor (trajectory: the Newton steps, and the
             two Jacobi equations at the solved positions)
    dgtsv    tridiagonal solve with partial pivoting (trajectory: the
             fallback for both where the matrix is not positive definite;
             oracle: the shifted solves of the eigenvector polish)
    dstebz   tridiagonal bisection for eigenvalues (oracle: the bracket of
             every level)

This is the only module that names scipy's LAPACK. It loads the extension
scipy.linalg._flapack by itself, without running scipy/linalg/__init__.py.
That package import costs about half of qaction's start-up: in scipy 1.17.1,
the version this was verified with, it runs scipy._lib.array_api_compat,
which clones numpy and so imports numpy.f2py, numpy.testing, numpy.ma and
numpy.random. On a shared 2-vCPU Xeon, a `python -c "import qaction.cli"`
process went from 0.38-0.57 s to 0.19-0.28 s, and its peak RSS from 58.9 to
36.9 MiB.

The extension is registered in sys.modules under its full name, and an entry
already there is used, so a process holds one module object whichever of
qaction and scipy.linalg is imported first. The bound names are then the very
objects scipy.linalg.lapack gives (get_lapack_funcs returns them for float64
arrays), and so give the same bits. A scipy.linalg imported after qaction
finds the extension in sys.modules and so has no attribute _flapack; its own
`from scipy.linalg import _flapack` still gets the module from there.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    if FLAPACK in sys.modules:
        return sys.modules[FLAPACK]
    scipy_spec = importlib.util.find_spec("scipy")  # imports nothing
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name=FLAPACK)
    linalg = [str(Path(p) / "linalg") for p in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(FLAPACK, linalg)
    if spec is None:
        raise ImportError(f"no {FLAPACK} extension in {', '.join(linalg)}", name=FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[FLAPACK] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dstebz = _flapack.dstebz
