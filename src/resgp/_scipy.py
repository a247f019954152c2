"""The compiled scipy routines resgp calls, loaded without the scipy.linalg and
scipy.optimize package inits, which load many modules no fit uses.

scipy.linalg._fblas, scipy.linalg._flapack and scipy.optimize._lbfgsb are each
loaded from its file under scipy (or taken from sys.modules), so the routines are
the objects scipy.linalg.blas, scipy.linalg.lapack and scipy.optimize._lbfgsb hand
out. Each is registered in sys.modules under its own name, and a later `import
scipy.linalg` or `import scipy.optimize` reuses it. The package then lacks the
attribute (scipy.linalg._fblas fails as an attribute access), while the `from
scipy.linalg import _fblas` form scipy itself uses still works.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import scipy


def _compiled(package: str, name: str):
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = PathFinder.find_spec(fullname, [os.path.join(p, package) for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"no compiled module {fullname} in {scipy.__path__}", name=fullname)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas, _flapack = _compiled("linalg", "_fblas"), _compiled("linalg", "_flapack")
ddot, dgemm, dgemv, dtrmm = _fblas.ddot, _fblas.dgemm, _fblas.dgemv, _fblas.dtrmm
dpotrf, dtrtri, dtrtrs = _flapack.dpotrf, _flapack.dtrtri, _flapack.dtrtrs
setulb = _compiled("optimize", "_lbfgsb").setulb
