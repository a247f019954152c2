"""What importing resgp loads, and that scipy works as usual after it.

Each check runs in a fresh interpreter, since the test process has imported
scipy.linalg and scipy.optimize already.
"""

import subprocess
import sys

import pytest

# what scipy's own entry points give, printed so that two processes can be compared
SCIPY_RESULTS = """
import numpy as np
import scipy.linalg
import scipy.optimize

a = np.random.default_rng(0).standard_normal((7, 5))
print(scipy.linalg.svdvals(a).tolist())
res = scipy.optimize.minimize(scipy.optimize.rosen, np.full(4, 0.5), jac=scipy.optimize.rosen_der,
                              method="L-BFGS-B", bounds=[(-2.0, 2.0)] * 4)
print(res.x.tolist(), res.fun, res.nit, res.nfev, res.success)
"""

# resgp's routines are the objects scipy's public modules hand out
SAME_ROUTINES = """
import scipy.linalg.blas
import scipy.linalg.lapack
from scipy.optimize._lbfgsb import setulb

from resgp import _scipy

for name in ("ddot", "dgemm", "dgemv", "dtrmm"):
    assert getattr(_scipy, name) is getattr(scipy.linalg.blas, name), name
for name in ("dpotrf", "dtrtri", "dtrtrs"):
    assert getattr(_scipy, name) is getattr(scipy.linalg.lapack, name), name
assert _scipy.setulb is setulb
"""


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_scipy_linalg_nor_scipy_optimize():
    out = run_python(
        "import sys\n"
        "import resgp, resgp.cli\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))"
    )
    assert out.split() == ["[]"]


@pytest.mark.parametrize("first", ["resgp", "scipy.linalg, scipy.optimize"],
                         ids=["resgp_first", "scipy_first"])
def test_scipy_works_as_usual_beside_resgp(first):
    reference = run_python(SCIPY_RESULTS)
    assert run_python(f"import {first}\n" + SCIPY_RESULTS + SAME_ROUTINES) == reference
