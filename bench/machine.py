"""A note of the machine and software every result was measured on.

BLAS thread variables are read, never set: the thread policy is the program's
to choose, and a change to it has to be able to show in the figures.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RESGP_THREADS")


def _loaded_blas() -> list[str]:
    """Paths of the BLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(paths)


def _blas_threads(path: str):
    """Thread count an OpenBLAS build reports, or None if it exports no getter."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _os_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_note(root: Path, src: Path) -> dict:
    """Call after the package and a BLAS operation have run, so the pools exist."""
    import numpy as np
    import scipy

    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    libs = _loaded_blas()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "blas": blas_name,
        "blas_threads": {os.path.basename(p): _blas_threads(p) for p in libs},
        "process_threads": _os_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256_16": _source_digest(src),
        "argv": sys.argv[1:],
    }
