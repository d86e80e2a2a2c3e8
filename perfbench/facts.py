"""Machine facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

#: Environment variables that cap the BLAS thread pool, for every common BLAS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def netid_pool_threads() -> int:
    """Threads of run_monte_carlo's pool when no worker count is passed:
    the core count, capped at 8 (netid.experiments._worker_count)."""
    return min(os.cpu_count() or 1, 8)


def machine_facts(root: Path, blas_threads: int, pool_threads: int) -> dict:
    """nproc, CPU, BLAS and its threads, versions, optional packages, commit.

    pool_threads is the most threads the program's own pool may run; the
    compute-thread total is pool_threads x blas_threads.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _blas_runtime_threads()
    if runtime is not None:
        blas_threads = runtime
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "pool_threads": pool_threads,
        "compute_threads": pool_threads * blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "matplotlib_importable":
            importlib.util.find_spec("matplotlib") is not None,
        "git_commit": _git_commit(root),
    }
