"""Hold the loaded OpenBLAS to one thread while netid runs threads of its own.

OpenBLAS starts a thread per core for each large product, so two netid
threads that each call it would ask for twice the cores.  one_blas_thread
sets the thread count of the loaded OpenBLAS to 1 through ctypes, as
threadpoolctl does, and restores it afterwards.  Any other BLAS is left as
it is.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

_SYMBOLS = (("scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))
# The thread count is one per process, so its holders are counted per process.
_lock = threading.Lock()
_holders = 0
_saved = 1


@functools.cache
def _openblas():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Hold the loaded OpenBLAS at one thread inside the block, and yield
    whether it is held: False, having done nothing, when no OpenBLAS is
    found.  Holders nest and may overlap across threads; the first sets the
    count to 1, and the last to leave restores the count the first found."""
    global _holders, _saved
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    with _lock:
        if _holders == 0:
            _saved = get()
            put(1)
        _holders += 1
    try:
        yield True
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                put(_saved)
