"""Network simulation: w(t) = G(q) w(t) + r(t) + v(t) from zero initial state.

Randomness contract
-------------------
Signals are drawn from ``numpy.random.default_rng(seed)`` (the PCG64
generator), which numpy keeps stable across releases.  The draw order is
fixed and documented so that records are reproducible bit-for-bit:

1. ``r_full = rng.standard_normal((L, N)) * sqrt(r_variance)`` - excitation
   for every node; only the rows of ``excited_nodes`` are kept, and every
   other node's excitation is zero.  Drawing all L rows first means a
   node's excitation realization does not depend on which other nodes are
   excited, so records with nested excitation sets and one seed are
   directly comparable.
2. ``v = rng.standard_normal((L, N)) * sqrt(v_variance)`` - disturbance at
   every node.

r is drawn one row at a time, which yields the same numbers as one (L, N)
draw, and v in one draw.  simulate's on_excitation hook, if given, receives
the kept rows of r after step 1, scaled, and before step 2; they are final
then, so a caller may read them on another thread while v is drawn and the
network is stepped.  The record stores w and the excited rows of r; v goes
into w's array as the simulated input r + v and is overwritten there.

Identical (model, spec) therefore yields a bit-identical SignalRecord.

The first simulation in a process has glibc's malloc keep freed memory, up
to the process's peak, for the next run to reuse without page faults.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np

from .kernels import sim_loop_numpy
from .model import ExcitationSpec, NetworkModel, SignalRecord


class SimulationDiverged(RuntimeError):
    """Simulation produced a non-finite sample (instability blow-up)."""

    def __init__(self, sample: int):
        super().__init__(f"simulation diverged: first non-finite value at "
                         f"sample {sample}")
        self.sample = sample


@functools.cache
def _hold_freed_memory() -> bool:
    """Set M_MMAP_THRESHOLD (-3) to glibc's maximum, 32 MiB, so blocks come
    from the heap, and M_TRIM_THRESHOLD (-1) to 256 MiB, so freed heap stays;
    False, having done nothing, where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    return all([mallopt(-3, 32 * 2**20), mallopt(-1, 256 * 2**20)])


def _record(model: NetworkModel, u: np.ndarray, r: np.ndarray,
            excited: tuple[int, ...], seed: int) -> SignalRecord:
    """Step the kernel on the input u = r + v, which it overwrites with w."""
    w, bad = sim_loop_numpy(*model.realization, u)
    if bad >= 0:
        raise SimulationDiverged(bad)
    return SignalRecord(w=w, r=r, excited=excited, seed=seed)


def simulate_inputs(model: NetworkModel, r: np.ndarray, v: np.ndarray | None = None,
                    seed: int | None = None) -> SignalRecord:
    """Simulate with caller-supplied input arrays (both (L, N)).

    Initial conditions are zero.  The record keeps r as passed, with every
    node listed as excited.  Raises SimulationDiverged at the first
    non-finite sample.
    """
    _hold_freed_memory()   # before the run's first array, the record
    r = np.ascontiguousarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != model.L:
        raise ValueError(f"r must be ({model.L}, N), got {r.shape}")
    if r.shape[1] < 1:
        raise ValueError(f"sample count must be >= 1, got r of shape {r.shape}")
    if v is None:
        u = r.copy()
    else:
        v = np.asarray(v, dtype=float)
        if v.shape != r.shape:
            raise ValueError(f"v shape {v.shape} does not match r shape {r.shape}")
        u = r + v
    return _record(model, u, r, tuple(range(1, model.L + 1)),
                   -1 if seed is None else seed)


def simulate(model: NetworkModel, spec: ExcitationSpec,
             on_excitation: Callable[[np.ndarray], object] | None = None
             ) -> SignalRecord:
    """Simulate the network under an ExcitationSpec; see the module docstring
    for the randomness contract.  on_excitation, if given, is called once
    with the record's r, one row per excited node, as soon as it is drawn
    and scaled; it must not write to r."""
    for n in spec.excited_nodes:
        if n > model.L:
            raise ValueError(f"excited node {n} outside 1..{model.L}")
    _hold_freed_memory()   # before the run's first array, the record
    L, N, excited = model.L, spec.N, spec.excited_nodes
    rng = np.random.default_rng(spec.seed)
    r = np.empty((len(excited), N))
    u = np.empty((L, N))
    kept = dict(zip(excited, r))
    # an unexcited node's draw lands in its row of u, which v overwrites
    for node in range(1, L + 1):
        rng.standard_normal(out=kept.get(node, u[node - 1]))
    r *= np.sqrt(spec.r_variance)
    if on_excitation is not None:
        on_excitation(r)
    rng.standard_normal(out=u)
    u *= np.sqrt(spec.v_variance)
    for node, row in kept.items():
        u[node - 1] += row
    return _record(model, u, r, excited, spec.seed)
