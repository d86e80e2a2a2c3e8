"""Network simulation: w(t) = G(q) w(t) + r(t) + v(t) from zero initial state.

Randomness contract
-------------------
Signals are drawn from ``numpy.random.default_rng(seed)`` (the PCG64
generator), which numpy keeps stable across releases.  The draw order is
fixed and documented so that records are reproducible bit-for-bit:

1. ``r_full = rng.standard_normal((L, N)) * sqrt(r_variance)`` - excitation
   for every node, after which rows of nodes outside ``excited_nodes`` are
   zeroed.  Drawing all L rows first means a node's excitation realization
   does not depend on which other nodes are excited, so records with nested
   excitation sets and one seed are directly comparable.
2. ``v = rng.standard_normal((L, N)) * sqrt(v_variance)`` - disturbance at
   every node.

Identical (model, spec) therefore yields a bit-identical SignalRecord.
"""

from __future__ import annotations

import numpy as np

from .kernels import sim_loop_numpy
from .model import ExcitationSpec, NetworkModel, SignalRecord


class SimulationDiverged(RuntimeError):
    """Simulation produced a non-finite sample (instability blow-up)."""

    def __init__(self, sample: int):
        super().__init__(f"simulation diverged: first non-finite value at "
                         f"sample {sample}")
        self.sample = sample


def simulate_inputs(model: NetworkModel, r: np.ndarray, v: np.ndarray | None = None,
                    seed: int | None = None) -> SignalRecord:
    """Simulate with caller-supplied input arrays (both (L, N)).

    Initial conditions are zero.  Raises SimulationDiverged at the first
    non-finite sample.
    """
    r = np.ascontiguousarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != model.L:
        raise ValueError(f"r must be ({model.L}, N), got {r.shape}")
    v = np.zeros_like(r) if v is None else np.ascontiguousarray(v, dtype=float)
    if v.shape != r.shape:
        raise ValueError(f"v shape {v.shape} does not match r shape {r.shape}")
    w, bad = sim_loop_numpy(*model.realization, r, v)
    if bad >= 0:
        raise SimulationDiverged(bad)
    return SignalRecord(w=w, r=r, v=v, seed=-1 if seed is None else seed)


def simulate(model: NetworkModel, spec: ExcitationSpec) -> SignalRecord:
    """Simulate the network under an ExcitationSpec; see the module docstring
    for the randomness contract."""
    for n in spec.excited_nodes:
        if n > model.L:
            raise ValueError(f"excited node {n} outside 1..{model.L}")
    L, N = model.L, spec.N
    rng = np.random.default_rng(spec.seed)
    r = rng.standard_normal((L, N))
    r *= np.sqrt(spec.r_variance)
    mask = np.zeros(L, dtype=bool)
    for n in spec.excited_nodes:
        mask[n - 1] = True
    r[~mask] = 0.0
    v = rng.standard_normal((L, N))
    v *= np.sqrt(spec.v_variance)
    return simulate_inputs(model, r, v, seed=spec.seed)


def impulse_response(model: NetworkModel, in_node: int, n: int) -> np.ndarray:
    """(L, n) noise-free response to a unit impulse on r at in_node, t=0.

    Column-in_node impulse responses of the network's input-output map; row
    j is the impulse response from r_{in_node} to w_j.
    """
    if not (1 <= in_node <= model.L):
        raise ValueError(f"node {in_node} outside 1..{model.L}")
    r = np.zeros((model.L, n))
    r[in_node - 1, 0] = 1.0
    return simulate_inputs(model, r).w
