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

Chunked, lifted recursion: NetworkModel.realization is stepped on
u = r + v in block GEMMs.  The record is cut into ceil(N / _CHUNK) chunks
whose lengths differ by at most one sample, each walked in turn from the
state the one before left (zero for the first).  Once a chunk's states are
known, w = D u + C x overwrites the chunk's u in place, through one buffer
of _OUT_BLOCK samples; later chunks' u is still untouched.  One block
length, K = isqrt of the longest chunk's length, serves every chunk of a
call, so H and A^K are built once; a chunk of Nc samples from sample s is cut
into P = ceil(Nc/K) blocks.  As chunk lengths differ by at most one, K is
isqrt(Nc) unless the longest is a perfect square beside a shorter chunk
(N = 19,999).  Chunk and block lengths, and so the bits, depend on N alone.
With S_m = x(s + mK) the state at block m's first sample:
  1. block ends E_m = sum_{i<K} A^(K-1-i) B u(s + mK + i), for all blocks
     in one batched product: H[l, i] = (A^(K-1-i) B)^T[l] (H's powers by
     doubling), node l's input in the blocks is a (P-1, K) view of u, and
     the L products (P-1, K) x (K, n) are summed, the GEMM
     (P-1, K L) x (K L, n) without a time-major copy of u;
  2. block starts S_{m+1} = A^K S_m + E_m, P - 1 vector steps;
  3. one forward pass x(t) = A x(t-1) + B u(t-1) from the true starts, K - 1
     steps each a (P, n) x (n, n) GEMM over all blocks at once, on top of
     one product for every B u(t-1).
That is N (n^2 + 2 L n) multiply-adds in about K + P calls in place of N:
about 200 per 1e4-sample chunk, (100, 35) x (35, 35) on the case study.
_CHUNK keeps a 1e4-sample run in one chunk.  Working memory is O(_CHUNK),
not O(N), and allocated once per call: H, and one (P K, n) state array and
the (L, _OUT_BLOCK) output buffer that every chunk reuses, 3.7 MiB on the
case study at 1e4 samples and at 1e5 (tracemalloc), H's 0.5 MiB of it.

Only the states reachable from the nodes where u is ever nonzero are
stepped (the closure of those columns of B under A's nonzero pattern).  The
others stay exactly zero, so this changes nothing where the input reaches
every state, as under simulate, whose noise drives every node; and an
unexcited part whose powers in H and A^K overflow (spectral radius above
about exp(709 / K)) cannot turn the block ends or starts non-finite.

The first non-finite column of w (instability blow-up) raises
SimulationDiverged, checked once per chunk.  Once a state overflows, the
next product spreads 0 * inf = NaN to every state, so on an edge of delay d,
the reported sample can come up to d - 1 samples before the per-edge
difference equations see a non-finite w.

The first simulation in a process, or netid's first pool or Gram helper,
has glibc's malloc keep freed memory, up to the process's peak, for the next
run to reuse without page faults, in one heap that netid's threads share.
Beside it, one_blas_thread holds the loaded OpenBLAS at one thread, as
threadpoolctl does, while netid runs threads of its own: OpenBLAS starts a
thread per core for each large product, so two netid threads that each call
it would ask for twice the cores.  Any other BLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .model import ExcitationSpec, NetworkModel, SignalRecord

#: Samples per chunk of the record, at most: a run of up to _CHUNK samples
#: is one chunk, and a longer record is cut into the fewest chunks whose
#: lengths differ by at most one sample.
_CHUNK = 10_000
#: Samples per product of w = D u + C x (the output buffer's width); products
#: of one fixed width give w the same bits at 1 and at 2 OpenBLAS threads.
_OUT_BLOCK = 1024


class SimulationDiverged(RuntimeError):
    """Simulation produced a non-finite sample (instability blow-up)."""

    def __init__(self, sample: int):
        super().__init__(f"simulation diverged: first non-finite value at "
                         f"sample {sample}")
        self.sample = sample


@functools.cache
def _hold_freed_memory() -> bool:
    """Set M_MMAP_THRESHOLD (-3) to glibc's maximum, 32 MiB, so blocks come
    from the heap, M_TRIM_THRESHOLD (-1) to 256 MiB, so freed heap stays, and
    M_ARENA_MAX (-8) to 1, so threads started later share the main heap: a
    thread takes its arena at its first malloc, and one started earlier
    keeps its own.  False, having done nothing, where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    return all([mallopt(-3, 32 * 2**20), mallopt(-1, 256 * 2**20),
                mallopt(-8, 1)])


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


def _step(A, B, C, D, u):
    """The recursion x(t) = A x(t-1) + B u(t-1), w(t) = C x(t) + D u(t),
    evaluated chunk by chunk in the lifted form of the module docstring.
    u, a C-contiguous (L, N) float array, is overwritten with w, which is
    returned; raises SimulationDiverged at the first non-finite column."""
    L, N = u.shape
    excited = u.any(axis=1)
    reach = (B[:, excited] != 0).any(axis=1)
    grown = reach | (A[:, reach] != 0).any(axis=1)
    while not (grown == reach).all():   # close under A's nonzero pattern
        reach, grown = grown, grown | (A[:, grown] != 0).any(axis=1)
    if not reach.all():                 # step only the reachable states
        A, B, C = A[np.ix_(reach, reach)], B[reach], C[:, reach]
    n = A.shape[0]
    AT, BT = A.T, B.T
    w = u                               # written over u, chunk by chunk
    x = np.zeros(n)                     # state at the chunk's first sample
    chunks = -(-N // _CHUNK)
    top = -(-N // chunks)               # the first chunk is the longest
    K = math.isqrt(top)
    Xbuf = np.empty((top + K, n))
    wbuf = np.empty((L, _OUT_BLOCK))   # w = D u + C x, block by block
    # a blow-up raises SimulationDiverged, so silence the overflow warnings
    # the final diverging samples would emit
    with np.errstate(over="ignore", invalid="ignore"):
        H = np.empty((K, L, n))         # H[i] = (A^(K-1-i) B)^T
        H[K - 1] = BT
        done, AT2 = 1, AT               # doubling: H[K-done:] is filled
        while done < K:                 # and AT2 = (A^T)^done
            k = min(done, K - done)
            np.matmul(H[K - k:], AT2, out=H[K - done - k:K - done])
            done, AT2 = done + k, AT2 @ AT2
        H = H.transpose(1, 0, 2)        # H[l, i] = (A^(K-1-i) B)^T[l]
        AKT = np.linalg.matrix_power(AT, K)
        for c in range(chunks):
            s, e = -(-c * N // chunks), -(-(c + 1) * N // chunks)
            P = -(-(e - s) // K)
            u = w[:, s:e]
            U = u[:, :(P - 1) * K].reshape(L, P - 1, K)
            E = np.zeros((P - 1, n))    # summed node by node, in place
            for l in range(L):
                E += U[l] @ H[l]
            S = np.empty((P, n))        # S[m] = x(s + mK)
            S[0] = x
            if P > 1:   # a zero start skips A^K, which may overflow
                S[1] = x @ AKT + E[0] if x.any() else E[0]
            for m in range(2, P):
                S[m] = S[m - 1] @ AKT + E[m - 1]
            X = Xbuf[:P * K]
            X[e - s:] = 0.0
            np.matmul(u[:, :-1].T, BT, out=X[1:e - s])
            Xb = X.reshape(P, K, n)     # Xb[m, j] is row mK + j of X
            Xb[:, 0] = S
            for j in range(1, K):
                Xb[:, j] += Xb[:, j - 1] @ AT
            x = X[e - s - 1] @ AT + u[:, -1] @ BT
            for a in range(s, e, _OUT_BLOCK):
                b = min(a + _OUT_BLOCK, e)
                out = np.matmul(D, w[:, a:b], out=wbuf[:, :b - a])
                out += C @ X[a - s:b - s].T
                w[:, a:b] = out
            if not np.isfinite(w[:, s:e]).all():
                t = s + int(np.argmin(np.isfinite(w[:, s:e]).all(axis=0)))
                raise SimulationDiverged(t)
    return w


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
    return SignalRecord(w=_step(*model.realization, u), r=r,
                        excited=tuple(range(1, model.L + 1)),
                        seed=-1 if seed is None else seed)


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
    return SignalRecord(w=_step(*model.realization, u), r=r,
                        excited=excited, seed=spec.seed)
