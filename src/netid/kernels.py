"""Simulation kernel: the network recursion, lifted into block GEMMs.

Data layout (E edges, L nodes, N samples):
  erow, ecol : (E,) int64, 0-based endpoint indices; edge e feeds node
               erow[e] from node ecol[e]
  bmat       : (E, NB) float64, numerator taps b0..b_{NB-1}, zero-padded
  amat       : (E, NA) float64, denominator taps a0..a_{NA-1}, a0 = 1
  M          : (L, L) float64, inverse of (I - D0) with D0 the zero-delay
               coefficient matrix
  u          : (L, N) float64, summed external input r + v

Per edge, the output y_e obeys the difference equation
  y_e(t) = sum_k b_k w_src(t-k) - sum_{m>=1} a_m y_e(t-m),
split as y_e(t) = b0 w_src(t) + s_e(t) with s_e collecting strictly delayed
terms.  Stacking node equations w(t) = sum_in y_e(t) + u(t) gives
  (I - D0) w(t) = c(t) + u(t),  c_j(t) = sum_{e into j} s_e(t),
solved per sample through the precomputed M.

State-space form: with s_e in observer canonical form, n_e states of its own
order, x(t+1) = Ax x(t) + Bx w(t) and c(t) = Cx x(t).  Substituting
w = M (c + u) gives one linear system of n = sum n_e states,
  x(t+1) = A x(t) + B u(t),  w(t) = C x(t) + D u(t),
  A = Ax + Bx M Cx,  B = Bx M,  C = M Cx,  D = M.

Lifted recursion (block-state realization): the N samples are cut into
P = ceil(N/K) blocks of K = isqrt(N) samples, K a function of N alone so
that bits do not depend on anything but the record.  With b(t) = B u(t-1)
and S_m = x(mK - 1) the state before block m,
  x(mK + j) = z_m(j) + A^(j+1) S_m,   z_m(j) = sum_{i<=j} A^(j-i) b(mK + i).
Three recursions replace the N sequential steps: the forced responses z_m,
K steps each a (P, n) x (n, n) GEMM over all blocks at once; the block
starts S_{m+1} = A^K S_m + z_m(K-1), P vector steps; and the free responses
A^(j+1) S_m, K more GEMM steps that propagate S.  So about 2K + P calls do
the work of N, and the GEMMs release the GIL, which lets Monte-Carlo runs
overlap on threads.  Working memory is the one (P K, n) state array, which
is at most K - 1 rows longer than the (N, n) trajectory it holds, plus
(P, n) temporaries; w = C x + M u is formed in blocks of _OUT_CHUNK samples.

The kernel returns (w, bad): bad is -1 on success, else the index of the
first non-finite column of w (instability blow-up), with w zeroed after it.
Once a state overflows, the next product spreads 0 * inf = NaN to every
state, so on an edge of delay d, bad can come up to d - 1 samples before
the per-edge recursion above sees a non-finite w.  A network whose A^K
overflows (spectral radius above about exp(709 / K)) turns the block starts
non-finite from the third block even where the state stays exactly zero,
which only an unexcited, wildly unstable part can show.
"""

from __future__ import annotations

import math

import numpy as np

# samples per output block: bounds the temporaries of w = C X + M u
_OUT_CHUNK = 1024


def _realize(erow, ecol, bmat, amat, M):
    """(A, B, C) of the state-space form in the module docstring; D = M.

    Edge e owns states first[e]..first[e]+n_e-1, the first of them s_e; its
    strictly proper numerator is b_k - b0 a_k.  Static edges own none.
    """
    L = M.shape[0]
    K = max(bmat.shape[1], amat.shape[1]) - 1
    a = np.zeros((erow.shape[0], K))
    bt = np.zeros_like(a)
    a[:, :amat.shape[1] - 1] = amat[:, 1:]
    bt[:, :bmat.shape[1] - 1] = bmat[:, 1:]
    bt -= bmat[:, :1] * a
    used = (a != 0) | (bt != 0)
    order = (used * np.arange(1, K + 1)).max(axis=1, initial=0)
    first = np.concatenate(([0], np.cumsum(order)))
    n = int(first[-1])
    Ax = np.zeros((n, n))
    Bx = np.zeros((n, L))
    Cx = np.zeros((L, n))
    for e in np.flatnonzero(order):   # static edges have no states
        s, k = first[e], order[e]
        Ax[s:s + k, s:s + k] = np.eye(k, k=1)
        Ax[s:s + k, s] = -a[e, :k]
        Bx[s:s + k, ecol[e]] = bt[e, :k]
        Cx[erow[e], s] = 1.0
    B = Bx @ M
    return Ax + B @ Cx, B, M @ Cx


def sim_loop_numpy(erow, ecol, bmat, amat, M, u):
    """The documented recursion x(t) = A x(t-1) + B u(t-1),
    w(t) = C x(t) + M u(t), evaluated in the lifted form of the module
    docstring."""
    L, N = u.shape
    A, B, C = _realize(erow, ecol, bmat, amat, M)
    n = A.shape[0]
    K = math.isqrt(N)
    P = -(-N // K)
    X = np.zeros((P * K, n))
    Xb = X.reshape(P, K, n)             # Xb[m, j] is row mK + j of X
    w = np.empty((L, N))
    AT = A.T
    # blow-ups are reported through the bad-sample return value, so silence
    # the overflow warnings the final diverging samples would emit
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(u[:, :-1].T, B.T, out=X[1:N])
        for j in range(1, K):           # forced responses z_m(j)
            Xb[:, j] += Xb[:, j - 1] @ AT
        S = np.zeros((P, n))            # S[m] = x(mK - 1)
        if P > 1:                       # S[0] = 0: no product with A^K
            S[1] = Xb[0, K - 1]
        AKT = np.linalg.matrix_power(AT, K)
        for m in range(2, P):
            S[m] = S[m - 1] @ AKT + Xb[m - 1, K - 1]
        for j in range(K):              # free responses A^(j+1) S_m
            S = S @ AT
            Xb[:, j] += S
        for s in range(0, N, _OUT_CHUNK):
            blk = slice(s, min(s + _OUT_CHUNK, N))
            w[:, blk] = C @ X[blk].T + M @ u[:, blk]
            finite = np.isfinite(w[:, blk]).all(axis=0)
            if not finite.all():
                t = s + int(np.argmin(finite))
                w[:, t + 1:] = 0.0
                return w, t
    return w, -1
