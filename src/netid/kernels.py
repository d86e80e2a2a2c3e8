"""Simulation kernel: the network recursion, lifted into block GEMMs.

Realization (L nodes, u = r + v of shape (L, N)): an edge i -> j with
transfer function B/A in q^-1, A = 1 + a_1 q^-1 + ..., gives
y(t) = b0 w_i(t) + s(t), with s = sum_k (b_k - b0 a_k) q^-k / A applied to
w_i.  Node equations w = sum_in y + u give (I - D0) w = c + u, with D0 the
zero-delay coefficients and c_j the sum of s over the edges into j.

c_j is realized in observer canonical form with one chain per (node j,
denominator A), shared by the edges into j with that denominator.  The
chain's order k is the largest among its members; its Ax block is the
shift eye(k, k=1) with -a_1..-a_k in the first column, each member's
strictly proper numerator b_k - b0 a_k fills the member's source column of
Bx, and Cx[j, chain start] = 1.  Observer forms with one (Ax, Cx) add by
adding their Bx columns, so the chain's output is exactly the members' sum
of s (Kailath, Linear Systems, 1980).  Static edges own no states.  On the
case study, the FIR edges into each node share the chain of A = 1, which
gives 35 states against 57 for a chain per edge.  Substituting
w = M (c + u), M = (I - D0)^-1, into x(t+1) = Ax x + Bx w, c = Cx x gives
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
the work of N: about 300 small ones, (100, 35) x (35, 35) on the case study
at N = 1e4, which Monte-Carlo threads barely overlap (1.1-1.3x on two
threads against 1.7x for a whole direct run; 2-vCPU host, BLAS at one
thread).  Working memory is the one (P K, n) state array, (N, 35)
on the case study up to K - 1 extra rows, plus (P, n) temporaries;
w = C x + D u is formed in blocks of _OUT_CHUNK samples, in u's place.

Only the states reachable from the input's nonzero rows are stepped (the
closure of those columns of B under A's nonzero pattern).  The others stay
exactly zero, so this changes nothing where the input reaches every state,
as under simulate, whose noise drives every node; and an unexcited part
whose A^K overflows (spectral radius above about exp(709 / K)) cannot turn
the block starts non-finite.

The kernel returns (w, bad): bad is -1 on success, else the index of the
first non-finite column of w (instability blow-up), with w zeroed after it.
Once a state overflows, the next product spreads 0 * inf = NaN to every
state, so on an edge of delay d, bad can come up to d - 1 samples before
the per-edge recursion above sees a non-finite w.
"""

from __future__ import annotations

import math

import numpy as np

# samples per output block: bounds the temporaries of w = C X + D u
_OUT_CHUNK = 1024


def _realize(model):
    """(A, B, C, D) of the grouped realization in the module docstring."""
    L = model.L
    chains: dict[tuple, list] = {}   # (j, a_1..a_k) -> [(i, b_k - b0 a_k)]
    for (j, i), tf in model.edge_items():
        a = np.array(tf.den.coeffs[1:])
        b = np.array(tf.num.coeffs)
        bt = np.zeros(max(a.size, b.size - 1))
        bt[:b.size - 1] = b[1:]
        bt[:a.size] -= b[0] * a
        used = np.flatnonzero(bt)
        k = max(a.size, used[-1] + 1 if used.size else 0)
        if k:                        # static edges have no states
            chains.setdefault((j - 1, tuple(a)), []).append((i - 1, bt[:k]))
    orders = [max(bt.size for _, bt in members)
              for members in chains.values()]
    n = sum(orders)
    Ax = np.zeros((n, n))
    Bx = np.zeros((n, L))
    Cx = np.zeros((L, n))
    s = 0
    for ((j, a), members), k in zip(chains.items(), orders):
        Ax[s:s + k, s:s + k] = np.eye(k, k=1)
        Ax[s:s + len(a), s] = np.negative(a)
        for i, bt in members:
            Bx[s:s + bt.size, i] = bt
        Cx[j, s] = 1.0
        s += k
    M = np.linalg.inv(np.eye(L) - model.feedthrough_matrix())
    B = Bx @ M
    return Ax + B @ Cx, B, M @ Cx, M


def sim_loop_numpy(A, B, C, D, u):
    """The documented recursion x(t) = A x(t-1) + B u(t-1),
    w(t) = C x(t) + D u(t), evaluated in the lifted form of the module
    docstring.  u is overwritten: the returned w is u's array."""
    L, N = u.shape
    reach = (B[:, u.any(axis=1)] != 0).any(axis=1)
    grown = reach | (A[:, reach] != 0).any(axis=1)
    while not (grown == reach).all():   # close under A's nonzero pattern
        reach, grown = grown, grown | (A[:, grown] != 0).any(axis=1)
    if not reach.all():                 # step only the reachable states
        A, B, C = A[np.ix_(reach, reach)], B[reach], C[:, reach]
    n = A.shape[0]
    K = math.isqrt(N)
    P = -(-N // K)
    X = np.zeros((P * K, n))
    Xb = X.reshape(P, K, n)             # Xb[m, j] is row mK + j of X
    w = u
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
            w[:, blk] = C @ X[blk].T + D @ u[:, blk]
            finite = np.isfinite(w[:, blk]).all(axis=0)
            if not finite.all():
                t = s + int(np.argmin(finite))
                w[:, t + 1:] = 0.0
                return w, t
    return w, -1
