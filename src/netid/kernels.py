"""Simulation kernel: the network recursion, lifted into block GEMMs.

Realization (L nodes, input u = r + v of shape (L, N)): an edge i -> j with
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

Chunked, lifted recursion: the record is cut into ceil(N / _CHUNK) chunks
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

The kernel returns (w, bad): bad is -1 on success, else the index of the
first non-finite column of w (instability blow-up), with w zeroed after it.
Once a state overflows, the next product spreads 0 * inf = NaN to every
state, so on an edge of delay d, bad can come up to d - 1 samples before
the per-edge recursion above sees a non-finite w.
"""

from __future__ import annotations

import math

import numpy as np

#: Samples per chunk of the record, at most: a run of up to _CHUNK samples
#: is one chunk, and a longer record is cut into the fewest chunks whose
#: lengths differ by at most one sample.
_CHUNK = 10_000
#: Samples per product of w = D u + C x: the width of the output buffer.
_OUT_BLOCK = 1024


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
    w(t) = C x(t) + D u(t), evaluated chunk by chunk in the lifted form of
    the module docstring.  u, a C-contiguous (L, N) float array, is
    overwritten with w, which is returned as (w, bad)."""
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
    # blow-ups are reported through the bad-sample return value, so silence
    # the overflow warnings the final diverging samples would emit
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
                w[:, t + 1:] = 0.0
                return w, t
    return w, -1
