"""Test-side reference oracles: impulse responses of T entries and the
argument-principle stability check, and the simulator's impulse response
that they referee.

The two impulse routes fail in different ways by construction:

* the spectral route samples T on a dense unit-circle grid by linear solves
  and inverse-FFTs the samples (error source: grid aliasing of slow modes);
* the cofactor route reconstructs the exact polynomial coefficients of the
  adjugate-over-determinant representation by evaluation-interpolation in
  extended precision and performs power-series long division in coefficient
  space (error source: none at sufficient working precision - coefficient
  dynamic range is the reason extended precision is required at all).

Agreement between them certifies both, and they referee the simulator.

reference_is_internally_stable decides stability without the state-space
realization: an argument-principle count on det(I - G) around the unit
circle, cross-checked by the decay of a simulated impulse response.  It
referees netid.is_internally_stable, the spectral radius of the
realization.  Its impulse check needs the slowest mode to decay below
decay_tol within the horizon, so it calls a stable network unstable once the
spectral radius exceeds about decay_tol ** (1 / horizon) (0.990 at the
defaults).
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpc, mpf

from netid import NetworkModel, SimulationDiverged, simulate_inputs
from netid.tf import STABILITY_MARGIN


# -- impulse-response oracles ---------------------------------------------------

def impulse_response(model: NetworkModel, in_node: int, n: int) -> np.ndarray:
    """(L, n) noise-free simulate_inputs response to a unit impulse on r at
    in_node, t = 0: row j is the impulse response from r_{in_node} to w_j."""
    r = np.zeros((model.L, n))
    r[in_node - 1, 0] = 1.0
    return simulate_inputs(model, r).w


def true_T_impulse(model: NetworkModel, out: int, in_: int, n: int,
                   method: str = "spectral", grid_size: int = 1 << 15,
                   precision_digits: int = 40) -> np.ndarray:
    """First n impulse-response samples of the T entry (out, in_).

    method "spectral": inverse FFT of T sampled on a dense grid (grid_size
    points); accurate for internally stable networks once the grid outruns
    the slowest mode's decay.  method "cofactor": exact polynomial
    reconstruction of adjugate and determinant in extended precision
    followed by power-series long division; stability-independent.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    for label, node in (("out", out), ("in", in_)):
        if not (1 <= node <= model.L):
            raise ValueError(f"{label} node {node} outside 1..{model.L}")
    if method == "spectral":
        return _impulse_spectral(model, out, in_, n, grid_size)
    if method == "cofactor":
        return _impulse_cofactor(model, out, in_, n, precision_digits)
    raise ValueError(f"unknown method {method!r}; expected 'spectral' or 'cofactor'")


def _impulse_spectral(model: NetworkModel, out: int, in_: int, n: int,
                      K: int) -> np.ndarray:
    om = 2.0 * np.pi * np.arange(K) / K
    A = np.eye(model.L) - model.eval_G(om)
    rhs = np.zeros((model.L, 1))
    rhs[in_ - 1, 0] = 1.0
    col = np.linalg.solve(A, np.broadcast_to(rhs, (K,) + rhs.shape))
    # G was evaluated at x = e^{-j om}, so samples are T(e^{-j om}) and the
    # plain inverse FFT returns the series coefficients in q^-1.
    h = np.fft.ifft(col[:, out - 1, 0])
    return np.real(h[:n]).copy()


def _mp_lu_det_solve(A, b):
    """Partial-pivot LU on a list-of-lists mpc matrix: det and solution of Ax=b."""
    n = len(A)
    A = [row[:] for row in A]
    b = list(b)
    det = mpc(1)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(A[r][k]))
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            b[k], b[piv] = b[piv], b[k]
            det = -det
        akk = A[k][k]
        if akk == 0:
            raise ZeroDivisionError("singular matrix in extended-precision LU")
        det *= akk
        for r in range(k + 1, n):
            f = A[r][k] / akk
            if f != 0:
                for c in range(k + 1, n):
                    A[r][c] -= f * A[k][c]
                b[r] -= f * b[k]
    x = [mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= A[r][c] * x[c]
        x[r] = acc / A[r][r]
    return det, x


def _mp_horner(coeffs, x):
    acc = mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _impulse_cofactor(model: NetworkModel, out: int, in_: int, n: int,
                      dps: int) -> np.ndarray:
    """Adjugate/determinant polynomial reconstruction + series long division.

    Clearing each row j of (I - G) by the product A_j of its edge
    denominators gives a polynomial matrix P = diag(A_j) (I - G) with
    T = P^-1 diag(A_j), so the (out, in_) entry equals
    adj(P)_{out,in_} * A_{in_} / det(P) with polynomial numerator and
    denominator.  adj(P)_{out,in_} is det(P) * [P^-1 e_in]_out (Cramer), so
    one LU per evaluation point yields both polynomials; coefficients follow
    by inverse DFT on the unit circle, the impulse by long division of the
    series.  The determinant's coefficient dynamic range is what forces
    extended precision (see module docstring).
    """
    L = model.L
    items = model.edge_items()
    # degree bound for det(P) and adj(P)*A_in
    row_aden: dict[int, int] = {j: 0 for j in range(1, L + 1)}
    row_nmax: dict[int, int] = {j: 0 for j in range(1, L + 1)}
    for (j, i), tf in items:
        row_aden[j] += tf.den.degree
        row_nmax[j] = max(row_nmax[j], tf.num.degree)
    bound = sum(row_aden[j] + row_nmax[j] for j in row_aden) + max(row_aden.values(), default=0)
    K = 1
    while K < bound + 8:
        K *= 2

    old_dps = mp.dps
    mp.dps = dps
    try:
        detv = [None] * K
        adjv = [None] * K
        for k in range(K):
            x = mp.expjpi(mpf(-2 * k) / K)       # e^{-2 pi j k / K}
            Aval = [mpc(1)] * (L + 1)
            denv = {}
            numv = {}
            for (j, i), tf in items:
                dv = _mp_horner(tf.den.coeffs, x)
                denv[(j, i)] = dv
                numv[(j, i)] = _mp_horner(tf.num.coeffs, x)
                Aval[j] *= dv
            P = [[mpc(0)] * L for _ in range(L)]
            for j in range(L):
                P[j][j] = Aval[j + 1]
            for (j, i), tf in items:
                P[j - 1][i - 1] -= Aval[j] * numv[(j, i)] / denv[(j, i)]
            rhs = [mpc(0)] * L
            rhs[in_ - 1] = mpc(1)
            det, col = _mp_lu_det_solve(P, rhs)
            detv[k] = det
            adjv[k] = det * col[out - 1]

        invK = mpf(1) / K

        def idft(vals):
            out_c = []
            for m in range(K):
                acc = mpc(0)
                for k in range(K):
                    acc += vals[k] * mp.expjpi(mpf(2 * ((k * m) % K)) / K)
                out_c.append(acc * invK)
            return out_c

        dcof = idft(detv)
        acof = idft(adjv)
        # numerator polynomial: adj * A_in (A_in = product of row-in_ edge dens)
        ain = [mpf(1)]
        for (j, i), tf in items:
            if j == in_:
                prod = [mpf(0)] * (len(ain) + tf.den.degree)
                for a_idx, ca in enumerate(ain):
                    for b_idx, cb in enumerate(tf.den.coeffs):
                        prod[a_idx + b_idx] += ca * cb
                ain = prod
        ncof = [mpc(0)] * (len(acof) + len(ain) - 1)
        for a_idx, ca in enumerate(acof):
            for b_idx, cb in enumerate(ain):
                ncof[a_idx + b_idx] += ca * cb

        series = []
        for k in range(n):
            acc = ncof[k] if k < len(ncof) else mpc(0)
            for m in range(1, min(k, len(dcof) - 1) + 1):
                acc -= dcof[m] * series[k - m]
            series.append(acc / dcof[0])
        return np.array([float(v.real) for v in series])
    finally:
        mp.dps = old_dps


# -- internal stability -----------------------------------------------------------

def reference_is_internally_stable(model: NetworkModel, horizon: int = 2000,
                                   decay_tol: float = 1e-8,
                                   grid_points: int = 4096) -> bool:
    """True iff the network's input-output map has all poles inside the unit
    circle, established by two agreeing checks.

    1. Argument principle on f(x) = det(I - G(x)) around the unit circle:
       with all f-poles accounted for by unstable edge poles, internal
       stability is equivalent to the winding number matching their count
       and f having no zeros on the circle.  The grid is refined until
       consecutive phase steps are small; edge poles within the stability
       margin of the circle make the verdict False outright (uncertifiable).
    2. A noise-free simulation with unit impulses on every node must decay
       below decay_tol within the horizon.

    The combination is conservative: exact pole-zero cancellations inside
    det(I - G) (non-generic) can fail check 1 for a stable network, never
    the reverse.
    """
    # count unstable edge poles; reject edge poles (numerically) on the circle
    unstable_edge_poles = 0
    for _, tf in model.edge_items():
        for p in np.roots(tf.den.coeffs):
            mag = abs(p)
            if abs(mag - 1.0) <= STABILITY_MARGIN:
                return False
            if mag > 1.0:
                unstable_edge_poles += 1

    K = int(grid_points)
    while True:
        om = 2.0 * np.pi * np.arange(K + 1) / K     # closed loop: last = first
        try:
            f = np.linalg.det(np.eye(model.L) - model.eval_G(om))
        except ValueError:
            return False                            # pole of G on the circle
        if np.min(np.abs(f)) < 1e-9 * np.max(np.abs(f)):
            return False                            # zero (or near-zero) on circle
        dphi = np.angle(f[1:] / f[:-1])
        if np.max(np.abs(dphi)) < 0.5 * np.pi:
            break
        if K >= (1 << 18):
            return False                            # cannot resolve the curve
        K *= 2
    winding = int(np.round(np.sum(dphi) / (2.0 * np.pi)))
    # orientation: x = e^{-j om} traverses the circle clockwise, so the
    # winding equals (poles - zeros) of f inside the disk; poles inside the
    # x-disk are exactly the unstable edge poles in z.
    if winding != unstable_edge_poles:
        return False

    # impulse decay cross-check
    r = np.zeros((model.L, max(horizon, 1)))
    r[:, 0] = 1.0
    try:
        rec = simulate_inputs(model, r)
    except SimulationDiverged:
        return False
    tail = rec.w[:, -max(1, min(100, horizon // 10)):]
    return bool(np.max(np.abs(tail)) < decay_tol)
