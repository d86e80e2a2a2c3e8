"""Local two-step identification of a single module.

To identify the module from node i into node j it is enough to work with a
small submatrix of the network response T = (I - G)^-1, because T's rows
and columns satisfy exact local relations:

* source side - with N_i+ the out-neighbors of i,
      T[N_i+, i] = T[N_i+, N_i+] . G[N_i+, i],
  so exciting {i} u N_i+ and measuring N_i+ determines every module
  leaving i by a per-frequency linear solve;
* sink side - with N_j- the in-neighbors of j,
      T[j, N_j-] = G[j, N_j-] . T[N_j-, N_j-],
  so exciting N_j- and measuring {j} u N_j- determines every module
  entering j by a per-frequency row solve.

The cheaper side is chosen by comparing the number of T entries each one
needs: d(1+d) with d the relevant degree.  The T entries themselves are
estimated open-loop (excitations are external, so w regressed on r is an
ordinary MISO problem) as high-order FIR models, evaluated on a frequency
grid, and the solved samples are finally reduced to the low-order module
coefficients by linear least squares.

The FIR regression never builds its regressor: its normal equations are
formed from FFT auto- and cross-correlations of the excitations and nodes,
with exact window end-corrections, and one Cholesky factorization of the
Gram serves both its rank check and the solve.  The Gram and its factor
depend on the excitations alone, not on the node outputs
(factor_excitation_gram), so they can be formed while the network is
still being simulated.  The factor is blocked and
overwrites the Gram: it and both substitutions are matrix products on
panels of _SOLVE_BLOCK columns, and besides the factor they hold only the
inverses of its diagonal blocks.  Correlations and the fit's convolution
take short FFTs of record segments, never of the whole record
(overlap-save; Oppenheim & Schafer, Discrete-Time Signal Processing, 3rd
ed., sec. 8.7); no lag wraps in a segment, so each partial sum and their
total are exact.  Segments are transformed _SEGMENT_GROUP at a time, and the
record's rows are read in place, so besides the Gram, which its factor
overwrites, the regression's working memory does not grow with the record:
at 1e5 samples it holds no copy of a signal and no full-length fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import FreqResponseMatrix, NetworkModel, SignalRecord, node_set
from .tf import FreqGrid

#: Grid points whose local solve exceeds this condition number are dropped.
CONDITION_LIMIT = 1e10
#: Largest Gram condition estimate max_i G_ii / L_ii^2 (G the T-entry Gram,
#: L its Cholesky factor) before the T-entry regression is rejected as
#: rank-deficient.  G_ii / L_ii^2 is 1 / (1 - R^2) of regressor column i on
#: the columns before it, so 1e10 rejects a column whose independent part
#: has less than 1e-5 of its norm.  lstsq on the regressor cut singular
#: values below eps * max(rows, cols) of the largest, about 1e-12 at 1e4
#: rows; that tolerance cannot carry over, because the Gram squares the
#: regressor's condition and is formed only to about 1e-15 relative, so an
#: exactly singular Gram can factor with estimates as low as 1e14.
GRAM_CONDITION_LIMIT = 1e10
#: Columns per panel of the T-entry Gram's blocked Cholesky factor; it sets
#: both the factor's products and the diagonal blocks whose inverses the
#: triangular substitutions multiply by.
_SOLVE_BLOCK = 64
#: Overlap-save segments whose spectra the T-entry regression holds at a
#: time, so that its working memory does not grow with the record.
_SEGMENT_GROUP = 8
#: Fraction of droppable grid points beyond which the solve is rejected.
MAX_DROP_FRACTION = 0.2
#: Default FIR order for the T-entry estimates (lags 0..order).
DEFAULT_FIR_ORDER = 150
#: Default number of frequency grid points.
DEFAULT_GRID_POINTS = 100


@dataclass(frozen=True)
class MethodChoice:
    """Experiment plan for one target module (j, i).

    which is "source" (solve for all modules leaving i) or "sink" (solve
    for all modules entering j).
    """

    target: tuple[int, int]
    which: str
    excite_set: tuple[int, ...]
    measure_set: tuple[int, ...]

    @property
    def entry_count(self) -> int:
        """T entries the chosen side estimates: d (1 + d) on either side."""
        return len(self.excite_set) * len(self.measure_set)


def plan_experiment(target: tuple[int, int],
                    out_neighbors_of_source: Iterable[int],
                    in_neighbors_of_sink: Iterable[int]) -> MethodChoice:
    """Choose the cheaper side for identifying module (j, i).

    Consumes only the local topology: the out-neighbors of the source i and
    the in-neighbors of the sink j.  Nothing else about the network affects
    the plan, which is what makes the method local.

    The source side needs the (d_i+ x d_i+) submatrix plus one column, i.e.
    d_i+ (1 + d_i+) entries, exciting {i} u N_i+ and measuring N_i+.  The
    sink side needs (1 + d_j-) d_j- entries, exciting N_j- and measuring
    {j} u N_j-.  Ties go to the source side.
    """
    j, i = int(target[0]), int(target[1])
    out_nbrs = node_set(out_neighbors_of_source)
    in_nbrs = node_set(in_neighbors_of_sink)
    if j not in out_nbrs or i not in in_nbrs:
        raise ValueError(
            f"target module ({j},{i}) is not present in the provided local "
            f"topology: need {j} among the source's out-neighbors and {i} "
            f"among the sink's in-neighbors")
    if len(out_nbrs) <= len(in_nbrs):
        return MethodChoice((j, i), "source",
                            excite_set=node_set(out_nbrs + (i,)),
                            measure_set=out_nbrs)
    return MethodChoice((j, i), "sink", excite_set=in_nbrs,
                        measure_set=node_set(in_nbrs + (j,)))


def plan_experiment_for_model(model: NetworkModel,
                              target: tuple[int, int]) -> MethodChoice:
    """Plan from a model by extracting just the two local neighbor sets."""
    j, i = int(target[0]), int(target[1])
    if not model.has_edge(j, i):
        raise ValueError(f"model has no module ({j},{i})")
    return plan_experiment((j, i), model.out_neighbors(i), model.in_neighbors(j))


@dataclass(frozen=True, eq=False)
class TSubmatrixEstimate:
    """FIR estimates of a T submatrix, with grid samples and fit scores.

    fit_scores[k] is the normalized output fit of row node freq.rows[k]'s
    MISO regression, 1 - ||w - w_hat|| / ||w - mean(w)||; every entry in that
    row shares the score, since the row is estimated jointly.
    """

    freq: FreqResponseMatrix
    coefficients: np.ndarray  # (n_rows, n_cols, fir_order + 1)
    fit_scores: tuple[float, ...]
    fir_order: int

    @property
    def cols(self) -> tuple[int, ...]:
        return self.freq.cols

    def entry_fit_scores(self) -> dict[tuple[int, int], float]:
        """Fit score per estimated entry (row and column node labels).

        Entries of a row share the row's score because the row is one joint
        MISO regression."""
        return {(r, c): self.fit_scores[k]
                for k, r in enumerate(self.freq.rows) for c in self.cols}


def _segment_spectra(rows, start: int, count: int, length: int, step: int,
                     F: int) -> np.ndarray:
    """Length-F real FFTs, shape (len(rows), count, F // 2 + 1), of the
    windows row[start + s step : start + s step + length], s < count, of
    each row, zero past the row's end.  Only the span the windows cover is
    copied."""
    span = (count - 1) * step + length
    seg = np.zeros((len(rows), span))
    for k, row in enumerate(rows):
        part = row[start:start + span]
        seg[k, :len(part)] = part
    return np.fft.rfft(sliding_window_view(seg, length, axis=1)[:, ::step], F)


def _segmentation(N: int, P: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Overlap-save segmentation (F, B, groups) of the window t = P..N-1:
    S segments of B = F - P samples, F = 2048 or, for P > 1023, the next
    power of two >= 2(P + 1), in groups of _SEGMENT_GROUP segments, each
    group listed by its first segment and segment count."""
    F = max(2048, 1 << (2 * P + 1).bit_length())
    B = F - P
    S = -(-(N - P) // B)
    return F, B, [(a, min(_SEGMENT_GROUP, S - a))
                  for a in range(0, S, _SEGMENT_GROUP)]


def _correlations(x, r, P: int) -> np.ndarray:
    """Windowed correlations, shape (len(x), C, P + 1): entry [k, c, l] is
    the sum over t = P..N-1 of x_k[t] r_c[t - l].

    x and r are rows of N samples (2-D arrays or sequences of 1-D rows,
    which are read, not copied), r the C excitations.  Segment s of
    _segmentation pairs x[P + sB : P + sB + B] (zero-padded past N) with
    r_c[sB : sB + F] in length-F real FFTs; lag l of their circular
    correlation sits at index P - l, and P + B = F, so no lag wraps and the
    segment's correlation is exact.  The window's is their sum, taken over
    the spectra before one inverse FFT per (row, excitation); the spectra
    of one segment group are formed at a time, and the groups' sums added.
    """
    F, B, groups = _segmentation(len(r[0]), P)
    for a, g in groups:
        R = _segment_spectra(r, a * B, g, F, B, F)
        X = _segment_spectra(x, P + a * B, g, B, B, F)
        part = np.matmul(X.conj().transpose(2, 0, 1), R.transpose(2, 1, 0))
        cross = part if a == 0 else cross + part
    return np.fft.irfft(cross.transpose(1, 2, 0), F)[..., P::-1]


def _rhs(r, w, P: int) -> np.ndarray:
    """Right-hand side Phi^T Y of the FIR regression of the M rows w on
    lags 0..P of the C rows r, shape (C (P + 1), M), with Phi as in _gram:
    the windowed correlations of w with r (_correlations)."""
    return _correlations(w, r, P).transpose(1, 2, 0).reshape(
        len(r) * (P + 1), len(w))


def _gram(r, P: int) -> np.ndarray:
    """Gram Phi^T Phi of the FIR regression on lags 0..P of the C excitation
    rows r, each of N samples.

    The regressor Phi has one row per sample t = P..N-1 and one column
    r_c[t - l] per excitation c and lag l (c major), but is never built.
    The Gram's first block row is the windowed correlations of r with
    itself (_correlations).  Every other entry follows from the one
    above-left by the exact window end-correction
        G[l+1, l'+1] = G[l, l'] + r_c[P-1-l] r_c'[P-1-l']
                                - r_c[N-1-l] r_c'[N-1-l'],
    the sample pair entering the window minus the pair leaving it, so the
    result equals Phi^T Phi, not a circular approximation of it.
    """
    C, N = len(r), len(r[0])
    xc = _correlations(r, r, P)
    gram = np.empty((C, P + 1, C, P + 1))
    gram[:, 0] = xc
    gram[:, :, :, 0] = xc.transpose(1, 2, 0)
    head = np.stack([row[:P][::-1] for row in r])  # r_c[P-1-l], l < P
    tail = np.stack([row[N - P:][::-1] for row in r])  # r_c[N-1-l]
    # one lag's block row is formed in `step`, apart from the Gram, so that
    # no operation reads and writes overlapping views (which numpy would copy)
    step, leaving = np.empty((2, C, C, P))
    for lag in range(P):
        np.multiply.outer(head[:, lag], head, out=step)
        np.multiply.outer(tail[:, lag], tail, out=leaving)
        step -= leaving
        step += gram[:, lag, :, :-1]
        gram[:, lag + 1, :, 1:] = step
    n_params = C * (P + 1)
    return gram.reshape(n_params, n_params)


def _cholesky(gram: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Overwrite the symmetric positive definite gram with its lower Cholesky
    factor L; return L (gram itself) and the inverses of L's diagonal blocks.

    Left-looking and blocked (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 4.2), panel by panel of _SOLVE_BLOCK columns: one product subtracts
    the panels already factored, the panel's diagonal block is factored and
    inverted, and one product with that inverse gives the panel below it.
    Nearly all the work is in the two products, and no copy of the Gram is
    made.  Only gram's lower triangle is read.  Raises LinAlgError if a
    diagonal block is not positive definite.
    """
    inverses = []
    for a in range(0, len(gram), _SOLVE_BLOCK):
        b = a + _SOLVE_BLOCK
        gram[a:, a:b] -= gram[a:, :a] @ gram[a:b, :a].T
        diag = np.linalg.cholesky(gram[a:b, a:b])
        inverses.append(np.linalg.inv(diag))
        gram[a:b, a:b] = diag
        gram[a:b, b:] = 0.0
        gram[b:, a:b] = gram[b:, a:b] @ inverses[-1].T
    return gram, inverses


def _cholesky_solve(chol: np.ndarray, inverses: list[np.ndarray],
                    rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs, L = chol, with the inverses of L's diagonal
    blocks as _cholesky returns them, by blocked forward and back
    substitution (Golub & Van Loan, sec. 3.1): each diagonal block's system
    is a product with its inverse, and the rest are products against rhs's
    columns, O(n^2 m) for m columns."""
    x = np.array(rhs, dtype=float)
    blocks = list(enumerate(inverses))
    for k, inverse in blocks:  # L y = rhs
        a, b = k * _SOLVE_BLOCK, (k + 1) * _SOLVE_BLOCK
        x[a:b] = inverse @ (x[a:b] - chol[a:b, :a] @ x[:a])
    for k, inverse in reversed(blocks):  # L^T x = y
        a, b = k * _SOLVE_BLOCK, (k + 1) * _SOLVE_BLOCK
        x[a:b] = inverse.T @ (x[a:b] - chol[b:, a:b].T @ x[b:])
    return x


def factor_excitation_gram(r, fir_order: int
                           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The excitation side of the T-entry regression on lags 0..fir_order
    of the excitation rows r: form the Gram (_gram), factor it (_cholesky)
    and check its rank on the factor.  Returns the factor and the inverses
    of its diagonal blocks, as _cholesky_solve takes them.  It reads r
    alone, not the node outputs.  Raises ValueError if the Gram is
    rank-deficient.
    """
    gram = _gram(r, fir_order)
    gram_diag = np.diag(gram).copy()
    try:
        chol, inverses = _cholesky(gram)
        condition = float(np.max(gram_diag / np.diag(chol) ** 2))
    except np.linalg.LinAlgError:
        condition = np.inf
    if not condition <= GRAM_CONDITION_LIMIT:
        raise ValueError(
            f"T-entry regressor is rank-deficient (Gram condition estimate "
            f"{condition:.3g} > {GRAM_CONDITION_LIMIT:.0e}); the column "
            f"excitations are not sufficiently independent")
    return chol, inverses


def check_record_length(N: int, fir_order: int, n_excitations: int) -> None:
    """Raise unless an N-sample record leaves the FIR regression on lags
    0..fir_order of n_excitations excitations at least as many rows
    (N - fir_order) as parameters."""
    if fir_order < 1:
        raise ValueError("fir_order must be at least 1")
    if N <= fir_order:
        raise ValueError(f"record too short: {N} samples <= FIR order "
                         f"{fir_order}")
    n_params = n_excitations * (fir_order + 1)
    if N - fir_order < n_params:
        raise ValueError(
            f"T-entry regressor is rank-deficient ({N - fir_order} rows < "
            f"{n_params} parameters); the record is too short for FIR order "
            f"{fir_order}")


def estimate_T_entries(record: SignalRecord, rows: Iterable[int],
                       cols: Iterable[int],
                       fir_order: int = DEFAULT_FIR_ORDER,
                       grid: FreqGrid | None = None,
                       factor: Callable[[], tuple] | None = None
                       ) -> TSubmatrixEstimate:
    """Open-loop MISO estimation of T entries from excitations to nodes.

    Each row node's signal w_k is regressed jointly on lags 0..fir_order of
    every column node's excitation r_l (ordinary least squares; the
    excitations are external and known, so this is an open-loop problem
    regardless of the network's feedback loops).

    The least-squares estimate solves the normal equations without building
    the regressor.  They split in two sides.  The excitation side,
    factor_excitation_gram, reads the excitations alone: their auto- and
    cross-correlations give the Gram (_gram), whose one Cholesky factor,
    blocked and written over the Gram (_cholesky), is both the rank check
    and the solve.  The output side forms the excitation-to-node
    correlations Phi^T w (_rhs), solves on the factor
    (_cholesky_solve) and releases it before the fit.  The fit scores come
    from the overlap-save convolution of the excitations' segment spectra
    with the estimated FIR coefficients, one segment group at a time,
    summing each row's squared error over the groups.

    factor, if given, is called in place of factor_excitation_gram on the
    columns' excitation rows, in column order, and fir_order; it must
    return that call's result or raise its error.  run_local_pipeline uses
    it to take the factor from a thread that formed it while the network
    was simulated.  It is called after every check above and after
    Phi^T w is formed.
    """
    row_nodes = node_set(rows)
    col_nodes = node_set(cols)
    if not row_nodes or not col_nodes:
        raise ValueError("rows and cols must be nonempty")
    check_record_length(record.N, fir_order, len(col_nodes))
    if grid is None:
        grid = FreqGrid.uniform(DEFAULT_GRID_POINTS)
    for c in col_nodes:
        if not np.any(record.node_excitation(c)):
            raise ValueError(
                f"column node {c} is not excited in the record; estimating "
                f"T entries requires an external excitation at every column")

    P = fir_order
    N = record.N
    r = [record.node_excitation(c) for c in col_nodes]
    w = [record.node_output(m) for m in row_nodes]
    rhs = _rhs(r, w, P)
    chol, inverses = factor_excitation_gram(r, P) if factor is None \
        else factor()
    theta = _cholesky_solve(chol, inverses, rhs)
    del chol, inverses

    coeffs = np.ascontiguousarray(
        theta.T.reshape(len(row_nodes), len(col_nodes), P + 1))
    F, B, groups = _segmentation(N, P)
    spectra = np.fft.rfft(coeffs, F)
    err2 = np.zeros(len(w))  # index P + j of segment s is y_hat[P + sB + j]
    for a, g in groups:
        R = _segment_spectra(r, a * B, g, F, B, F)
        y_hat = np.fft.irfft(np.einsum("mcf,csf->msf", spectra, R),
                             F)[..., P:].reshape(len(w), -1)
        lo, hi = P + a * B, min(P + (a + g) * B, N)
        for k, row in enumerate(w):
            d = row[lo:hi] - y_hat[k, :hi - lo]
            err2[k] += d @ d
    fits = []
    for row, e2 in zip(w, err2):
        y = row[P:]
        err = np.sqrt(e2)
        spread = np.linalg.norm(y - y.mean())
        fits.append(1.0 - err / spread if spread > 0.0 else
                    (1.0 if err == 0.0 else 0.0))

    om = grid.as_array()
    basis = np.exp(-1j * np.outer(om, np.arange(P + 1)))  # (K, P+1)
    values = (basis @ coeffs.reshape(-1, P + 1).T).reshape(
        len(om), len(row_nodes), len(col_nodes))
    freq = FreqResponseMatrix(rows=row_nodes, cols=col_nodes, grid=grid,
                              values=values)
    return TSubmatrixEstimate(freq=freq, coefficients=coeffs,
                              fit_scores=tuple(float(f) for f in fits),
                              fir_order=P)


@dataclass(frozen=True, eq=False)
class LocalSolveResult:
    """Per-frequency module responses recovered by a local solve.

    modules[k] = (to_node, from_node) labels column k of samples; grid holds
    the retained frequency points (ill-conditioned points are dropped).
    """

    modules: tuple[tuple[int, int], ...]
    grid: FreqGrid
    samples: np.ndarray  # (n_kept_points, n_modules) complex
    dropped_points: int
    total_points: int
    max_condition: float

    def module_samples(self, to_node: int, from_node: int) -> np.ndarray:
        k = self.modules.index((to_node, from_node))
        return self.samples[:, k]


def _solve_filtered(A: np.ndarray, B: np.ndarray, grid: FreqGrid,
                    modules: tuple[tuple[int, int], ...],
                    side_label: str) -> LocalSolveResult:
    """Per-frequency solve of A[k] x = B[k] for the samples of `modules`,
    dropping ill-conditioned points."""
    conds = np.linalg.cond(A)
    keep = np.isfinite(conds) & (conds <= CONDITION_LIMIT)
    dropped = int(np.count_nonzero(~keep))
    total = len(grid)
    if dropped > MAX_DROP_FRACTION * total:
        raise ValueError(
            f"{side_label} solve is ill-conditioned at {dropped} of {total} "
            f"grid points (limit {MAX_DROP_FRACTION:.0%}); the invertibility "
            f"premise of the local method fails for this experiment")
    X = np.linalg.solve(A[keep], B[keep])
    return LocalSolveResult(
        modules=modules, grid=FreqGrid(grid.as_array()[keep]),
        samples=X[..., 0], dropped_points=dropped, total_points=total,
        max_condition=float(conds[keep].max()) if np.any(keep) else 0.0)


def solve_source_side(tmat: FreqResponseMatrix, source: int,
                      out_neighbors: Iterable[int]) -> LocalSolveResult:
    """Recover all modules leaving `source` from T entries.

    At each grid frequency solves T[N+, N+] x = T[N+, source] for
    x = G[N+, source], where N+ = out_neighbors.
    """
    nbrs = node_set(out_neighbors)
    if not nbrs:
        raise ValueError(f"source node {source} has no out-neighbors")
    return _solve_filtered(tmat.submatrix(nbrs, nbrs),
                           tmat.submatrix(nbrs, (source,)), tmat.grid,
                           tuple((m, source) for m in nbrs), "source-side")


def solve_sink_side(tmat: FreqResponseMatrix, sink: int,
                    in_neighbors: Iterable[int]) -> LocalSolveResult:
    """Recover all modules entering `sink` from T entries.

    At each grid frequency solves the row system
    x T[N-, N-] = T[sink, N-] for x = G[sink, N-], where N- = in_neighbors,
    as its transpose T[N-, N-]^T x^T = T[sink, N-]^T.
    """
    nbrs = node_set(in_neighbors)
    if not nbrs:
        raise ValueError(f"sink node {sink} has no in-neighbors")
    return _solve_filtered(tmat.submatrix(nbrs, nbrs).transpose(0, 2, 1),
                           tmat.submatrix((sink,), nbrs).transpose(0, 2, 1),
                           tmat.grid, tuple((sink, k) for k in nbrs),
                           "sink-side")


def fit_parametric(samples: np.ndarray, band: tuple[int, int],
                   grid: FreqGrid | None = None) -> np.ndarray:
    """Fit band coefficients theta to complex samples g(omega) by minimizing
    sum_omega |sum_d theta_d e^{-j d omega} - g(omega)|^2; returns theta,
    in ascending delay over the band.

    The complex residual is stacked into real and imaginary parts, making
    this an ordinary real least-squares problem with real-valued theta.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-D complex sequence")
    d0, d1 = int(band[0]), int(band[1])
    if not (0 <= d0 <= d1):
        raise ValueError(f"band {(d0, d1)} invalid: need 0 <= first <= last")
    n_params = d1 - d0 + 1
    if grid is None:
        grid = FreqGrid.uniform(samples.size)
    if len(grid) != samples.size:
        raise ValueError(f"grid has {len(grid)} points but samples has "
                         f"{samples.size}")
    if samples.size < n_params:
        raise ValueError(f"under-determined fit: {samples.size} samples for "
                         f"{n_params} parameters")
    om = grid.as_array()
    E = np.exp(-1j * np.outer(om, np.arange(d0, d1 + 1)))  # (K, D)
    A = np.vstack([E.real, E.imag])
    y = np.concatenate([samples.real, samples.imag])
    return np.linalg.lstsq(A, y, rcond=None)[0]
