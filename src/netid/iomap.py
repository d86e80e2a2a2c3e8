"""Exact input-output map of a network and its stability verdict.

true_T samples T(q) = (I - G(q))^-1 on a frequency grid by dense linear
solves: the ground truth for the local method's solves and for estimator
tests.  is_internally_stable decides whether the network is internally
stable from the spectral radius of the state-space realization that the
model caches and the simulator steps (see NetworkModel.realization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkModel, _check_node
from .tf import FreqGrid, STABILITY_MARGIN


@dataclass(frozen=True)
class FreqResponseMatrix:
    """Complex samples of a transfer matrix on a grid: values[k, r, c] is the
    (rows[r], cols[c]) entry at grid omega index k.  Node labels are 1-based."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    grid: FreqGrid
    values: np.ndarray

    def __post_init__(self):
        expect = (len(self.grid), len(self.rows), len(self.cols))
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    def submatrix(self, rows, cols) -> np.ndarray:
        """(n_grid, len(rows), len(cols)) array for the given node subsets."""
        ri = [self.rows.index(j) for j in rows]
        ci = [self.cols.index(i) for i in cols]
        return self.values[np.ix_(range(len(self.grid)), ri, ci)]


def true_T(model: NetworkModel, rows, cols, grid: FreqGrid) -> FreqResponseMatrix:
    """Sample T = (I - G)^-1 exactly on a grid, restricted to rows x cols.

    Evaluates G entrywise at each grid frequency and solves the dense
    (I - G) X = E_cols system.  Raises ValueError naming the first grid
    frequency where (I - G) is singular.
    """
    rows = tuple(int(j) for j in rows)
    cols = tuple(int(i) for i in cols)
    for n in rows + cols:
        _check_node(n, model.L)
    om = grid.as_array()
    A = np.eye(model.L) - model.eval_G(om)          # (K, L, L)
    rhs = np.eye(model.L)[:, [i - 1 for i in cols]]
    try:
        X = np.linalg.solve(A, np.broadcast_to(rhs, (len(om),) + rhs.shape))
    except np.linalg.LinAlgError:
        dets = np.linalg.det(A)
        k = int(np.argmin(np.abs(dets)))
        raise ValueError(f"(I - G) singular at omega = {om[k]!r}") from None
    values = X[:, [j - 1 for j in rows], :]
    return FreqResponseMatrix(rows=rows, cols=cols, grid=grid, values=values)


def is_internally_stable(model: NetworkModel) -> bool:
    """True iff the spectral radius of A in model.realization is below
    1 - STABILITY_MARGIN; a network without states is stable.

    A is what the simulator steps: the module chains closed through the
    static interconnection (I - D0)^-1.  Internal stability of such an
    interconnection is stability of A (Zhou, Doyle & Glover, Robust and
    Optimal Control, 1996), so the verdict covers every mode, hidden ones
    included.  It differs from the input-output verdict (the poles of T)
    only where a module's numerator cancels an unstable pole of its own
    denominator: A keeps that pole, T does not show it.
    """
    A = model.realization[0]
    if A.size == 0:
        return True
    return bool(np.abs(np.linalg.eigvals(A)).max() < 1.0 - STABILITY_MARGIN)
