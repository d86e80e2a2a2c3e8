"""Direct prediction-error identification of one node's incoming modules.

Node j's equation w_j = sum_k G_jk w_k + r_j + v_j is treated as a MISO
regression of y(t) = w_j(t) - r_j(t) on delayed in-neighbor signals.  With
FIR module parametrizations and a unit noise model (output-error-like
structure, H = 1), the prediction-error estimate is an ordinary linear
least-squares solution - no iterative optimization.

That least-squares problem is solved on a QR factor streamed over row
blocks of the regressor and reduced in a flat tree (tall-skinny QR: Demmel,
Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012), which holds
one block and one (n+1)^2 triangle per block for n parameters, not an array
as long as the record: 25 KB for the case study's node 3 at 1e5 samples.

Closed-loop informativity is diagnosed numerically: the condition number of
the sample Gram matrix of the regressor, read off the singular values of the
streamed QR factor.  A rank-deficient experiment (for example, exciting
only nodes whose responses move the regressors inside a common subspace)
produces a huge condition number; estimates are then reported from the
minimum-norm solution and flagged non-informative rather than rejected,
since divergent estimates are themselves informative output for Monte-Carlo
studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkModel, SignalRecord, node_set

#: Gram condition number above which an experiment is flagged non-informative.
INFORMATIVITY_THRESHOLD = 1e6

#: Regressor rows per block of the streamed QR factor.
_ROW_BLOCK = 2048


@dataclass(frozen=True)
class DirectModelStructure:
    """Regression structure for one target node.

    bands[k] = (first_delay, last_delay) gives the FIR band estimated for
    the module from regressor_nodes[k] into target_node: coefficients for
    q^-first .. q^-last inclusive.  The noise model is fixed to H = 1.
    """

    target_node: int
    regressor_nodes: tuple[int, ...]
    bands: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.regressor_nodes:
            raise ValueError("at least one regressor node is required")
        node_set((self.target_node, *self.regressor_nodes))  # raises below 1
        if len(self.bands) != len(self.regressor_nodes):
            raise ValueError("one (first_delay, last_delay) band per regressor node")
        for node, (d0, d1) in zip(self.regressor_nodes, self.bands):
            if node == self.target_node:
                raise ValueError("target node cannot regress on itself")
            if not (0 <= d0 <= d1):
                raise ValueError(f"band {(d0, d1)} for node {node} invalid: "
                                 "need 0 <= first_delay <= last_delay")

    @classmethod
    def from_model(cls, model: NetworkModel, target_node: int) -> DirectModelStructure:
        """Known-structure setup: regressors are the in-neighbors of the target,
        each with the band of its true FIR module (full-order parametrization).

        Requires every incoming module to be FIR; rational modules would make
        the prediction error nonlinear in the parameters.
        """
        nbrs = model.in_neighbors(target_node)
        if not nbrs:
            raise ValueError(f"node {target_node} has no in-neighbors")
        return cls(target_node=target_node, regressor_nodes=nbrs,
                   bands=tuple(model.fir_band(target_node, k) for k in nbrs))

    @property
    def max_delay(self) -> int:
        return max(d1 for _, d1 in self.bands)

    def check_record_length(self, N: int) -> None:
        """Raise unless an N-sample record leaves the regressor a row."""
        if N <= self.max_delay:
            raise ValueError(f"record too short: {N} samples <= max delay "
                             f"{self.max_delay}")

    def slices(self) -> tuple[slice, ...]:
        """Parameter-vector slice for each regressor edge, in band order."""
        out, pos = [], 0
        for d0, d1 in self.bands:
            width = d1 - d0 + 1
            out.append(slice(pos, pos + width))
            pos += width
        return tuple(out)


def build_regressor(record: SignalRecord, structure: DirectModelStructure,
                    start: int = 0,
                    stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Regression matrix and target: rows t = max_delay .. N-1, or rows
    start .. stop-1 of that window.

    Column order is (edge order) x (ascending delay within the band); the
    target is y(t) = w_j(t) - r_j(t), the part of node j's signal explained
    by its in-neighbors and the disturbance.
    """
    structure.check_record_length(record.N)
    maxd = structure.max_delay
    rows = record.N - maxd
    lo, hi = maxd + start, maxd + (rows if stop is None else min(stop, rows))
    cols = []
    for node, (d0, d1) in zip(structure.regressor_nodes, structure.bands):
        wk = record.node_output(node)
        for d in range(d0, d1 + 1):
            cols.append(wk[lo - d:hi - d])
    Phi = np.array(cols).T  # column-major: one contiguous copy per column
    j = structure.target_node
    y = record.node_output(j)[lo:hi] - record.node_excitation(j)[lo:hi]
    return Phi, y


@dataclass(frozen=True)
class DirectEstimate:
    """Least-squares estimate with conditioning diagnostics."""

    structure: DirectModelStructure
    theta_hat: np.ndarray
    gram_condition: float
    informative: bool

    def coefficients_for(self, node: int) -> np.ndarray:
        """Estimated FIR band coefficients of the module from `node`."""
        k = self.structure.regressor_nodes.index(node)
        return self.theta_hat[self.structure.slices()[k]]


def estimate_direct(record: SignalRecord,
                    structure: DirectModelStructure) -> DirectEstimate:
    """Prediction-error estimate of all modules into the target node.

    [Phi y] = Q R is factored in a flat tree: each _ROW_BLOCK-row block is
    factored on its own, and the stack of the block triangles once.  Q has
    orthonormal columns, so |Phi theta - y| = |R[:, :n] theta - R[:, n]|
    and Phi has the singular values s of R[:, :n] (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 5.3).  SVD-based least squares on
    the triangle, with the rank cut lstsq would apply to Phi, returns the
    minimum-norm solution when the normal equations are rank-deficient; the
    informativity verdict (Gram condition number against the threshold)
    tells the two situations apart.  The Gram matrix Phi'Phi/rows has
    eigenvalues s**2/rows, so its condition is (s[0]/s[-1])**2, and
    infinite with fewer rows than parameters.
    """
    structure.check_record_length(record.N)
    rows = record.N - structure.max_delay
    n = structure.slices()[-1].stop
    triangles = []
    for start in range(0, rows, _ROW_BLOCK):
        Phi, y = build_regressor(record, structure, start, start + _ROW_BLOCK)
        triangles.append(np.linalg.qr(np.column_stack((Phi, y)), mode="r"))
    R = np.linalg.qr(np.vstack(triangles), mode="r")
    theta, _, _, s = np.linalg.lstsq(R[:, :n], R[:, n],
                                     rcond=np.finfo(float).eps * max(rows, n))
    cond = np.inf
    if s.size == n and s[-1] > 0.0:
        with np.errstate(over="ignore"):
            cond = float((s[0] / s[-1]) ** 2)
    return DirectEstimate(
        structure=structure,
        theta_hat=theta,
        gram_condition=cond,
        informative=bool(cond < INFORMATIVITY_THRESHOLD),
    )
