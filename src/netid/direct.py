"""Direct prediction-error identification of one node's incoming modules.

Node j's equation w_j = sum_k G_jk w_k + r_j + v_j is treated as a MISO
regression of y(t) = w_j(t) - r_j(t) on delayed in-neighbor signals.  With
FIR module parametrizations and a unit noise model (output-error-like
structure, H = 1), the prediction-error estimate is an ordinary linear
least-squares solution - no iterative optimization.

Closed-loop informativity is diagnosed numerically: the condition number of
the sample Gram matrix of the regressor, read off the singular values of the
least-squares solve.  A rank-deficient experiment (for example, exciting
only nodes whose responses move the regressors inside a common subspace)
produces a huge condition number; estimates are then reported from the
minimum-norm solution and flagged non-informative rather than rejected,
since divergent estimates are themselves informative output for Monte-Carlo
studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkModel, SignalRecord

#: Gram condition number above which an experiment is flagged non-informative.
INFORMATIVITY_THRESHOLD = 1e6


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
        if min(self.target_node, *self.regressor_nodes) < 1:
            raise ValueError("node indices are 1-based")
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


def build_regressor(record: SignalRecord,
                    structure: DirectModelStructure) -> tuple[np.ndarray, np.ndarray]:
    """Regression matrix and target: rows t = max_delay .. N-1.

    Column order is (edge order) x (ascending delay within the band); the
    target is y(t) = w_j(t) - r_j(t), the part of node j's signal explained
    by its in-neighbors and the disturbance.
    """
    N = record.N
    structure.check_record_length(N)
    maxd = structure.max_delay
    rows = N - maxd
    cols = []
    for node, (d0, d1) in zip(structure.regressor_nodes, structure.bands):
        wk = record.node_output(node)
        for d in range(d0, d1 + 1):
            cols.append(wk[maxd - d:N - d])
    Phi = np.stack(cols, axis=1) if cols else np.zeros((rows, 0))
    j = structure.target_node
    y = (record.node_output(j) - record.node_excitation(j))[maxd:]
    return Phi, y


@dataclass(frozen=True)
class DirectEstimate:
    """Least-squares estimate with conditioning diagnostics."""

    structure: DirectModelStructure
    theta_hat: np.ndarray
    gram_condition: float
    residual_variance: float
    informative: bool

    def coefficients_for(self, node: int) -> np.ndarray:
        """Estimated FIR band coefficients of the module from `node`."""
        k = self.structure.regressor_nodes.index(node)
        return self.theta_hat[self.structure.slices()[k]]


def estimate_direct(record: SignalRecord,
                    structure: DirectModelStructure) -> DirectEstimate:
    """Prediction-error estimate of all modules into the target node.

    The minimizer of the squared prediction error is computed by SVD-based
    least squares, which returns the minimum-norm solution when the normal
    equations are rank-deficient; the informativity verdict (Gram condition
    number against the threshold) tells the two situations apart.  The
    Gram matrix Phi'Phi/n has eigenvalues s**2/n for the singular values s
    of Phi that the solve returns, so its condition is (s[0]/s[-1])**2.
    """
    Phi, y = build_regressor(record, structure)
    theta, _, _, s = np.linalg.lstsq(Phi, y, rcond=None)
    resid = y - Phi @ theta
    cond = np.inf
    if s.size == Phi.shape[1] and s[-1] > 0.0:
        with np.errstate(over="ignore"):
            cond = float((s[0] / s[-1]) ** 2)
    return DirectEstimate(
        structure=structure,
        theta_hat=theta,
        gram_condition=cond,
        residual_variance=float(resid @ resid / resid.size),
        informative=bool(cond < INFORMATIVITY_THRESHOLD),
    )
