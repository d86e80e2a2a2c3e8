"""Network data model: L nodes, directed edges carrying rational transfer functions.

The network equation is w(t) = G(q) w(t) + r(t) + v(t), where G is an L x L
hollow matrix of transfer functions in q^-1, r collects known external
excitations and v unmeasured disturbances.  Edges are stored sparsely as a
map (j, i) -> transfer function for the module from node i to node j.

Node indices are 1-based in every user-facing interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .tf import RationalTF

# (I - D0) with condition number above this is treated as singular, where D0
# is the zero-delay (feedthrough) coefficient matrix.
_WELLPOSED_COND_LIMIT = 1e12


def _check_node(n: int, L: int) -> None:
    if not (1 <= n <= L):
        raise ValueError(f"node {n} outside 1..{L}")


def node_set(nodes) -> tuple[int, ...]:
    """Node indices as a sorted tuple without duplicates; raises for an
    index below 1."""
    out = tuple(sorted({int(n) for n in nodes}))
    if out and out[0] < 1:
        raise ValueError("node indices are 1-based and must be >= 1")
    return out


def _realize(model):
    """(A, B, C, D) as NetworkModel.realization describes them."""
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


class NetworkFormatError(ValueError):
    """Raised for malformed network files, with the offending line number."""


def _check_edge(L: int, j: int, i: int, tf: RationalTF) -> None:
    """Raise unless (j, i) -> tf may be an edge of an L-node network."""
    if not (1 <= j <= L and 1 <= i <= L):
        raise ValueError(f"edge ({j},{i}) outside node range 1..{L}")
    if j == i:
        raise ValueError(f"diagonal entry ({j},{i}) forbidden: "
                         "the network matrix is hollow")
    if tf.is_zero:
        raise ValueError(f"edge ({j},{i}) is identically zero; "
                         "omit it instead")


class NetworkModel:
    """Immutable sparse network matrix with topology queries.

    Parameters
    ----------
    L : int
        Node count.
    edges : mapping (j, i) -> RationalTF
        Module from node i to node j; any other value raises TypeError.
        Diagonal entries are forbidden (the network matrix is hollow) and
        identically-zero modules are rejected: absence of an edge is the
        only representation of "no module".
        Zero-delay cycles are allowed while (I - D0) is invertible, with D0
        the zero-delay coefficient matrix; otherwise construction fails.
    """

    def __init__(self, L: int, edges):
        if L < 1:
            raise ValueError("node count must be >= 1")
        clean: dict[tuple[int, int], RationalTF] = {}
        for (j, i), tf in dict(edges).items():
            j, i = int(j), int(i)
            if not isinstance(tf, RationalTF):
                raise TypeError(f"edge ({j},{i}) is a {type(tf).__name__}, "
                                f"not a RationalTF")
            _check_edge(L, j, i, tf)
            clean[(j, i)] = tf
        self._L = L
        self._edges = clean
        self._ins: dict[int, tuple[int, ...]] = {}
        self._outs: dict[int, tuple[int, ...]] = {}
        for (j, i) in sorted(clean):
            self._ins[j] = self._ins.get(j, ()) + (i,)
            self._outs[i] = self._outs.get(i, ()) + (j,)

        d0 = self.feedthrough_matrix()
        cond = np.linalg.cond(np.eye(L) - d0)
        if not np.isfinite(cond) or cond > _WELLPOSED_COND_LIMIT:
            raise ValueError("network is ill-posed: (I - D0) is singular, "
                             "where D0 is the zero-delay coefficient matrix")

    # -- basic accessors -------------------------------------------------------

    @property
    def L(self) -> int:
        return self._L

    def edge(self, j: int, i: int) -> RationalTF:
        try:
            return self._edges[(j, i)]
        except KeyError:
            raise KeyError(f"no edge from node {i} to node {j}") from None

    def has_edge(self, j: int, i: int) -> bool:
        return (j, i) in self._edges

    def fir_band(self, j: int, i: int) -> tuple[int, int]:
        """(first, last) delay of FIR module (j, i)'s numerator, the band its
        estimators parametrize; raises for a rational module, whose impulse
        response has no finite band."""
        tf = self.edge(j, i)
        if tf.den.degree > 0:
            raise ValueError(f"module ({j},{i}) is rational; the estimators "
                             f"fit FIR modules only")
        return tf.relative_degree, tf.num.degree

    def edge_items(self):
        """Edges as a sorted tuple of ((j, i), tf) pairs (deterministic order)."""
        return tuple(sorted(self._edges.items()))

    # -- topology --------------------------------------------------------------

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        """Nodes i with an edge i -> j."""
        _check_node(j, self._L)
        return self._ins.get(j, ())

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Nodes j with an edge i -> j."""
        _check_node(i, self._L)
        return self._outs.get(i, ())

    # -- matrices ----------------------------------------------------------------

    @cached_property
    def realization(self) -> tuple[np.ndarray, ...]:
        """State-space realization (A, B, C, D) of the network, read-only and
        built on first use.  With input u = r + v of shape (L, N), an edge
        i -> j with transfer function B/A in q^-1, A = 1 + a_1 q^-1 + ...,
        gives y(t) = b0 w_i(t) + s(t), with s = sum_k (b_k - b0 a_k) q^-k / A
        applied to w_i.  Node equations w = sum_in y + u give
        (I - D0) w = c + u, with D0 the zero-delay coefficients and c_j the
        sum of s over the edges into j.

        c_j is realized in observer canonical form with one chain per (node
        j, denominator A), shared by the edges into j with that denominator.
        The chain's order k is the largest among its members; its Ax block
        is the shift eye(k, k=1) with -a_1..-a_k in the first column, each
        member's strictly proper numerator b_k - b0 a_k fills the member's
        source column of Bx, and Cx[j, chain start] = 1.  Observer forms
        with one (Ax, Cx) add by adding their Bx columns, so the chain's
        output is exactly the members' sum of s (Kailath, Linear Systems,
        1980).  Static edges own no states.  On the case study, the FIR
        edges into each node share the chain of A = 1, which gives 35
        states against 57 for a chain per edge.  Substituting
        w = M (c + u), M = (I - D0)^-1, into x(t+1) = Ax x + Bx w and
        c = Cx x gives
          x(t+1) = A x(t) + B u(t),  w(t) = C x(t) + D u(t),
          A = Ax + Bx M Cx,  B = Bx M,  C = M Cx,  D = M.
        """
        arrays = _realize(self)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def feedthrough_matrix(self) -> np.ndarray:
        """Zero-delay coefficient matrix D0 (L x L dense)."""
        d0 = np.zeros((self._L, self._L))
        for (j, i), tf in self._edges.items():
            d0[j - 1, i - 1] = tf.feedthrough()
        return d0

    def eval_G(self, omega) -> np.ndarray:
        """Dense G(e^{j*omega}); omega scalar -> (L, L), array -> (n, L, L)."""
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        G = np.zeros((om.size, self._L, self._L), dtype=complex)
        for (j, i), tf in self._edges.items():
            G[:, j - 1, i - 1] = tf.eval_at(om)
        return G if np.ndim(omega) else G[0]

    # -- equality ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return self._L == other._L and self._edges == other._edges

    def __repr__(self) -> str:
        return f"NetworkModel(L={self._L}, edges={len(self._edges)})"


@dataclass(frozen=True)
class ExcitationSpec:
    """What to excite and for how long.

    excited_nodes receive independent zero-mean Gaussian white excitation r
    of variance r_variance; every node receives an independent Gaussian
    white disturbance v of variance v_variance.  N is the sample count and
    seed the PRNG seed (see netid.sim for the documented generator).
    """

    excited_nodes: tuple[int, ...]
    N: int
    seed: int
    r_variance: float = 1.0
    v_variance: float = 1e-6

    def __post_init__(self):
        nodes = node_set(self.excited_nodes)
        if self.N < 1:
            raise ValueError("sample count must be >= 1")
        if self.r_variance < 0 or self.v_variance < 0:
            raise ValueError("variances must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, value in (("excited_nodes", nodes), ("N", int(self.N)),
                            ("seed", int(self.seed)),
                            ("r_variance", float(self.r_variance)),
                            ("v_variance", float(self.v_variance))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SignalRecord:
    """Node outputs w (L x N) and the excitations of the excited nodes.

    excited is the sorted tuple of the nodes whose excitation is kept, and
    r holds their rows in that order, (len(excited), N).  Every other node's
    excitation is zero and takes no memory.  The disturbance v is not kept:
    no estimator reads it.
    """

    w: np.ndarray
    r: np.ndarray
    excited: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.w.ndim != 2:
            raise ValueError(f"w must be (L, N), got shape {self.w.shape}")
        excited = tuple(int(n) for n in self.excited)
        if excited != node_set(excited):
            raise ValueError(f"excited nodes {excited} must be sorted and "
                             f"distinct")
        if excited:
            _check_node(excited[-1], self.L)
        if self.r.shape != (len(excited), self.N):
            raise ValueError(f"r must be ({len(excited)}, {self.N}), one row "
                             f"per excited node, got shape {self.r.shape}")
        object.__setattr__(self, "excited", excited)

    @property
    def L(self) -> int:
        return self.w.shape[0]

    @property
    def N(self) -> int:
        return self.w.shape[1]

    def node_output(self, j: int) -> np.ndarray:
        _check_node(j, self.L)
        return self.w[j - 1]

    def node_excitation(self, i: int) -> np.ndarray:
        """Node i's excitation; for an unexcited node, a read-only row of
        zeros that uses no memory."""
        _check_node(i, self.L)
        if i in self.excited:
            return self.r[self.excited.index(i)]
        return np.broadcast_to(0.0, (self.N,))


# -- network file format --------------------------------------------------------
#
#   # comment lines and blank lines are ignored
#   nodes <L>
#   <j> <i> <num coefficients...> / <den coefficients...>
#
# Coefficients are decimal literals written with full round-trip precision
# (shortest decimal that parses back to the identical double), which
# preserves at least the 8 significant digits of the shipped benchmark
# coefficients exactly.


def save_network(model: NetworkModel, path) -> None:
    lines = ["# netid network file", f"nodes {model.L}"]
    for (j, i), tf in model.edge_items():
        num = " ".join(repr(c) for c in tf.num.coeffs)
        den = " ".join(repr(c) for c in tf.den.coeffs)
        lines.append(f"{j} {i} {num} / {den}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> NetworkModel:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    L = None
    edges: dict[tuple[int, int], RationalTF] = {}
    for ln, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if L is None:
            parts = text.split()
            if len(parts) != 2 or parts[0] != "nodes":
                raise NetworkFormatError(
                    f"{path}:{ln}: expected header 'nodes <L>', got {text!r}")
            try:
                L = int(parts[1])
            except ValueError:
                raise NetworkFormatError(
                    f"{path}:{ln}: node count {parts[1]!r} is not an integer") from None
            if L < 1:
                raise NetworkFormatError(f"{path}:{ln}: node count must be >= 1")
            continue
        if "/" not in text:
            raise NetworkFormatError(
                f"{path}:{ln}: edge record needs a '/' between numerator "
                f"and denominator coefficients")
        head, _, tail = text.partition("/")
        fields = head.split()
        if len(fields) < 3:
            raise NetworkFormatError(
                f"{path}:{ln}: expected '<j> <i> <num coeffs> / <den coeffs>'")
        try:
            j, i = int(fields[0]), int(fields[1])
            num = [float(c) for c in fields[2:]]
            den = [float(c) for c in tail.split()]
        except ValueError as exc:
            raise NetworkFormatError(f"{path}:{ln}: {exc}") from None
        if not den:
            raise NetworkFormatError(f"{path}:{ln}: empty denominator")
        if (j, i) in edges:
            raise NetworkFormatError(f"{path}:{ln}: duplicate edge ({j},{i})")
        try:
            edges[(j, i)] = RationalTF(num, den)
            _check_edge(L, j, i, edges[(j, i)])
        except ValueError as exc:
            raise NetworkFormatError(f"{path}:{ln}: {exc}") from None
    if L is None:
        raise NetworkFormatError(f"{path}: empty file (no 'nodes' header)")
    try:
        return NetworkModel(L, edges)
    except ValueError as exc:  # a rule on the whole network: (I - D0)
        raise NetworkFormatError(f"{path}: {exc}") from None


def default_network_file() -> Path:
    """Path of the 20-node case-study network shipped with the package."""
    return Path(__file__).parent / "data" / "case_study_20.net"


def build_case_study() -> NetworkModel:
    """The 20-node case-study network, loaded from its shipped file; its
    module of interest is (3, 4): G_34 = -0.3 q^-1 + 0.8 q^-2."""
    return load_network(default_network_file())
