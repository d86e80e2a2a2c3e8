"""Shared fixtures: reference models and a random stable-network generator."""

from __future__ import annotations

import numpy as np
import pytest

from netid import NetworkModel, RationalTF, build_case_study


@pytest.fixture(scope="session")
def case_study() -> NetworkModel:
    return build_case_study()


@pytest.fixture()
def two_node_chain() -> NetworkModel:
    """w2 driven by w1 through a unit delay; no feedback."""
    return NetworkModel(2, {(2, 1): RationalTF([0.0, 1.0])})


def make_two_node_loop(g12: float, g21: float, delay: int = 1) -> NetworkModel:
    """Two nodes in a delayed cycle with scalar gains on each leg."""
    num12 = [0.0] * delay + [g12]
    num21 = [0.0] * delay + [g21]
    return NetworkModel(2, {(1, 2): RationalTF(num12),
                            (2, 1): RationalTF(num21)})


def random_stable_network(rng: np.random.Generator) -> NetworkModel:
    """Random FIR network with every module strictly delayed, scaled so the
    row-sum gain is below 1 (small-gain argument => internally stable and
    (I - G) invertible on the unit circle, independent of any package code).
    """
    L = int(rng.integers(3, 6))
    edges = {}
    for j in range(1, L + 1):
        for i in range(1, L + 1):
            if i == j or rng.random() > 0.45:
                continue
            n_coeffs = int(rng.integers(1, 4))
            coeffs = rng.uniform(-1.0, 1.0, size=n_coeffs)
            coeffs[rng.integers(0, n_coeffs)] = rng.choice([-1.0, 1.0]) * \
                rng.uniform(0.5, 1.0)  # keep the module clearly nonzero
            edges[(j, i)] = np.concatenate([[0.0], coeffs])
    if not edges:
        edges[(2, 1)] = np.array([0.0, 0.8])
    row_gain = np.zeros(L)
    for (j, _), num in edges.items():
        row_gain[j - 1] += np.abs(num).sum()
    scale = 0.6 / max(row_gain.max(), 1e-9)
    if scale < 1.0:
        edges = {k: v * scale for k, v in edges.items()}
    return NetworkModel(L, {k: RationalTF(v) for k, v in edges.items()})


def random_rational_network(rng: np.random.Generator) -> NetworkModel:
    """Random network with the module kinds of the case study that
    random_stable_network lacks: first-order rational modules and zero-delay
    feedthrough, mixed with FIR ones.  Each module's H-infinity gain is
    bounded by sum|b| / (1 - |p|), and the row sums of those bounds are
    scaled below 1, so the network is internally stable and I - D0 is
    invertible by the small-gain argument.
    """
    L = int(rng.integers(3, 6))
    modules = {}
    for j in range(1, L + 1):
        for i in range(1, L + 1):
            if i == j or rng.random() > 0.5:
                continue
            kind = rng.integers(3)
            b = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)))
            if kind == 0:    # strictly delayed FIR
                b = np.concatenate([[0.0], b])
            pole = rng.uniform(-0.8, 0.8) if kind < 2 else 0.0
            modules[(j, i)] = (b, pole)
    if not modules:
        modules[(2, 1)] = (np.array([0.3, 0.5]), 0.5)
    row_gain = np.zeros(L)
    for (j, _), (b, pole) in modules.items():
        row_gain[j - 1] += np.abs(b).sum() / (1.0 - abs(pole))
    scale = 0.8 / max(row_gain.max(), 1e-9)
    edges = {}
    for (j, i), (b, pole) in modules.items():
        den = [1.0, -pole] if pole else [1.0]
        edges[(j, i)] = RationalTF(b * min(scale, 1.0), den)
    return NetworkModel(L, edges)
