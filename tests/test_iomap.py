"""Exact network response T, impulse oracles, and internal stability."""

import numpy as np
import pytest

from netid import (FreqGrid, FreqResponseMatrix, NetworkModel, RationalTF,
                   is_internally_stable, true_T)

from conftest import (make_two_node_loop, random_rational_network,
                      random_stable_network)
from oracles import (impulse_response, reference_is_internally_stable,
                     true_T_impulse)


def entry(fm: FreqResponseMatrix, j: int, i: int) -> np.ndarray:
    """Samples of fm's (j, i) entry across the grid."""
    return fm.submatrix((j,), (i,))[:, 0, 0]

# Frozen by tools/make_fixtures.py (independent parser, plain-numpy math).
T_AT_OMEGA0 = {
    (3, 3): 1.326726292537718,
    (3, 4): 0.3267262925377178,
    (3, 5): -0.6749695831428526,
    (3, 6): -0.05217329006028262,
    (5, 3): 0.6348259075964309,
    (5, 4): 0.6348259075964309,
    (5, 5): 0.6343132824790517,
    (5, 6): -0.01577081341965733,
    (6, 3): -0.04024215660194776,
    (6, 4): -0.04024215660194776,
    (6, 5): -0.007697170742536449,
    (6, 6): 1.0012402481529827,
}

IMPULSE_HEAD = {
    (3, 4): (
        -0.005865072417110597,
        -0.3253545958255476,
        0.6548685371199161,
        0.03284429870295214,
        -0.44857377503062335,
        0.44700726117869305,
        0.14023707230312066,
        -0.4602016956974039,
    ),
    (5, 4): (
        0.0007288329006988454,
        0.4964589680755426,
        -0.011896152790470052,
        -0.18448400603631582,
        0.33425963643071044,
        0.026546051331287783,
        -0.24082105432719242,
        0.22563421127250366,
    ),
    (6, 4): (
        -0.039918371529872626,
        5.5681032420505134e-05,
        0.024183662635746922,
        -0.026773881992711492,
        -0.006215695789316665,
        0.025600290427093976,
        -0.017209372029619342,
        -0.011550984326773678,
    ),
}


class TestFreqResponseMatrix:
    def test_entry_and_submatrix_indexing(self):
        grid = FreqGrid.uniform(4)
        values = np.arange(4 * 2 * 3, dtype=complex).reshape(4, 2, 3)
        fm = FreqResponseMatrix(rows=(3, 5), cols=(3, 4, 5), grid=grid,
                                values=values)
        assert np.array_equal(entry(fm, 5, 4), values[:, 1, 1])
        sub = fm.submatrix((5,), (3, 5))
        assert sub.shape == (4, 1, 2)
        assert np.array_equal(sub[:, 0, 0], values[:, 1, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            FreqResponseMatrix(rows=(1,), cols=(1,), grid=FreqGrid.uniform(3),
                               values=np.zeros((2, 1, 1), dtype=complex))


class TestTrueT:
    def test_identity_when_no_edges(self):
        m = NetworkModel(3, {})
        fm = true_T(m, (1, 2, 3), (1, 2, 3), FreqGrid.uniform(5))
        expect = np.broadcast_to(np.eye(3), (5, 3, 3))
        assert np.allclose(fm.values, expect)

    def test_two_node_loop_closed_form(self):
        a, b = 0.4, 0.3
        m = make_two_node_loop(a, b)
        grid = FreqGrid.uniform(16)
        fm = true_T(m, (1, 2), (1, 2), grid)
        x = np.exp(-1j * grid.as_array())
        det = 1.0 - a * b * x ** 2
        assert np.allclose(entry(fm, 1, 1), 1.0 / det, atol=1e-13)
        assert np.allclose(entry(fm, 1, 2), a * x / det, atol=1e-13)
        assert np.allclose(entry(fm, 2, 1), b * x / det, atol=1e-13)

    def test_case_study_omega_zero_matches_fixture(self, case_study):
        fm = true_T(case_study, (3, 5, 6), (3, 4, 5, 6), FreqGrid.uniform(100))
        for (j, i), expect in T_AT_OMEGA0.items():
            got = entry(fm, j, i)[0]
            assert abs(got - expect) < 1e-12, (j, i)
            assert abs(got.imag) < 1e-14

    def test_conjugate_symmetry(self, case_study):
        fm = true_T(case_study, (3, 5, 6), (3, 4, 5, 6), FreqGrid.uniform(10))
        assert np.allclose(fm.values[1:], np.conj(fm.values[1:][::-1]),
                           atol=1e-13)

    def test_singular_grid_point_reported(self):
        # static gain 1 one way, delay the other: det(I - G) = 1 - x
        m = NetworkModel(2, {(2, 1): RationalTF([1.0]),
                             (1, 2): RationalTF([0.0, 1.0])})
        with pytest.raises(ValueError, match="singular at omega"):
            true_T(m, (1, 2), (1, 2), FreqGrid.uniform(8))

    def test_node_range_checked(self, case_study):
        with pytest.raises(ValueError, match="outside"):
            true_T(case_study, (3, 21), (4,), FreqGrid.uniform(4))


class TestTrueTImpulse:
    def test_chain_entry_is_pure_delay(self, two_node_chain):
        for method in ("spectral", "cofactor"):
            h = true_T_impulse(two_node_chain, 2, 1, 6, method=method)
            assert np.allclose(h, [0, 1, 0, 0, 0, 0], atol=1e-12), method

    def test_case_study_matches_frozen_fixture_spectral(self, case_study):
        for (j, i), head in IMPULSE_HEAD.items():
            h = true_T_impulse(case_study, j, i, len(head), method="spectral")
            assert np.allclose(h, head, rtol=0, atol=1e-12), (j, i)

    def test_case_study_matches_frozen_fixture_cofactor(self, case_study):
        j, i = 3, 4  # one entry through the expensive exact route
        h = true_T_impulse(case_study, j, i, 8, method="cofactor")
        assert np.allclose(h, IMPULSE_HEAD[(j, i)], rtol=0, atol=1e-12)

    def test_routes_agree_on_loop_network(self):
        m = make_two_node_loop(0.7, -0.6)
        hs = true_T_impulse(m, 1, 2, 30, method="spectral")
        hc = true_T_impulse(m, 1, 2, 30, method="cofactor")
        assert np.allclose(hs, hc, rtol=0, atol=1e-11)
        # closed form: T12 = 0.7 x / (1 + 0.42 x^2)
        expect = np.zeros(30)
        expect[1::2] = 0.7 * (-0.42) ** np.arange(15)
        assert np.allclose(hs, expect, atol=1e-11)

    def test_simulation_matches_oracle(self, case_study):
        h34 = true_T_impulse(case_study, 3, 4, 20, method="spectral")
        sim = impulse_response(case_study, 4, 20)[3 - 1]
        assert np.allclose(sim, h34, rtol=0, atol=1e-10)

    def test_bad_method_and_nodes(self, two_node_chain):
        with pytest.raises(ValueError, match="spectral"):
            true_T_impulse(two_node_chain, 2, 1, 4, method="laplace")
        with pytest.raises(ValueError, match="outside"):
            true_T_impulse(two_node_chain, 3, 1, 4)
        with pytest.raises(ValueError):
            true_T_impulse(two_node_chain, 2, 1, 0)


class TestInternalStability:
    def test_case_study_is_stable(self, case_study):
        assert is_internally_stable(case_study)

    def test_stable_loop(self):
        assert is_internally_stable(make_two_node_loop(0.5, 0.5))

    def test_unstable_closed_loop_with_stable_edges(self):
        assert not is_internally_stable(make_two_node_loop(1.1, 1.1))

    def test_marginal_loop_rejected(self):
        assert not is_internally_stable(make_two_node_loop(1.0, 1.0))

    def test_unstable_edge_without_feedback(self):
        m = NetworkModel(2, {(2, 1): RationalTF([1.0], [1.0, -1.5])})
        assert not is_internally_stable(m)

    def test_unstable_edge_stabilized_by_feedback(self):
        # edge pole z = 2, loop moves every closed-loop pole to z = -0.5
        m = NetworkModel(2, {(2, 1): RationalTF([1.0], [1.0, -2.0]),
                             (1, 2): RationalTF([0.0, -2.5])})
        assert is_internally_stable(m)

    def test_edge_pole_on_unit_circle(self):
        m = NetworkModel(2, {(2, 1): RationalTF([0.0, 1.0], [1.0, -1.0])})
        assert not is_internally_stable(m)

    def test_slow_stable_loop(self):
        # closed-loop poles +-0.995: stable, but too slow for an impulse
        # response to decay below 1e-8 within 2000 samples
        assert is_internally_stable(make_two_node_loop(0.995, 0.995))

    def test_agrees_with_reference_check(self):
        # The reference (argument principle plus impulse decay, at its
        # defaults) can only certify poles below about 0.990 in modulus,
        # so the two are compared wherever rho(A) is outside [0.99, 1).
        rng = np.random.default_rng(6)
        models = [random_stable_network(rng) for _ in range(100)]
        models += [random_rational_network(rng) for _ in range(100)]
        models += [make_two_node_loop(g, sign * g, delay)
                   for g in np.linspace(0.9, 1.1, 21)
                   for delay in (1, 2, 3) for sign in (1.0, -1.0)]
        compared = 0
        for m in models:
            rho = np.abs(np.linalg.eigvals(m.realization[0])).max()
            if 0.99 <= rho < 1.0:
                continue
            assert is_internally_stable(m) == \
                reference_is_internally_stable(m), (m.edge_items(), rho)
            compared += 1
        assert compared >= 300
