"""Polynomial and rational transfer functions."""

import numpy as np
import pytest

from netid import FreqGrid, RationalTF
from netid.tf import PolyQ


class TestPolyQ:
    def test_trailing_zeros_stripped(self):
        assert PolyQ([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_polynomial_is_canonical(self):
        assert PolyQ([0.0, 0.0]).coeffs == (0.0,)
        assert PolyQ([0.0]).is_zero
        assert PolyQ([0.0]).degree == 0

    def test_degree(self):
        assert PolyQ([3.0, 0.0, 2.0]).degree == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PolyQ([1.0, np.inf])
        with pytest.raises(ValueError):
            PolyQ([np.nan])
        with pytest.raises(ValueError,
                           match="^coefficient list must be nonempty$"):
            PolyQ([])

    def test_evaluation_matches_polyval(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            coeffs = rng.normal(size=rng.integers(1, 6))
            p = PolyQ(coeffs)
            x = rng.normal(size=7) + 1j * rng.normal(size=7)
            expected = np.polyval(np.trim_zeros(coeffs, "b")[::-1]
                                  if np.any(coeffs) else [0.0], x)
            assert np.allclose(p(x), expected, atol=1e-12)


class TestRationalTF:
    def test_denominator_normalized_to_unit_constant(self):
        tf = RationalTF([0.0, 1.0], [2.0, 1.0])
        assert tf.den.coeffs[0] == 1.0
        assert tf.num.coeffs == (0.0, 0.5)
        assert tf.den.coeffs == (1.0, 0.5)

    def test_zero_denominator_constant_rejected(self):
        with pytest.raises(ValueError):
            RationalTF([1.0], [0.0, 1.0])

    def test_relative_degree_and_feedthrough(self):
        assert RationalTF([0.0, 0.0, 2.0]).relative_degree == 2
        assert RationalTF([0.5, 1.0]).relative_degree == 0
        assert RationalTF([0.0]).relative_degree is None
        assert RationalTF([0.25, 1.0]).feedthrough() == 0.25
        assert RationalTF([0.0, 1.0]).feedthrough() == 0.0

    def test_eval_conjugate_symmetry(self):
        tf = RationalTF([0.0, -0.3, 0.8], [1.0, -0.2, 0.05])
        om = np.linspace(0.1, np.pi - 0.1, 9)
        assert np.allclose(tf.eval_at(2 * np.pi - om), np.conj(tf.eval_at(om)))

    def test_eval_at_omega_zero_is_coefficient_sum_ratio(self):
        tf = RationalTF([0.0, -0.3, 0.8], [1.0, 0.1])
        assert np.isclose(tf.eval_at(0.0), 0.5 / 1.1)

    def test_pole_on_unit_circle_raises(self):
        tf = RationalTF([1.0], [1.0, -1.0])  # den vanishes at x = 1 (omega 0)
        with pytest.raises(ValueError, match="pole on the unit circle"):
            tf.eval_at(np.array([0.0, 1.0]))


class TestFreqGrid:
    def test_uniform_includes_zero_and_spacing(self):
        g = FreqGrid.uniform(100)
        om = g.as_array()
        assert len(g) == 100
        assert om[0] == 0.0
        assert np.allclose(np.diff(om), 2 * np.pi / 100)
        assert om[-1] < 2 * np.pi

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            FreqGrid([0.0, 0.0, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FreqGrid([-0.1, 1.0])
        with pytest.raises(ValueError):
            FreqGrid([0.0, 2 * np.pi])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FreqGrid.uniform(0)
        with pytest.raises(ValueError,
                           match="^frequency grid must be nonempty$"):
            FreqGrid([])
