"""Polynomial and rational transfer functions in the delay operator q^-1.

A transfer function is represented as a ratio of polynomials in q^-1 with
real coefficients.  Properness is automatic in this form: every polynomial
in q^-1 is a causal operator, and a rational function of two such
polynomials with nonzero denominator constant term is a proper transfer
function.  Frequency responses are obtained through the substitution
q^-1 -> e^(-j*omega).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Poles with magnitude >= 1 - STABILITY_MARGIN are treated as not strictly
# inside the unit circle; keeps root-finding jitter from flipping verdicts.
STABILITY_MARGIN = 1e-9

# Relative threshold below which a denominator value on the unit circle is
# declared a pole-on-circle evaluation error.
_POLE_EVAL_TOL = 1e-12


def _normalize_coeffs(coeffs) -> tuple[float, ...]:
    """Strip trailing zero coefficients; canonical zero is a single 0.0."""
    vals = [float(c) for c in coeffs]
    if not vals:
        raise ValueError("coefficient list must be nonempty")
    for c in vals:
        if not np.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r}")
    while len(vals) > 1 and vals[-1] == 0.0:
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class PolyQ:
    """Polynomial c0 + c1*q^-1 + ... + cn*q^-n with real coefficients.

    Trailing zero coefficients are normalized away at construction, so two
    equal polynomials always compare equal.  Instances are immutable.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _normalize_coeffs(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        """Evaluate at x = q^-1 (scalar or ndarray, real or complex) by Horner."""
        x = np.asarray(x)
        acc = np.zeros(x.shape, dtype=np.result_type(x.dtype, np.float64))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if acc.shape else acc[()]

    def scaled(self, factor: float) -> PolyQ:
        return PolyQ([factor * c for c in self.coeffs])


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function num/den in q^-1.

    The denominator constant term must be nonzero and is normalized to 1 at
    construction (both polynomials are rescaled).  A zero-delay numerator
    coefficient (relative degree 0) means direct feedthrough.
    """

    num: PolyQ
    den: PolyQ = field(default=PolyQ([1.0]))

    def __init__(self, num, den=(1.0,)):
        num = num if isinstance(num, PolyQ) else PolyQ(num)
        den = den if isinstance(den, PolyQ) else PolyQ(den)
        d0 = den.coeffs[0]
        if d0 == 0.0:
            raise ValueError("denominator constant term must be nonzero "
                             "(improper or ill-posed transfer function)")
        if d0 != 1.0:
            num = num.scaled(1.0 / d0)
            den = den.scaled(1.0 / d0)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- structure -----------------------------------------------------------

    @property
    def relative_degree(self) -> int | None:
        """Index of the first nonzero numerator coefficient; None if num = 0.

        Zero means direct feedthrough (output responds to the input within
        the same sample).
        """
        for k, c in enumerate(self.num.coeffs):
            if c != 0.0:
                return k
        return None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def feedthrough(self) -> float:
        """Zero-delay gain num(0)/den(0); nonzero iff relative degree is 0."""
        return self.num.coeffs[0]

    def poles(self) -> np.ndarray:
        """Poles in the z-plane (roots of den with q^-1 = z^-1 substituted).

        For den(q^-1) = a0 + a1 q^-1 + ... + an q^-n the poles solve
        a0 z^n + a1 z^(n-1) + ... + an = 0, i.e. numpy's root convention
        applied to the coefficient tuple as given.
        """
        if self.den.degree == 0:
            return np.array([])
        return np.roots(self.den.coeffs)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, omega):
        """Frequency response at angular frequency omega (scalar or array).

        Substitutes q^-1 -> e^(-j*omega).  Raises ValueError when the
        denominator vanishes on the unit circle at a requested omega.
        """
        om = np.asarray(omega, dtype=float)
        x = np.exp(-1j * om)
        dv = self.den(x)
        scale = sum(abs(c) for c in self.den.coeffs)
        bad = np.abs(dv) < _POLE_EVAL_TOL * scale
        if np.any(bad):
            worst = float(np.atleast_1d(om)[np.atleast_1d(bad)][0])
            raise ValueError(f"pole on the unit circle: denominator vanishes "
                             f"at omega = {worst!r}")
        out = self.num(x) / dv
        return out if np.ndim(omega) else complex(out)


@dataclass(frozen=True)
class FreqGrid:
    """Strictly increasing angular frequencies in [0, 2*pi)."""

    omegas: tuple[float, ...]

    def __init__(self, omegas):
        vals = tuple(float(w) for w in omegas)
        if not vals:
            raise ValueError("frequency grid must be nonempty")
        for w in vals:
            if not (0.0 <= w < 2.0 * np.pi):
                raise ValueError(f"frequency {w!r} outside [0, 2*pi)")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "omegas", vals)

    @classmethod
    def uniform(cls, n: int) -> FreqGrid:
        """n equispaced frequencies 2*pi*k/n, k = 0..n-1 (includes omega=0)."""
        if n < 1:
            raise ValueError("grid size must be >= 1")
        return cls(2.0 * np.pi * np.arange(n) / n)

    def __len__(self) -> int:
        return len(self.omegas)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.omegas)


def is_stable(tf: RationalTF) -> bool:
    """True iff every pole lies strictly inside the unit circle.

    A constant denominator has no poles and is stable.  The strictness
    margin is STABILITY_MARGIN.
    """
    p = tf.poles()
    if p.size == 0:
        return True
    return bool(np.all(np.abs(p) < 1.0 - STABILITY_MARGIN))
