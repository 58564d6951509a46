"""Formal generalized hypergeometric series.

A HyperSpec is a (upper parameters, lower parameters, argument scale)
descriptor; coefficients are Pochhammer quotients and always exact
rationals times powers of the scale.  Series are purely formal: no
convergence questions arise and none are asked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial

from .errors import ParamError, PoleError
from .scalar import (
    ExactScalar,
    _as_fraction,
    gamma_half,
    gamma_ratio,
    half,
    pochhammer,
    recip_gamma,
)


def _is_nonpos_int(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


class HyperSpec:
    """Parameters of a formal pFq series; the argument carries a scale."""

    __slots__ = ("upper", "lower", "arg_scale")

    def __init__(self, upper, lower, arg_scale=1):
        self.upper = tuple(_as_fraction(a) for a in upper)
        self.lower = tuple(_as_fraction(b) for b in lower)
        for b in self.lower:
            if _is_nonpos_int(b):
                raise ParamError(f"lower parameter {b} lies in Z_<=0")
        self.arg_scale = ExactScalar.coerce(arg_scale)

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    def __eq__(self, other):
        if not isinstance(other, HyperSpec):
            return NotImplemented
        return (
            self.upper == other.upper
            and self.lower == other.lower
            and self.arg_scale == other.arg_scale
        )

    def __repr__(self):
        up = ", ".join(map(str, self.upper))
        lo = ", ".join(map(str, self.lower))
        return f"HyperSpec({self.p}F{self.q}; [{up}]; [{lo}]; scale={self.arg_scale})"


def pfq_terms(spec: HyperSpec):
    """The series coefficients scale^m / m! * prod (a)_m / prod (b)_m for
    m = 0, 1, 2, ... without end, each from the one before by the term
    ratio scale * prod (a+m) / ((m+1) prod (b+m))."""
    scale, pi_pow = spec.arg_scale.rat, spec.arg_scale.sqrt_pi_pow
    t, m = Fraction(1), 0
    while True:
        yield ExactScalar(t, pi_pow * m)
        t *= scale / (m + 1)
        for a in spec.upper:
            t *= a + m
        for b in spec.lower:
            t /= b + m
        m += 1


def pfq_coeff(spec: HyperSpec, m: int) -> ExactScalar:
    """m-th series coefficient: scale^m / m! * prod (a)_m / prod (b)_m."""
    if m < 0:
        raise ValueError("coefficient index must be >= 0")
    return next(islice(pfq_terms(spec), m, None))


def pfq_derivative(spec: HyperSpec, n: int):
    """n-th formal derivative: prefactor and the spec with parameters + n.

    The prefactor includes scale^n from the chain rule, so the derived
    series' coefficients match term-wise differentiation of the original.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    pref = Fraction(1)
    for a in spec.upper:
        pref *= pochhammer(a, n)
    for b in spec.lower:
        pref /= pochhammer(b, n)
    shifted = HyperSpec(
        [a + n for a in spec.upper], [b + n for b in spec.lower], spec.arg_scale
    )
    return spec.arg_scale**n * ExactScalar(pref), shifted


def pochhammer_proliferate(alpha, beta, r: int, s: int, spec: HyperSpec):
    """Transform of u^alpha v^beta pFq(z u^r v^s) under the integral
    transform: prefactor Gamma(alpha)/Gamma(beta), r new upper parameters
    (alpha+k)/r, s new lower parameters (beta+t)/s, argument scaled by
    r^r / s^s."""
    if r < 1 or s < 1:
        raise ParamError("proliferation needs r, s >= 1")
    ha, hb = half(alpha), half(beta)
    if ha.is_nonpositive_integer() or hb.is_nonpositive_integer():
        raise ParamError(f"parameters ({ha}, {hb}) must avoid Z_<=0")
    new_upper = list(spec.upper) + [
        (ha.as_fraction + k) / r for k in range(r)
    ]
    new_lower = list(spec.lower) + [
        (hb.as_fraction + t) / s for t in range(s)
    ]
    scale = spec.arg_scale * ExactScalar(Fraction(r**r, s**s))
    return gamma_ratio(ha, hb), HyperSpec(new_upper, new_lower, scale)


def gamma_multiplication(n: int, s: int, x):
    """Both sides of Gamma(n(s+x)) = n^{sn} Gamma(nx) prod_j (x + j/n)_s.

    x may be any rational with n*x a half-integer (so both gammas are
    exactly evaluable); the Pochhammer factors are rational regardless.
    """
    if n < 2:
        raise ParamError("multiplication order must be >= 2")
    if s < 0:
        raise ParamError("shift must be >= 0")
    x = _as_fraction(x)
    nx = n * x
    if nx.denominator not in (1, 2):
        raise ParamError(f"n*x = {nx} is not a half-integer")
    lhs = gamma_half(nx + n * s)
    rhs = ExactScalar(Fraction(n) ** (s * n)) * gamma_half(nx)
    for j in range(n):
        rhs = rhs * ExactScalar(pochhammer(x + Fraction(j, n), s))
    return lhs, rhs


def tricomi_coeff(alpha, r: int) -> ExactScalar:
    """r-th series coefficient 1/(r! Gamma(r + alpha + 1)) of the
    Tricomi-Bessel function at parameter alpha not in Z_<0."""
    if r < 0:
        raise ValueError("coefficient index must be >= 0")
    ha = half(alpha)
    if ha.is_integer and ha.twice < 0:
        raise PoleError(f"Tricomi parameter {ha} lies in Z_<0")
    return recip_gamma(ha + (r + 1)) * ExactScalar(Fraction(1, factorial(r)))
