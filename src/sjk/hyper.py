"""Formal generalized hypergeometric series.

A HyperSpec is a (upper parameters, lower parameters, argument scale)
descriptor; coefficients are Pochhammer quotients and always exact
rationals times powers of the scale.  Series are purely formal: no
convergence questions arise and none are asked.  pfq_terms takes an
optional first term, so a scaled series is made with one reduced integer
pair per term.  Its recurrence is _pair_terms, which takes the parameters
as integer pairs; the lacunary cells call it directly, without a HyperSpec.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial, gcd, prod

from .errors import ParamError, PoleError
from .scalar import (
    ExactScalar,
    HalfInt,
    _as_fraction,
    _pair,
    _parts,
    _pochhammer_parts,
    _ratio,
    _text,
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
        pq = f"{len(self.upper)}F{len(self.lower)}"
        return f"HyperSpec({pq}; [{up}]; [{lo}]; scale={self.arg_scale})"


def pfq_terms(spec: HyperSpec, start=1):
    """The series coefficients start * scale^m / m! * prod (a)_m / prod (b)_m
    for m = 0, 1, 2, ... without end (_pair_terms).  start is the m = 0
    term, an ExactScalar (or an int or Fraction), whose sqrt(pi) grade is
    added to every term's."""
    yield from _pair_terms(
        [(a.numerator, a.denominator) for a in spec.upper],
        [(b.numerator, b.denominator) for b in spec.lower],
        spec.arg_scale,
        ExactScalar.coerce(start),
    )


def _pair_terms(up, lo, scale: ExactScalar, t: ExactScalar):
    """The terms t * scale^m / m! * prod (a)_m / prod (b)_m of pfq_terms,
    the parameters given as integer pairs (num, den), den > 0 and not
    necessarily reduced, and the lower ones off Z_<=0; each term from the
    one before by the ratio scale * prod (a+m) / ((m+1) prod (b+m)).  The
    ratio is taken on integers, with a + m = (num a + m den a) / den a:
    the term's numerator and denominator are multiplied by integer
    products, and the one reduced pair made per term divides them by
    their gcd."""
    num_k = scale.num * prod(d for _, d in lo)
    den_k = scale.den * prod(d for _, d in up)
    g, pi_pow, m = t.sqrt_pi_pow, scale.sqrt_pi_pow, 0
    while True:
        yield t
        t = _ratio(
            t.num * num_k * prod(p + m * d for p, d in up),
            t.den * den_k * (m + 1) * prod(p + m * d for p, d in lo),
            g + pi_pow * (m + 1),
        )
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
    # (alpha + k) / r = (2 alpha + 2k) / 2r, read from alpha's twice
    new_upper = [*spec.upper, *(Fraction(ha.twice + 2 * k, 2 * r) for k in range(r))]
    new_lower = [*spec.lower, *(Fraction(hb.twice + 2 * t, 2 * s) for t in range(s))]
    scale = spec.arg_scale * _ratio(r**r, s**s, 0)
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
    p, q = _parts(x)
    g = gcd(n, q)
    N, D = n // g * p, q // g  # n x, reduced
    if D not in (1, 2):
        raise ParamError(f"n*x = {_text(N, D)} is not a half-integer")
    twice = N * (2 // D)
    lhs = gamma_half(HalfInt(twice + 2 * n * s))
    # x + j/n = (n p + j q) / (n q)
    num, den = n ** (s * n), 1
    for j in range(n):
        a, b = _pochhammer_parts(n * p + j * q, n * q, s)
        num, den = num * a, den * b
    return lhs, _ratio(num, den, 0) * gamma_half(HalfInt(twice))


def tricomi_coeff(alpha, r: int) -> ExactScalar:
    """r-th series coefficient 1/(r! Gamma(r + alpha + 1)) of the
    Tricomi-Bessel function at parameter alpha not in Z_<0."""
    if r < 0:
        raise ValueError("coefficient index must be >= 0")
    ha = half(alpha)
    if ha.is_integer and ha.twice < 0:
        raise PoleError(f"Tricomi parameter {ha} lies in Z_<0")
    return recip_gamma(ha + (r + 1)) * _pair(1, factorial(r), 0)
