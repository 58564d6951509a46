"""Formal generalized hypergeometric series.

A HyperSpec is a (upper parameters, lower parameters, argument scale)
descriptor; coefficients are Pochhammer quotients and always exact
rationals times powers of the scale.  Series are purely formal: no
convergence questions arise and none are asked.  The term recurrence is
written once, _pair_terms: the parameters, the argument and the first
term are integer pairs, the parameters' numerators are stepped by their
denominators, and each term is yielded as a reduced integer pair.
pfq_terms makes ExactScalars from those pairs (read from a HyperSpec by
_spec_pairs), each with its sqrt(pi) grade; the lacunary cells read the
pairs directly, without a HyperSpec or an ExactScalar per term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, prod
from operator import add

from .errors import ParamError
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

    def __repr__(self):
        up = ", ".join(map(str, self.upper))
        lo = ", ".join(map(str, self.lower))
        pq = f"{len(self.upper)}F{len(self.lower)}"
        return f"HyperSpec({pq}; [{up}]; [{lo}]; scale={self.arg_scale})"


def pfq_terms(spec: HyperSpec, start=1):
    """The series coefficients start * scale^m / m! * prod (a)_m / prod (b)_m
    for m = 0, 1, 2, ... without end, as ExactScalars made from the pairs
    of _pair_terms.  start is the m = 0 term, an ExactScalar (or an int or
    Fraction), whose sqrt(pi) grade is added to every term's."""
    start = ExactScalar.coerce(start)
    g, step = start.sqrt_pi_pow, spec.arg_scale.sqrt_pi_pow
    for m, (num, den) in enumerate(_spec_pairs(spec, start)):
        yield _pair(num, den, g + step * m)


def _spec_pairs(spec: HyperSpec, start: ExactScalar):
    """The terms of pfq_terms(spec, start) as the reduced integer pairs of
    _pair_terms, without their sqrt(pi) grades."""
    up, lo, scale = spec.upper, spec.lower, spec.arg_scale
    return _pair_terms(
        ([a.numerator for a in up], [a.denominator for a in up]),
        ([b.numerator for b in lo], [b.denominator for b in lo]),
        (scale.num, scale.den),
        (start.num, start.den),
    )


def _pair_terms(up: tuple, lo: tuple, scale: tuple, start: tuple):
    """The terms start * scale^m / m! * prod (a)_m / prod (b)_m, m = 0, 1,
    2, ..., as reduced integer pairs (num, den), den > 0, the sqrt(pi)
    grades left to the caller.  up and lo give the parameters as two
    sequences, their integer numerators and their denominators (> 0, not
    necessarily in lowest terms), the lower ones off Z_<=0; scale is an
    integer pair with den > 0, and start one in lowest terms with den > 0.
    Each term comes from the one before by the ratio
    scale * prod (a+m) / ((m+1) prod (b+m)) on integers: with
    a + m = (num a + m den a) / den a, the parameters' numerators are
    stepped by their dens (map(add, ...)), the pair is multiplied by the
    integer products and divided by its gcd."""
    num, den = start
    yield num, den
    up_nums, up_dens = up
    lo_nums, lo_dens = lo
    num_k = scale[0] * prod(lo_dens)
    den_k = scale[1] * prod(up_dens)
    m = 1
    while True:
        num *= num_k * prod(up_nums)
        den *= den_k * m * prod(lo_nums)
        g = gcd(num, den)
        if den < 0:
            g = -g
        num //= g
        den //= g
        yield num, den
        up_nums = [*map(add, up_nums, up_dens)]
        lo_nums = [*map(add, lo_nums, lo_dens)]
        m += 1


def pfq_coeff(spec: HyperSpec, m: int) -> ExactScalar:
    """m-th series coefficient: scale^m / m! * prod (a)_m / prod (b)_m."""
    if m < 0:
        raise ValueError("coefficient index must be >= 0")
    return next(islice(pfq_terms(spec), m, None))


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

