"""The formal integral transform on generalized monomials.

A generalized monomial is a polynomial coefficient times u- and v-letters
raised to half-integer powers, graded by powers of the series parameters
lambda and mu.  The transform replaces each u^a by Gamma(a) and each v^b
by 1/Gamma(b); it is realized as exact exponent bookkeeping, never as an
integral.  Terms whose v-exponent lands on a non-positive integer vanish
(the reciprocal gamma function's zeros); u-exponents there are a domain
error.  A term's weight, the product of its Gamma(a) over its Gamma(b), is
an integer numerator, denominator and sqrt(pi) grade built from scalar's
one Gamma table, and the term's coefficient Poly is scaled by it on its
stored integers.
"""

from __future__ import annotations

import logging
from math import factorial

from .errors import DomainError, ExpansionError
from .poly import CoeffSeries, Poly
from .scalar import HalfInt, _gamma_parts, _pair, _ratio, half

log = logging.getLogger(__name__)

MU = "mu"  # variable name carrying the mu grading after transforming


def _clean_exps(exps) -> tuple:
    """Normalize an exponent map to a sorted tuple of (name, HalfInt),
    dropping zero entries (minimal support)."""
    out = []
    for name, e in dict(exps).items():
        e = half(e)
        if e.twice != 0:
            out.append((name, e))
    out.sort(key=lambda t: t[0])
    return tuple(out)


class GenMonomial:
    """coeff * u1^a1... * v1^b1... * lambda^k * mu^l with half-integer a, b."""

    __slots__ = ("coeff", "u_exps", "v_exps", "lambda_pow", "mu_pow")

    def __init__(self, coeff, u_exps=(), v_exps=(), lambda_pow=0, mu_pow=0):
        if not isinstance(coeff, Poly):
            coeff = Poly.const(coeff)
        if lambda_pow < 0 or mu_pow < 0:
            raise ValueError("grading powers must be non-negative")
        self.coeff = coeff
        self.u_exps = _clean_exps(u_exps)
        self.v_exps = _clean_exps(v_exps)
        self.lambda_pow = lambda_pow
        self.mu_pow = mu_pow

    def key(self):
        return (self.u_exps, self.v_exps, self.lambda_pow, self.mu_pow)

    def __mul__(self, other: "GenMonomial") -> "GenMonomial":
        def merge(a, b):
            m = {n: e for n, e in a}
            for n, e in b:
                m[n] = m.get(n, HalfInt(0)) + e
            return m

        return GenMonomial(
            self.coeff * other.coeff,
            merge(self.u_exps, other.u_exps),
            merge(self.v_exps, other.v_exps),
            self.lambda_pow + other.lambda_pow,
            self.mu_pow + other.mu_pow,
        )

    def __pow__(self, k: int) -> "GenMonomial":
        if k < 0:
            raise ValueError("GenMonomial powers must be non-negative")
        return GenMonomial(
            self.coeff**k,
            {n: e * k for n, e in self.u_exps},
            {n: e * k for n, e in self.v_exps},
            self.lambda_pow * k,
            self.mu_pow * k,
        )

    def scaled(self, c) -> "GenMonomial":
        return GenMonomial(
            self.coeff * c, self.u_exps, self.v_exps, self.lambda_pow, self.mu_pow
        )

    def __repr__(self):
        us = " ".join(f"{n}^{e}" for n, e in self.u_exps)
        vs = " ".join(f"{n}^{e}" for n, e in self.v_exps)
        return (
            f"GenMonomial({self.coeff.text()} | {us} | {vs} | "
            f"lambda^{self.lambda_pow} mu^{self.mu_pow})"
        )


class GenSeries:
    """A finite sum of generalized monomials with truncation caps.

    ``lambda_order`` / ``mu_order`` record through which powers the series
    is exact; None means untruncated.  Construction combines like
    monomials and drops anything beyond a cap.
    """

    __slots__ = ("terms", "lambda_order", "mu_order")

    def __init__(self, terms, lambda_order=None, mu_order=None):
        groups: dict = {}
        for t in terms:
            if lambda_order is not None and t.lambda_pow > lambda_order:
                continue
            if mu_order is not None and t.mu_pow > mu_order:
                continue
            groups.setdefault(t.key(), []).append(t)
        merged = (
            g[0] if len(g) == 1 else GenMonomial(Poly.sum([t.coeff for t in g]), *k)
            for k, g in groups.items()
        )
        self.terms = [t for t in merged if not t.coeff.is_zero()]
        self.lambda_order = lambda_order
        self.mu_order = mu_order

    def __repr__(self):
        return (
            f"GenSeries({len(self.terms)} terms, lambda_order="
            f"{self.lambda_order}, mu_order={self.mu_order})"
        )


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def gen_product(s1: GenSeries, s2: GenSeries) -> GenSeries:
    """Truncated product; multiplicative under the transform when the
    factors' u/v alphabets are disjoint."""
    lo = _min_order(s1.lambda_order, s2.lambda_order)
    mo = _min_order(s1.mu_order, s2.mu_order)
    out = []
    for a in s1.terms:
        for b in s2.terms:
            if lo is not None and a.lambda_pow + b.lambda_pow > lo:
                continue
            if mo is not None and a.mu_pow + b.mu_pow > mo:
                continue
            out.append(a * b)
    return GenSeries(out, lo, mo)


def expand_exponential(base: GenMonomial, order: int) -> GenSeries:
    """exp(base) truncated to sum_{k<=order} base^k / k!.

    The base must carry a lambda or mu grading, otherwise no truncation
    order exists and the expansion is refused.
    """
    if base.lambda_pow + base.mu_pow < 1:
        raise ExpansionError("exponential base carries no lambda/mu grading")
    terms = []
    for k in range(order + 1):
        terms.append((base**k).scaled(_pair(1, factorial(k), 0)))
    lam = (order + 1) * base.lambda_pow - 1 if base.lambda_pow else None
    mu = (order + 1) * base.mu_pow - 1 if base.mu_pow else None
    return GenSeries(terms, lam, mu)


def _weight(t: GenMonomial):
    """The transform's weight prod Gamma(a) / prod Gamma(b) over the u- and
    v-exponents of t, as integers (num, den, grade) from scalar's Gamma
    table; None when a v-exponent lies on a zero of 1/Gamma."""
    num, den, grade = 1, 1, 0
    for name, e in t.u_exps:
        if e.is_nonpositive_integer():
            raise DomainError(
                f"u-exponent {e} of {name!r} lies in Z_<=0 in term {t!r}"
            )
        a, b, g = _gamma_parts(e)
        num, den, grade = num * a, den * b, grade + g
    for _, e in t.v_exps:
        if e.is_nonpositive_integer():
            log.debug("term %r vanishes: v-exponent at a 1/Gamma zero", t)
            return None
        a, b, g = _gamma_parts(e)
        num, den, grade = num * b, den * a, grade - g
    return num, den, grade


def itransform(s: GenSeries) -> CoeffSeries:
    """Apply the transform to every term and collect by lambda power.

    mu powers are folded into the coefficient polynomials as the variable
    ``mu``.  Returns a series exact through s.lambda_order.  Each
    transformed coefficient is the term's coefficient Poly times its
    weight, a scaling of the stored integers.
    """
    if s.lambda_order is not None:
        order = s.lambda_order
    else:
        order = max((t.lambda_pow for t in s.terms), default=0)
    parts = [[] for _ in range(order + 1)]
    for t in s.terms:
        w = _weight(t)
        if w is None:
            continue
        num, den, grade = w
        contrib = t.coeff * _ratio(num, den, grade)
        if t.mu_pow:
            contrib = contrib * Poly.var(MU, t.mu_pow)
        parts[t.lambda_pow].append(contrib)
    return CoeffSeries([Poly.sum(p) for p in parts], order)


def itransform_scalar(s: GenSeries) -> Poly:
    """Transform of a series with trivial lambda grading, as a single Poly."""
    return Poly.sum(itransform(s).coeffs)
