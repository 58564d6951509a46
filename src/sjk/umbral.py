"""The formal integral transform on generalized monomials.

A generalized monomial is a polynomial coefficient times u- and v-letters
raised to half-integer powers, graded by powers of the series parameters
lambda and mu.  The transform replaces each u^a by Gamma(a) and each v^b
by 1/Gamma(b); it is realized as exact exponent bookkeeping, never as an
integral.  Terms whose v-exponent lands on a non-positive integer vanish
(the reciprocal gamma function's zeros); u-exponents there are a domain
error.  A term's weight, the product of its Gamma(a) over its Gamma(b), is
an integer numerator, denominator and sqrt(pi) grade built from scalar's
one Gamma table, and each power of lambda is summed in one pass over its
terms' stored integers times their weights, with no Poly per term.  A
generalized monomial keeps its exponents as sorted (name, HalfInt) pairs
and, for GenSeries to combine like terms by, as (name, twice) int pairs.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from .errors import DomainError
from .poly import CoeffSeries, Poly
from .scalar import HalfInt, _gamma_parts, half

MU = "mu"  # variable name carrying the mu grading after transforming

_name = itemgetter(0)  # sort key of a (name, exponent) pair


def _clean_exps(exps) -> tuple:
    """(pairs, key): an exponent map as a tuple of (name, HalfInt) sorted
    by name, zero entries dropped (minimal support), and the same pairs
    with each exponent as its int twice, the form that GenSeries groups
    by.  A dict is read as it is, and a HalfInt exponent is taken without
    coercion."""
    out = []
    key = []
    for name, e in (exps if type(exps) is dict else dict(exps)).items():
        if type(e) is not HalfInt:
            e = half(e)
        if e.twice:
            out.append((name, e))
            key.append((name, e.twice))
    if len(out) > 1:
        out.sort(key=_name)
        key.sort(key=_name)
    return tuple(out), tuple(key)


class GenMonomial:
    """coeff * u1^a1... * v1^b1... * lambda^k * mu^l with half-integer a, b."""

    __slots__ = ("coeff", "u_exps", "v_exps", "lambda_pow", "mu_pow", "_key")

    def __init__(self, coeff, u_exps=(), v_exps=(), lambda_pow=0, mu_pow=0):
        if not isinstance(coeff, Poly):
            coeff = Poly.const(coeff)
        if lambda_pow < 0 or mu_pow < 0:
            raise ValueError("grading powers must be non-negative")
        self.coeff = coeff
        self.u_exps, u_key = _clean_exps(u_exps)
        self.v_exps, v_key = _clean_exps(v_exps)
        self.lambda_pow = lambda_pow
        self.mu_pow = mu_pow
        self._key = (u_key, v_key, lambda_pow, mu_pow)

    def key(self):
        """The letters' exponents (as twice their values) and the grading
        powers: equal for terms that combine."""
        return self._key

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
            g[0] if len(g) == 1 else GenMonomial(
                Poly.sum([t.coeff for t in g]), g[0].u_exps, g[0].v_exps, *k[2:])
            for k, g in groups.items()
        )
        self.terms = [t for t in merged if t.coeff]
        self.lambda_order = lambda_order
        self.mu_order = mu_order

    def __repr__(self):
        return (
            f"GenSeries({len(self.terms)} terms, lambda_order="
            f"{self.lambda_order}, mu_order={self.mu_order})"
        )


def _weight(t: GenMonomial):
    """The transform's weight prod Gamma(a) / prod Gamma(b) over the u- and
    v-exponents of t, as integers (num, den, grade) in lowest terms from
    scalar's Gamma table; None when a v-exponent lies on a zero of
    1/Gamma."""
    num, den, grade = 1, 1, 0
    for name, e in t.u_exps:
        if e.twice <= 0 and not e.twice % 2:  # a non-positive integer
            raise DomainError(
                f"u-exponent {e} of {name!r} lies in Z_<=0 in term {t!r}"
            )
        a, b, g = _gamma_parts(e)
        num, den, grade = num * a, den * b, grade + g
    for _, e in t.v_exps:
        if e.twice <= 0 and not e.twice % 2:
            import logging
            logging.getLogger(__name__).debug(
                "term %r vanishes: v-exponent at a 1/Gamma zero", t)
            return None
        a, b, g = _gamma_parts(e)
        num, den, grade = num * b, den * a, grade - g
    g = gcd(num, den)
    return num // g, den // g, grade


def itransform(s: GenSeries) -> CoeffSeries:
    """Apply the transform to every term and collect by lambda power.

    mu powers are folded into the coefficient polynomials as the variable
    ``mu``.  Returns a series exact through s.lambda_order.  Each lambda
    power's coefficient is summed in one pass over its terms' stored
    integers (_weighted_sum).
    """
    if s.lambda_order is not None:
        order = s.lambda_order
    else:
        order = max((t.lambda_pow for t in s.terms), default=0)
    rows = [[] for _ in range(order + 1)]
    for t in s.terms:
        w = _weight(t)
        if w is not None:
            rows[t.lambda_pow].append((t, w))
    return CoeffSeries([_weighted_sum(r) for r in rows], order)


def _weighted_sum(rows: list) -> Poly:
    """The sum of c w mu^l over the (term, weight) rows, c the term's
    coefficient Poly, w = (num, den, grade) its weight and l its mu power,
    over the sorted union of the coefficients' variables and, where some
    l > 0, mu: each c is a piece of Poly._sum_over, its numerators times
    num over its denominator times den at its grade plus the weight's."""
    names = set()
    mu = False
    for t, _ in rows:
        names.update(t.coeff.vars)
        if t.mu_pow:
            mu = True
    if mu:
        names.add(MU)
    vars = tuple(sorted(names))
    j = vars.index(MU) if mu else None
    pieces = []
    for t, (wn, wd, wg) in rows:
        k = t.mu_pow
        g, d, nums = t.coeff._integers(vars)
        if k:
            nums = {e[:j] + (e[j] + k,) + e[j + 1 :]: n for e, n in nums.items()}
        pieces.append((g + wg, d * wd, nums, wn))
    return Poly._sum_over(vars, pieces)


def itransform_scalar(s: GenSeries) -> Poly:
    """Transform of a series with trivial lambda grading, as a single Poly:
    the sum of itransform's coefficients, the one coefficient itself when
    the series is exact through lambda^0 only."""
    coeffs = itransform(s).coeffs
    return coeffs[0] if len(coeffs) == 1 else Poly.sum(coeffs)
