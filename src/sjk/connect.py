"""Connection coefficients, formal Gaussian pairing, and the decay demo.

The connection coefficients expand x^M over a polynomial family; the
defining identity x^M = sum_n A_{M,n} p_n(x) is the arbiter for every
formula here.  The complex-Gaussian moment integral is never integrated:
the pairing rule w^r wbar^s -> r! delta_{r,s} is taken as the definition.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from . import lacunary
from .errors import ParamError
from .families import HERMITE_SECOND_VAR, hermite_egf, hermite_family, hermite_image
from .families import sj_egf, sj_family
from .hyper import HyperSpec, pfq_terms
from .opcalc import jacobi_operator_apply
from .poly import CoeffSeries, Poly
from .scalar import ExactScalar


def sj_connection(M: int, n: int) -> Fraction:
    """Weight of the degree-n (-1,-1) polynomial in x^M; zero for odd M+n."""
    if n > M or n < 0 or M < 0:
        raise IndexError(f"connection index n={n} outside 0..{M}")
    if (M + n) % 2:
        return Fraction(0)
    half_sum = (M + n) // 2
    half_diff = (M - n) // 2
    return Fraction(
        factorial(2 * n) * factorial(M) * factorial(half_sum),
        factorial(n) ** 2 * factorial(M + n) * factorial(half_diff),
    )


def hermite_connection(M: int, n: int) -> Poly:
    """Weight of H_n in x^M: (-z)^k M! / (k! n!) with k = (M-n)/2."""
    if n > M or n < 0 or M < 0:
        raise IndexError(f"connection index n={n} outside 0..{M}")
    if (M - n) % 2:
        return Poly.zero((HERMITE_SECOND_VAR,))
    k = (M - n) // 2
    c = Fraction(factorial(M), factorial(k) * factorial(n)) * Fraction(-1) ** k
    return Poly.monomial(c, **{HERMITE_SECOND_VAR: k})


class Family(NamedTuple):
    """A row of the family table: the source n -> p_n, the EGF truncation,
    the weight (M, n) -> A_{M,n} of p_n in x^M (a Fraction, or a Poly in z),
    the closed lacunary form (a cross-check) and the image map H_n -> p_n."""

    source: Callable
    egf: Callable
    connection: Callable
    lacunary_closed: Callable
    image: Callable

    def image_of(self, series: CoeffSeries) -> CoeffSeries:
        """The image of a Hermite series, such as a lacunary slice."""
        return CoeffSeries([self.image(c) for c in series.coeffs], series.order)


def _table() -> dict:
    # built per lookup: a builder rebound in its module (a patch, a wrapper) is used
    return {
        "sj": Family(sj_family, sj_egf, sj_connection,
                     lacunary.sj_lacunary_closed, hermite_image),
        "hermite": Family(hermite_family, hermite_egf, hermite_connection,
                          lacunary.hermite_lacunary_closed, lambda p: p),
    }


FAMILIES = tuple(_table())


def lookup(family: str) -> Family:
    """The table's row for a family name; ParamError for an unknown one."""
    try:
        return _table()[family]
    except KeyError:
        raise ParamError(f"unknown family {family!r}") from None


def reconstruct_monomial(M: int, family: str) -> Poly:
    """sum_n A_{M,n} p_n(x); must equal x^M exactly."""
    row = lookup(family)
    terms = (row.connection(M, n) * row.source(n) for n in range(M + 1))
    return Poly.sum(terms, ("x",))


def biorthogonality_check(M: int, L: int, family: str) -> ExactScalar:
    """Contraction of backward (connection) against forward (expansion)
    coefficients; the defining identity forces delta_{M,L}."""
    row = lookup(family)
    parts = []
    for n in range(M + 1):
        b = row.source(n).coeff_of("x", L)
        if b:
            parts.append(row.connection(M, n) * b)
    return Poly.sum(parts).as_scalar()


def gaussian_pair(F: Poly, G: Poly) -> Poly:
    """Formal Gaussian pairing: replace w^r wbar^s by r! delta_{r,s}."""
    if not (F and G):
        return Poly.zero()
    return Poly.sum(
        F.coeff_of("w", r) * G.coeff_of("wbar", r) * factorial(r)
        for r in range(min(F.degree("w"), G.degree("wbar")) + 1)
    )


def pair_factors(order: int, family: str):
    """Truncations of the two connection generating functions whose
    Gaussian pairing reproduces exp(alpha*beta):

    A(alpha, w) = sum A_{M,n} alpha^M w^n / M!
    B(wbar, beta) = sum wbar^n / n! p_n(beta)

    For the Hermite family both carry z, which cancels in the pairing.
    p_n(beta) is p_n with x renamed, its terms shared.
    """
    row = lookup(family)
    A = Poly.sum((
        row.connection(M, n) * Poly.monomial(Fraction(1, factorial(M)), alpha=M, w=n)
        for M in range(order + 1)
        for n in range(M % 2, M + 1, 2)
    ), ("alpha", "w"))
    B = Poly.sum((
        Poly._of(tuple("beta" if v == "x" else v for v in p.vars), p.terms)
        * Poly.monomial(Fraction(1, factorial(n)), wbar=n)
        for n, p in enumerate(map(row.source, range(order + 1)))
    ), ("beta", "wbar"))
    return A, B


def exp_product_truncation(order: int) -> Poly:
    """sum_{k<=order} (alpha beta)^k / k!, the pairing's expected value."""
    return Poly.sum((
        Poly.monomial(Fraction(1, factorial(k)), alpha=k, beta=k)
        for k in range(order + 1)
    ), ("alpha", "beta"))


def connection_gf_coeff(M: int, order: int):
    """Coefficients (by power of the first GF variable) of the mu^M slice
    of the connection generating function, from its hypergeometric form
    lambda^M / M! 0F1(M + 1/2; lambda^2 / 4)."""
    spec = HyperSpec((), (Fraction(2 * M + 1, 2),), Fraction(1, 4))
    out = [ExactScalar(0)] * (order + 1)
    for j, c in zip(range(M, order + 1, 2), pfq_terms(spec)):
        out[j] = c * Fraction(1, factorial(M))
    return out


def connection_gf_coeff_direct(M: int, order: int):
    """Same slice assembled from the closed-form coefficients."""
    out = [ExactScalar(0)] * (order + 1)
    for j in range(M, order + 1):
        if (j - M) % 2 == 0:
            out[j] = ExactScalar(sj_connection(j, M) * Fraction(1, factorial(j)))
    return out


def reaction_solve(N0: int, t_order: int) -> CoeffSeries:
    """Taylor-in-time solution of d/dt P = (1 - x^2) d^2/dx^2 P with
    monomial initial data x^N0, expanded over the (-1,-1) eigenfamily
    with eigenvalues -n(n-1)."""
    if N0 < 0 or t_order < 0:
        raise ParamError("need N0 >= 0 and t_order >= 0")
    modes = []
    for n in range(N0 % 2, N0 + 1, 2):
        a = sj_connection(N0, n)
        if a:
            modes.append((a, -Fraction(n * (n - 1)), sj_family(n)))
    coeffs = [
        Poly.sum([pn * (a * lam**j / factorial(j)) for a, lam, pn in modes], ("x",))
        for j in range(t_order + 1)
    ]
    return CoeffSeries(coeffs, t_order)


def reaction_residual(series: CoeffSeries) -> CoeffSeries:
    """d/dt of the solution minus the generator applied to it, per t-order;
    identically zero is the verification target."""
    if series.order == 0:
        return CoeffSeries([Poly.zero()], 0)
    out = []
    for j in range(series.order):
        rhs = jacobi_operator_apply(series.coeffs[j], -1, -1)
        out.append(series.coeffs[j + 1] * (j + 1) - rhs)
    return CoeffSeries(out, series.order - 1)
