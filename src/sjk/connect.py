"""Connection coefficients, formal Gaussian pairing, and the decay demo.

The connection coefficients expand x^M over a polynomial family; the
defining identity x^M = sum_n A_{M,n} p_n(x) is the arbiter for every
formula here.  The complex-Gaussian moment integral is never integrated:
the pairing rule w^r wbar^s -> r! delta_{r,s} is taken as the definition.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ParamError
from .families import HERMITE_SECOND_VAR, hermite_family, sj_family
from .hyper import HyperSpec, pfq_terms
from .opcalc import jacobi_operator_apply
from .poly import CoeffSeries, Poly
from .scalar import ExactScalar

SJ_FAMILY = "sj_mm"
HERMITE_FAMILY = "hermite2"


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


def hermite_connection(M: int, n: int, var: str = HERMITE_SECOND_VAR) -> Poly:
    """Weight of H_n in x^M: (-z)^k M! / (k! n!) with k = (M-n)/2."""
    if n > M or n < 0 or M < 0:
        raise IndexError(f"connection index n={n} outside 0..{M}")
    if (M - n) % 2:
        return Poly.zero((var,))
    k = (M - n) // 2
    c = Fraction(factorial(M), factorial(k) * factorial(n)) * Fraction(-1) ** k
    return Poly.monomial(c, **{var: k})


def _family(family: str):
    if family == SJ_FAMILY:
        return sj_family, lambda M, n: Poly.const(sj_connection(M, n))
    if family == HERMITE_FAMILY:
        return hermite_family, hermite_connection
    raise ParamError(f"unknown family {family!r}")


def reconstruct_monomial(M: int, family: str) -> Poly:
    """sum_n A_{M,n} p_n(x); must equal x^M exactly."""
    source, conn = _family(family)
    return Poly.sum((conn(M, n) * source(n) for n in range(M + 1)), ("x",))


def biorthogonality_check(M: int, L: int, family: str) -> ExactScalar:
    """Contraction of backward (connection) against forward (expansion)
    coefficients; the defining identity forces delta_{M,L}."""
    source, conn = _family(family)
    parts = []
    for n in range(M + 1):
        b = source(n).coeff_of("x", L)
        if b:
            parts.append(conn(M, n) * b)
    return Poly.sum(parts).as_scalar()


def gaussian_pair(F: Poly, G: Poly, w: str = "w", wbar: str = "wbar") -> Poly:
    """Formal Gaussian pairing: replace w^r wbar^s by r! delta_{r,s}."""
    parts = []
    for ef, cf in F.terms.items():
        fr = dict(zip(F.vars, ef)).get(w, 0)
        rest_f = {v: e for v, e in zip(F.vars, ef) if v != w and e}
        for eg, cg in G.terms.items():
            gs = dict(zip(G.vars, eg)).get(wbar, 0)
            if fr != gs:
                continue
            rest_g = {v: e for v, e in zip(G.vars, eg) if v != wbar and e}
            merged = dict(rest_f)
            for v, e in rest_g.items():
                merged[v] = merged.get(v, 0) + e
            parts.append(Poly.monomial(cf * cg * factorial(fr), **merged))
    return Poly.sum(parts)


def pair_factors(order: int, family: str):
    """Truncations of the two connection generating functions whose
    Gaussian pairing reproduces exp(alpha*beta):

    A(alpha, w) = sum A_{M,n} alpha^M w^n / M!
    B(wbar, beta) = sum wbar^n / n! p_n(beta)

    For the Hermite family both carry z, which cancels in the pairing.
    """
    source, conn = _family(family)
    A = Poly.sum((
        conn(M, n) * Poly.monomial(Fraction(1, factorial(M)), alpha=M, w=n)
        for M in range(order + 1)
        for n in range(M % 2, M + 1, 2)
    ), ("alpha", "w"))
    B = Poly.sum((
        source(n).substitute("x", Poly.var("beta"))
        * Poly.monomial(Fraction(1, factorial(n)), wbar=n)
        for n in range(order + 1)
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
