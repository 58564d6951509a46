"""Connection coefficients, formal Gaussian pairing, and the decay demo.

The connection coefficients expand x^M over a polynomial family; the
defining identity x^M = sum_n A_{M,n} p_n(x) is the arbiter for every
formula here.  The complex-Gaussian moment integral is never integrated:
the pairing rule w^r wbar^s -> r! delta_{r,s} is taken as the definition.
The sums over n visit only the n whose weight is not zero by parity (and,
for the contraction, the n >= L whose p_n has an x^L term); a negative
index names no polynomial and is refused with ParamError.
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
from .scalar import ZERO, ExactScalar, _pair, _ratio


def _sj_weight(M: int, n: int) -> tuple:
    """The (-1,-1) weight of p_n in x^M for 0 <= n <= M of M's parity, as an
    integer pair (num, den), den > 0 and not reduced."""
    return (
        factorial(2 * n) * factorial(M) * factorial((M + n) // 2),
        factorial(n) ** 2 * factorial(M + n) * factorial((M - n) // 2),
    )


def sj_connection(M: int, n: int) -> ExactScalar:
    """Weight of the degree-n (-1,-1) polynomial in x^M; zero for odd M+n."""
    if n > M or n < 0 or M < 0:
        raise IndexError(f"connection index n={n} outside 0..{M}")
    if (M + n) % 2:
        return ZERO
    return _ratio(*_sj_weight(M, n), 0)


def hermite_connection(M: int, n: int) -> Poly:
    """Weight of H_n in x^M: (-z)^k M! / (k! n!) with k = (M-n)/2."""
    if n > M or n < 0 or M < 0:
        raise IndexError(f"connection index n={n} outside 0..{M}")
    if (M - n) % 2:
        return Poly.zero((HERMITE_SECOND_VAR,))
    k = (M - n) // 2
    w = factorial(M) // (factorial(k) * factorial(n))  # C(M, n) (2k)! / k!
    w = -w if k % 2 else w
    return Poly._term_over((HERMITE_SECOND_VAR,), 0, (k,), w, 1) if k else Poly.const(w)


class Family(NamedTuple):
    """A row of the family table: the source n -> p_n, the EGF truncation,
    the weight (M, n) -> A_{M,n} of p_n in x^M (an ExactScalar, or a Poly
    in z),
    the closed lacunary form (a cross-check) and the image map H_n -> p_n."""

    source: Callable
    egf: Callable
    connection: Callable
    lacunary_closed: Callable
    image: Callable

    def image_of(self, series: CoeffSeries) -> CoeffSeries:
        """The image of a Hermite series, such as a lacunary slice."""
        return CoeffSeries([self.image(c) for c in series.coeffs], series.order)


# Each row is built on each lookup from the module globals, so a builder
# rebound in its module (a patch, a wrapper) is used; only the row asked
# for is built.

def _sj_row() -> Family:
    return Family(sj_family, sj_egf, sj_connection,
                  lacunary.sj_lacunary_closed, hermite_image)


def _hermite_row() -> Family:
    return Family(hermite_family, hermite_egf, hermite_connection,
                  lacunary.hermite_lacunary_closed, lambda p: p)


_ROWS = {"sj": _sj_row, "hermite": _hermite_row}

FAMILIES = tuple(_ROWS)


def lookup(family: str) -> Family:
    """The table's row for a family name; ParamError for an unknown one."""
    try:
        row = _ROWS[family]
    except KeyError:
        raise ParamError(f"unknown family {family!r}") from None
    return row()


def _check_index(name: str, value: int) -> None:
    if value < 0:
        raise ParamError(f"{name} must be >= 0, got {value}")


def reconstruct_monomial(M: int, family: str) -> Poly:
    """sum_n A_{M,n} p_n(x) over the n of M's parity (the other weights
    are zero); must equal x^M exactly."""
    _check_index("M", M)
    row = lookup(family)
    terms = (row.source(n) * row.connection(M, n) for n in range(M % 2, M + 1, 2))
    return Poly.sum(terms, ("x",))


def biorthogonality_check(M: int, L: int, family: str) -> ExactScalar:
    """Contraction of backward (connection) against forward (expansion)
    coefficients; the defining identity forces delta_{M,L}.  Only the n
    of M's parity with L <= n <= M can contribute: the other weights are
    zero, and p_n has no x^L term below degree L."""
    _check_index("M", M)
    _check_index("L", L)
    row = lookup(family)
    parts = []
    for n in range(L + (M - L) % 2, M + 1, 2):
        b = row.source(n).coeff_of("x", L)
        if b:
            parts.append(b * row.connection(M, n))
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
    p_n(beta) is p_n with x renamed, its stored integers shared.
    """
    _check_index("order", order)
    row = lookup(family)
    A = Poly.sum((
        Poly.monomial(_pair(1, factorial(M), 0), alpha=M, w=n) * row.connection(M, n)
        for M in range(order + 1)
        for n in range(M % 2, M + 1, 2)
    ), ("alpha", "w"))
    B = Poly.sum((
        p._renamed(tuple("beta" if v == "x" else v for v in p.vars))
        * Poly.monomial(_pair(1, factorial(n), 0), wbar=n)
        for n, p in enumerate(map(row.source, range(order + 1)))
    ), ("beta", "wbar"))
    return A, B


def exp_product_truncation(order: int) -> Poly:
    """sum_{k<=order} (alpha beta)^k / k!, the pairing's expected value."""
    _check_index("order", order)
    return Poly.sum((
        Poly.monomial(_pair(1, factorial(k), 0), alpha=k, beta=k)
        for k in range(order + 1)
    ), ("alpha", "beta"))


def connection_gf_coeff(M: int, order: int):
    """Coefficients (by power of the first GF variable) of the mu^M slice
    of the connection generating function, from its hypergeometric form
    lambda^M / M! 0F1(M + 1/2; lambda^2 / 4)."""
    _check_index("M", M)
    _check_index("order", order)
    spec = HyperSpec((), (Fraction(2 * M + 1, 2),), _pair(1, 4, 0))
    out = [ExactScalar(0)] * (order + 1)
    terms = pfq_terms(spec, _pair(1, factorial(M), 0))
    for j, c in zip(range(M, order + 1, 2), terms):
        out[j] = c
    return out


def connection_gf_coeff_direct(M: int, order: int):
    """Same slice assembled from the closed-form coefficients."""
    out = [ExactScalar(0)] * (order + 1)
    for j in range(M, order + 1):
        if (j - M) % 2 == 0:
            num, den = _sj_weight(j, M)
            out[j] = _ratio(num, den * factorial(j), 0)
    return out


def reaction_solve(N0: int, t_order: int) -> CoeffSeries:
    """Taylor-in-time solution of d/dt P = (1 - x^2) d^2/dx^2 P with
    monomial initial data x^N0: the exponential operator exp(tG) x^N0 with
    G = (1 - x^2) d^2/dx^2.  j! c_j = G^j x^N0 has integer coefficients,
    each from the one before by G x^k = k(k-1) x^(k-2) - k(k-1) x^k, and
    c_j is those integers over j!."""
    if N0 < 0 or t_order < 0:
        raise ParamError("need N0 >= 0 and t_order >= 0")
    ks = range(N0, -1, -2)
    nums = [1] + [0] * (len(ks) - 1)  # j! c_j, the x^k coefficient at k = ks[i]
    coeffs, jf = [], 1
    for j in range(t_order + 1):
        jf *= j or 1
        coeffs.append(Poly._over(("x",), 0, jf, {(k,): c for k, c in zip(ks, nums)}))
        w = [k * (k - 1) * c for k, c in zip(ks, nums)]
        nums = [lo - here for lo, here in zip([0, *w], w)]
    return CoeffSeries(coeffs, t_order)


def reaction_modes(N0: int, t_order: int) -> CoeffSeries:
    """reaction_solve expanded over the (-1,-1) eigenfamily with eigenvalues
    -n(n-1): x^N0 = sum_n A_{N0,n} p_n, so c_j = sum_n A_{N0,n}
    (-n(n-1))^j / j! p_n.  A cross-check for verify.reaction."""
    if N0 < 0 or t_order < 0:
        raise ParamError("need N0 >= 0 and t_order >= 0")
    modes = [
        (*_sj_weight(N0, n), -n * (n - 1), sj_family(n))
        for n in range(N0 % 2, N0 + 1, 2)
    ]
    coeffs = [
        Poly.sum([
            pn * _ratio(num * lam**j, den * factorial(j), 0)
            for num, den, lam, pn in modes
        ], ("x",))
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
