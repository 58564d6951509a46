"""Polynomial families and their exponential generating functions.

Covers the classical Jacobi polynomials, both Sobolev-Jacobi families (the
degenerate (-1,-1) case and the (-1, beta>-1) case), the two-variable
Hermite polynomials, and the shifted EGF for the beta > -1 family.
Generalized binomials are Pochhammer quotients, so every coefficient is
exact.

The three Jacobi-type families, and the shifted beta EGF, are served by
one O(n) coefficient recurrence, jacobi_monic, which runs on integer
numerators over one denominator; the closed forms
(jacobi_classical, sj_closed_mm, sj_closed_beta), the umbral
construction and the Tricomi-Bessel product form of the shifted EGF
(egf_beta_shifted_tricomi) stay as cross-checks for the tests and the
verify suites.  The closed forms share _binomial_basis_sum, which sums the
integer binomial rows of (x-1)^(n-k) (x+1)^k with the coefficients put
over one denominator, the caller's outer scale folded into it, and makes
one Fraction per output term.

The two-variable Hermite path (H_n, its EGF coefficient and its (-1,-1)
image under hermite_image) builds each coefficient from integers: the
matching numbers by their integer ratio recurrence, and each image term
as one Fraction over its denominator times an integer weight.

The reference rows that these families reproduce, tests/data/table_a1.txt,
are parsed by the test suite (tests/conftest.py), not by this package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .errors import ParamError
from .hyper import tricomi_coeff
from .poly import CoeffSeries, Poly
from .scalar import (
    ONE,
    ExactScalar,
    _exact,
    half,
    pochhammer,
    recip_gamma,
)
from .umbral import GenMonomial, GenSeries, itransform_scalar

HERMITE_SECOND_VAR = "z"
_HERMITE_VARS = ("x", HERMITE_SECOND_VAR)


def binom_general(a, k: int) -> Fraction:
    """binomial(a, k) for arbitrary rational a: (a-k+1)_k / k!."""
    if k < 0:
        return Fraction(0)
    return pochhammer(Fraction(a) - k + 1, k) / factorial(k)


def _classical_params(alpha, beta):
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ParamError(
            f"classical Jacobi needs alpha, beta > -1, got ({alpha}, {beta})")
    return alpha, beta


def _beta_param(beta) -> Fraction:
    beta = Fraction(beta)
    if beta <= -1:
        raise ParamError(f"needs beta > -1, got {beta}")
    return beta


def jacobi_monic(n: int, alpha, beta, lead: ExactScalar = ONE) -> Poly:
    """Monic degree-n eigenpolynomial of the Jacobi operator at parameters
    (alpha, beta), both >= -1, times lead, a nonzero ExactScalar.

    The terminating resolvent (D-n)^{-1}(D+n+alpha+beta+1)^{-1}(d^2 +
    (beta-alpha) d) acting on coefficients gives, from c_n = 1 down,
        c_k (k-n)(k+n+alpha+beta+1) = (k+2)(k+1) c_{k+2} + (beta-alpha)(k+1) c_{k+1}.
    A zero factor leaves the right-hand side unchanged (the identity-on-
    kernel completion of opcalc.gp_series); that happens only at n = 1,
    (-1, -1), where the right-hand side is zero.  Degree 0 is the constant
    Poly with no variables, as the closed forms return it.

    The steps run on integers: times q = lcm(den alpha, den beta) the
    factor and the right-hand side have integer coefficients, c_{k+1} and
    c_{k+2} are integer numerators over one denominator reduced by their
    gcd at every step, and one Fraction is made per output term.  The
    recurrence is linear, so it starts from c_n = lead and each term comes
    out scaled, in its one Fraction, with lead's sqrt(pi) grade.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < -1 or beta < -1:
        raise ParamError(f"parameters must be >= -1, got ({alpha}, {beta})")
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(lead)
    q = lcm(alpha.denominator, beta.denominator)
    ba, sh = int((beta - alpha) * q), int((alpha + beta + 1) * q)
    # c_(k+1) = u / P and c_(k+2) = v / P with gcd(u, v, P) = 1, h = gcd(u, P)
    u, P = lead.rat.as_integer_ratio()
    v, h, grade = 0, 1, lead.sqrt_pi_pow
    terms = {(n,): lead}
    for k in range(n - 1, -1, -1):
        f = (k - n) * ((k + n) * q + sh) or q
        u, v, P = q * (k + 2) * (k + 1) * v + ba * (k + 1) * u, u * f, P * f
        g = gcd(u, f * h)  # gcd(v, P) = f h, so g = gcd(u, v, P) at small cost
        u, v, P = u // g, v // g, P // g
        h = P  # gcd(u, P): P itself at u = 0, else P over the reduced denominator
        if u:
            c = Fraction(u, P)
            terms[(k,)] = _exact(c, grade)
            h //= c.denominator
    return Poly._of(("x",), terms)


def _binomial_basis_sum(n: int, coeff, scale: Fraction) -> Poly:
    """scale * sum_{k<=n} coeff(k) (x-1)^(n-k) (x+1)^k over x, on integers.

    The coeff(k) are put over their lcm q, and the integer numerators are
    summed by Horner's rule T_k = (x-1) T_(k-1) + q coeff(k) (x+1)^k, the
    binomial row of (x+1)^k built from the one before; scale is folded into
    the one denominator, and one Fraction is made per output term.
    """
    cs = [Fraction(coeff(k)) for k in range(n + 1)]
    q = lcm(*[c.denominator for c in cs])
    row, acc = [1], [cs[0].numerator * (q // cs[0].denominator)]
    for c in cs[1:]:
        row = [lo + hi for lo, hi in zip([0, *row], [*row, 0])]
        acc = [lo - hi for lo, hi in zip([0, *acc], [*acc, 0])]
        if c:
            m = c.numerator * (q // c.denominator)
            acc = [a + m * r for a, r in zip(acc, row)]
    num, den = scale.numerator, q * scale.denominator
    return Poly._of(("x",), {
        (j,): _exact(Fraction(a * num, den), 0) for j, a in enumerate(acc) if a
    })


def jacobi_classical(n: int, alpha, beta) -> Poly:
    """Classical Jacobi polynomial of degree n, parameters > -1, from its
    closed form; cross-check for jacobi_family."""
    alpha, beta = _classical_params(alpha, beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    return _binomial_basis_sum(
        n, lambda k: binom_general(n + alpha, k) * binom_general(n + beta, n - k),
        Fraction(1, 2**n),
    )


def sj_closed_mm(n: int, gamma=0) -> Poly:
    """Kwon-Littlejohn closed form at parameters (-1, -1); degree one keeps
    the free constant gamma.  Cross-check for sj_family."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return Poly.var("x") + Fraction(gamma)
    # the k = 0 and k = n coefficients are binom(n-1, n) = 0
    return _binomial_basis_sum(
        n, lambda k: comb(n - 1, k) * comb(n - 1, n - k),
        1 / binom_general(2 * n - 2, n),
    )


def sj_closed_beta(n: int, beta) -> Poly:
    """Closed form at parameters (-1, beta) for beta > -1; coincides with
    the monic classical Jacobi polynomial of the same parameters.
    Cross-check for sj_beta_family."""
    beta = _beta_param(beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(1)
    return _binomial_basis_sum(
        n, lambda k: comb(n - 1, k) * binom_general(n + beta, n - k),
        1 / binom_general(2 * n + beta - 1, n),
    )


def sj_beta_rescaled(n: int, beta) -> Poly:
    """The rescaled variant binom(2n+beta-1, n) / Gamma(n+beta+1) times the
    closed form; beta must be a half-integer so the gamma value is exact."""
    beta = Fraction(beta)
    if beta.denominator not in (1, 2):
        raise ParamError(f"rescaling needs half-integer beta, got {beta}")
    if n == 0:
        return Poly.const(1)
    scale = ExactScalar(binom_general(2 * n + beta - 1, n)) * recip_gamma(
        half(beta) + (n + 1)
    )
    return sj_closed_beta(n, beta) * scale


def matching_coeff(n: int, k: int) -> int:
    """n! / ((n-2k)! k!) when 0 <= 2k <= n, else 0."""
    if k < 0 or 2 * k > n:
        return 0
    return factorial(n) // (factorial(n - 2 * k) * factorial(k))


def _matching_numbers(n: int):
    """n!/((n-2m)! m!) for m = 0 .. n//2, each from the one before by the
    integer ratio (n-2m)(n-2m-1)/(m+1)."""
    c = 1
    for m in range(n // 2 + 1):
        yield c
        c = c * (n - 2 * m) * (n - 2 * m - 1) // (m + 1)


def hermite_closed(n: int) -> Poly:
    """Two-variable Hermite polynomial, combinatorial closed form:
    the sum over m of matching_coeff(n, m) x^(n-2m) z^m."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    return Poly._of(_HERMITE_VARS, {
        (n - 2 * m, m): _exact(Fraction(c), 0)
        for m, c in enumerate(_matching_numbers(n))
    })


def _hermite_egf_coeff(n: int) -> Poly:
    """H_n / n!, the sum over m of x^(n-2m) z^m / ((n-2m)! m!); each
    denominator is the integer n! over a matching number."""
    f = factorial(n)
    return Poly._of(_HERMITE_VARS, {
        (n - 2 * m, m): _exact(Fraction(1, f // c), 0)
        for m, c in enumerate(_matching_numbers(n))
    })


def sj_umbral(n: int) -> Poly:
    """Degree-n (-1,-1) polynomial as the transform of
    (uv)^(n-1/2) H_n(x, -1/(4u))."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    terms = []
    nh = half(Fraction(2 * n - 1, 2))  # n - 1/2
    for m in range(n // 2 + 1):
        coeff = Poly.var("x", n - 2 * m) * Fraction(-1, 4) ** m * matching_coeff(n, m)
        terms.append(
            GenMonomial(coeff, u_exps={"u": nh - m}, v_exps={"v": nh})
        )
    return itransform_scalar(GenSeries(terms, lambda_order=0))


def _image_weight(a: int, m: int) -> int:
    """The signed integer W = 1 / ((-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2))
    = (-1)^m 2^m prod_{j<m} (2a+2m-1+2j); the factors are odd."""
    w = prod(range(2 * a + 2 * m - 1, 2 * a + 4 * m - 1, 2)) << m
    return -w if m % 2 else w


def hermite_image(p: Poly) -> Poly:
    """The (-1,-1) image of a Hermite polynomial under the integral
    transform: x^a z^m goes to (-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2) x^a,
    the transform of (uv)^(a+2m-1/2) x^a (-1/(4u))^m.  Other variables
    (such as mu) are carried through; the image of H_N is p_N.  Each term
    is one Fraction, its numerator over its denominator times the integer
    _image_weight, and keeps its sqrt(pi) grade; the terms that land on
    one key are summed by Poly._collect."""
    vars = p.vars
    ia = vars.index("x") if "x" in vars else None
    im = vars.index(HERMITE_SECOND_VAR) if HERMITE_SECOND_VAR in vars else None
    keep = [i for i in range(len(vars)) if i != im]
    pairs = []
    for exps, c in p.terms.items():
        a = exps[ia] if ia is not None else 0
        m = exps[im] if im is not None else 0
        q = c.rat
        r = Fraction(q.numerator, q.denominator * _image_weight(a, m))
        pairs.append((tuple(exps[i] for i in keep), _exact(r, c.sqrt_pi_pow)))
    return Poly._collect(tuple(vars[i] for i in keep), pairs)


def sj_egf_coeff(N: int) -> Poly:
    """Coefficient of the N-th power of the series parameter in the
    (-1,-1) EGF at y = 1: the image of H_N / N!, which equals
    sj_umbral(N)/N!.  The image of each term x^(N-2m) z^m c_m / N! is
    made at once, as the one Fraction 1 / ((N!/c_m) W(N-2m, m)) with
    c_m the matching number and W the _image_weight."""
    if N < 0:
        raise ParamError("order must be >= 0")
    f = factorial(N)
    return Poly._of(("x",), {
        (N - 2 * m,): _exact(Fraction(1, f // c * _image_weight(N - 2 * m, m)), 0)
        for m, c in enumerate(_matching_numbers(N))
    })


# Canonical per-degree sources, the source column of connect's family table.

@lru_cache(maxsize=None)
def sj_family(n: int) -> Poly:
    """(-1,-1) family with the degree-one constant fixed to zero."""
    return jacobi_monic(n, -1, -1)


def sj_beta_family(n: int, beta) -> Poly:
    """(-1, beta) family for beta > -1."""
    return jacobi_monic(n, -1, _beta_param(beta))


def jacobi_family(n: int, alpha, beta) -> Poly:
    """Classical Jacobi polynomial, parameters > -1: the monic one scaled
    by its leading coefficient binomial(2n+alpha+beta, n) / 2^n."""
    alpha, beta = _classical_params(alpha, beta)
    monic = jacobi_monic(n, alpha, beta)
    lead = binom_general(2 * n + alpha + beta, n) / 2**n
    # the zero keeps the variable x at degree 0, as jacobi_classical does
    return Poly.zero(("x",)) + monic * lead


@lru_cache(maxsize=None)
def hermite_family(n: int) -> Poly:
    return hermite_closed(n)


def hermite_egf(order: int) -> CoeffSeries:
    """EGF truncation: coefficient of the n-th power is H_n / n!."""
    return CoeffSeries.build(_hermite_egf_coeff, order)


def sj_egf(order: int) -> CoeffSeries:
    """EGF truncation of the (-1,-1) family."""
    return CoeffSeries.build(sj_egf_coeff, order)


def tricomi_series(alpha, zpoly: Poly, order: int) -> CoeffSeries:
    """Series sum_r z^r / (r! Gamma(r+alpha+1)) with z = lambda * zpoly."""
    return CoeffSeries.build(lambda r: zpoly**r * tricomi_coeff(alpha, r), order)


def _half_int_beta(beta) -> Fraction:
    beta = _beta_param(beta)
    if beta.denominator not in (1, 2):
        raise ParamError(f"exact evaluation needs half-integer beta, got {beta}")
    return beta


def egf_beta_shifted(order: int, beta) -> CoeffSeries:
    """The 1-shifted EGF of the rescaled (-1, beta) family: the coefficient
    of lambda^n is sj_beta_rescaled(n+1, beta) / n!, built as
    jacobi_monic(n+1, -1, beta) binom(2n+beta+1, n+1) / (n! Gamma(n+beta+2)).
    beta must be a half-integer > -1."""
    beta = _half_int_beta(beta)
    hb = half(beta)

    def coeff(n):
        scale = ExactScalar(
            binom_general(2 * n + beta + 1, n + 1) / factorial(n)
        ) * recip_gamma(hb + (n + 2))
        return jacobi_monic(n + 1, -1, beta, scale)

    return CoeffSeries.build(coeff, order)


def egf_beta_shifted_tricomi(order: int, beta) -> CoeffSeries:
    """(x-1) C_1(-lambda(x-1)) C_beta(-lambda(x+1)), the Tricomi-Bessel
    product form of egf_beta_shifted; a cross-check for the tests."""
    beta = _half_int_beta(beta)
    x = Poly.var("x")
    c1 = tricomi_series(1, x - 1, order)
    cb = tricomi_series(half(beta), x + 1, order)
    return (c1 * cb) * (x - 1)
