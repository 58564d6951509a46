"""Polynomial families and their exponential generating functions.

Covers the classical Jacobi polynomials, both Sobolev-Jacobi families (the
degenerate (-1,-1) case and the (-1, beta>-1) case), the two-variable
Hermite polynomials, and the shifted EGF for the beta > -1 family.
Generalized binomials are Pochhammer quotients, so every coefficient is
exact.

The three Jacobi-type families, and the shifted beta EGF, are served by
one O(n) coefficient recurrence, jacobi_monic; the closed forms
(jacobi_classical, sj_closed_mm, sj_closed_beta), the umbral
construction and the Tricomi-Bessel product form of the shifted EGF
(egf_beta_shifted_tricomi) stay as cross-checks for the tests and the
verify suites.

The two-variable Hermite path (H_n, its EGF coefficient and its (-1,-1)
image under hermite_image) builds each coefficient from integers: the
matching numbers by their integer ratio recurrence, and each image weight
as one integer product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .errors import ParamError
from .hyper import tricomi_coeff
from .poly import CoeffSeries, Poly
from .scalar import (
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


def jacobi_monic(n: int, alpha, beta) -> Poly:
    """Monic degree-n eigenpolynomial of the Jacobi operator at parameters
    (alpha, beta), both >= -1.

    The terminating resolvent (D-n)^{-1}(D+n+alpha+beta+1)^{-1}(d^2 +
    (beta-alpha) d) acting on coefficients gives, from c_n = 1 down,
        c_k (k-n)(k+n+alpha+beta+1) = (k+2)(k+1) c_{k+2} + (beta-alpha)(k+1) c_{k+1}.
    A zero factor leaves the right-hand side unchanged (the identity-on-
    kernel completion of opcalc.gp_series); that happens only at n = 1,
    (-1, -1), where the right-hand side is zero.  Degree 0 is the constant
    Poly with no variables, as the closed forms return it.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < -1 or beta < -1:
        raise ParamError(f"parameters must be >= -1, got ({alpha}, {beta})")
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(1)
    ba, shift = beta - alpha, n + alpha + beta + 1
    c = [Fraction(0)] * (n + 2)
    c[n] = Fraction(1)
    for k in range(n - 1, -1, -1):
        rhs = (k + 2) * (k + 1) * c[k + 2] + ba * (k + 1) * c[k + 1]
        factor = (k - n) * (k + shift)
        c[k] = rhs / factor if factor else rhs
    return Poly(("x",), {(k,): c[k] for k in range(n + 1)})


def _binomial_basis_sum(n: int, a: Poly, b: Poly, coeff) -> Poly:
    """sum_{k<=n} coeff(k) a^(n-k) b^k over x, skipping the k with
    coeff(k) = 0; the powers of a and b are built once each, by repeated
    multiplication."""
    a_pows, b_pows = [Poly.const(1)], [Poly.const(1)]
    for _ in range(n):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    terms = ((k, coeff(k)) for k in range(n + 1))
    return Poly.sum((a_pows[n - k] * b_pows[k] * c for k, c in terms if c), ("x",))


def jacobi_classical(n: int, alpha, beta) -> Poly:
    """Classical Jacobi polynomial of degree n, parameters > -1, from its
    closed form; cross-check for jacobi_family."""
    alpha, beta = _classical_params(alpha, beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    x = Poly.var("x")
    return _binomial_basis_sum(
        n, (x - 1) * Fraction(1, 2), (x + 1) * Fraction(1, 2),
        lambda k: binom_general(n + alpha, k) * binom_general(n + beta, n - k),
    )


def sj_closed_mm(n: int, gamma=0) -> Poly:
    """Kwon-Littlejohn closed form at parameters (-1, -1); degree one keeps
    the free constant gamma.  Cross-check for sj_family."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(1)
    x = Poly.var("x")
    if n == 1:
        return x + Fraction(gamma)
    scale = 1 / binom_general(2 * n - 2, n)
    # the k = 0 and k = n coefficients are binom(n-1, n) = 0
    return _binomial_basis_sum(
        n, x - 1, x + 1,
        lambda k: binom_general(n - 1, k) * binom_general(n - 1, n - k),
    ) * scale


def sj_closed_beta(n: int, beta) -> Poly:
    """Closed form at parameters (-1, beta) for beta > -1; coincides with
    the monic classical Jacobi polynomial of the same parameters.
    Cross-check for sj_beta_family."""
    beta = _beta_param(beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n == 0:
        return Poly.const(1)
    x = Poly.var("x")
    scale = 1 / binom_general(2 * n + beta - 1, n)
    return _binomial_basis_sum(
        n, x - 1, x + 1,
        lambda k: binom_general(n - 1, k) * binom_general(n + beta, n - k),
    ) * scale


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


def _image_weight(a: int, m: int) -> Fraction:
    """(-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2), as the one integer product
    (-1)^m / (2^m prod_{j<m} (2a+2m-1+2j)); the factors are odd."""
    den = prod(range(2 * a + 2 * m - 1, 2 * a + 4 * m - 1, 2)) << m
    return Fraction(-1 if m % 2 else 1, den)


def hermite_image(p: Poly) -> Poly:
    """The (-1,-1) image of a Hermite polynomial under the integral
    transform: x^a z^m goes to (-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2) x^a,
    the transform of (uv)^(a+2m-1/2) x^a (-1/(4u))^m.  Other variables
    (such as mu) are carried through; the image of H_N is p_N."""
    vars = p.vars
    ia = vars.index("x") if "x" in vars else None
    im = vars.index(HERMITE_SECOND_VAR) if HERMITE_SECOND_VAR in vars else None
    keep = [i for i in range(len(vars)) if i != im]
    pairs = []
    for exps, c in p.terms.items():
        a = exps[ia] if ia is not None else 0
        m = exps[im] if im is not None else 0
        pairs.append((tuple(exps[i] for i in keep), c * _exact(_image_weight(a, m), 0)))
    return Poly._collect(tuple(vars[i] for i in keep), pairs)


def sj_egf_coeff(N: int) -> Poly:
    """Coefficient of the N-th power of the series parameter in the
    (-1,-1) EGF at y = 1: the image of H_N / N!, which equals
    sj_umbral(N)/N!."""
    if N < 0:
        raise ParamError("order must be >= 0")
    return hermite_image(_hermite_egf_coeff(N))


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
        return jacobi_monic(n + 1, -1, beta) * scale

    return CoeffSeries.build(coeff, order)


def egf_beta_shifted_tricomi(order: int, beta) -> CoeffSeries:
    """(x-1) C_1(-lambda(x-1)) C_beta(-lambda(x+1)), the Tricomi-Bessel
    product form of egf_beta_shifted; a cross-check for the tests."""
    beta = _half_int_beta(beta)
    x = Poly.var("x")
    c1 = tricomi_series(1, x - 1, order)
    cb = tricomi_series(half(beta), x + 1, order)
    return (c1 * cb) * (x - 1)


# Golden-data file support: one record per line,
#     <family> <n>: <exp>:<num>/<den> <exp>:<num>/<den> ...
# where <exp> is the x-exponent.  For the hermite family the second
# variable's exponent is implied: z-power = (n - exp) / 2.

def load_golden(path) -> dict:
    """Parse a golden polynomial table; keys are (family, n) pairs."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, body = line.partition(":")
            family, n_str = head.split()
            n = int(n_str)
            monomials = []
            for chunk in body.split():
                exp_str, _, frac = chunk.partition(":")
                exp = int(exp_str)
                num_str, _, den_str = frac.partition("/")
                c = Fraction(int(num_str), int(den_str))
                if family == "hermite":
                    if (n - exp) % 2:
                        raise ValueError(f"bad hermite exponent {exp} at n={n}")
                    monomials.append(Poly.monomial(
                        c, x=exp, **{HERMITE_SECOND_VAR: (n - exp) // 2}
                    ))
                else:
                    monomials.append(Poly.monomial(c, x=exp))
            rows[(family, n)] = Poly.sum(monomials, ("x",))
    return rows
