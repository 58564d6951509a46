"""Polynomial families and their exponential generating functions.

Covers the classical Jacobi polynomials, both Sobolev-Jacobi families (the
degenerate (-1,-1) case and the (-1, beta>-1) case), the two-variable
Hermite polynomials, and the shifted EGF for the beta > -1 family.
Generalized binomials are Pochhammer quotients, so every coefficient is
exact.  Each rational parameter is read once as a reduced integer pair
(scalar._parts, which refuses a float), and the binomials, the closed
forms' coefficients and the EGF scales are integer pairs built from it
(_binom_parts).

The classical and (-1, beta) families and the shifted beta EGF are built by
one O(n) recurrence on integer numerators, jacobi_monic; the (-1,-1) family
by the image chain below.  The recurrence at (-1,-1), the closed forms
(jacobi_classical, sj_closed_mm, sj_closed_beta) and sj_umbral are cross-checks.
The Tricomi-Bessel product form of the shifted EGF, which only the tests
compare, is in tests/reference.py.  The closed forms share
_binomial_basis_sum, which sums the integer binomial rows of
(x-1)^(n-k) (x+1)^k with integer coefficient numerators over one
denominator, the caller's outer scale folded into it.  Each kernel
hands Poly its integer numerators over one denominator, and Poly brings
them to lowest terms once.

The two-variable Hermite path (H_n, its EGF coefficient and its (-1,-1)
image) builds each coefficient from integers: the matching numbers by
their integer ratio recurrence over n!, and the image as those
numerators times the integer weights of one running product per chain
a + 2m = N (_image_ratios), read by _sj_over (p_N over 1 for sj_family, over
N! for sj_egf_coeff) and by _image_grade, the image column of connect's
family table, which maps one sqrt(pi) grade's integers, lambda and mu
carried, for the lacunary checks.

The reference rows that these families reproduce, tests/data/table_a1.txt,
are parsed by the test suite (tests/conftest.py), not by this package.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm, prod

from .errors import ParamError
from .opcalc import _jacobi_weights
from .poly import CoeffSeries, Poly
from .scalar import (
    ONE,
    ExactScalar,
    HalfInt,
    _over_lcm,
    _pair,
    _parts,
    _ratio,
    _text,
    recip_gamma,
)
from .umbral import GenMonomial, GenSeries, itransform_scalar

HERMITE_SECOND_VAR = "z"
_HERMITE_VARS = ("x", HERMITE_SECOND_VAR)


def _falling(p: int, q: int, k: int) -> list:
    """The integer numerators of binomial(p/q, i) over q^i i!, i = 0 .. k:
    the products prod_{j<i} (p - j q)."""
    out = [1]
    for j in range(k):
        out.append(out[-1] * (p - j * q))
    return out


def _binom_parts(p: int, q: int, k: int) -> tuple:
    """binomial(p/q, k) = (p/q - k + 1)_k / k! as an integer pair (num, den),
    den > 0 and not reduced: the _falling product over q^k k!; (0, 1) for
    k < 0."""
    if k < 0:
        return 0, 1
    return _falling(p, q, k)[k], q**k * factorial(k)


def _classical_params(alpha, beta) -> tuple:
    """(q, q alpha, q beta), q the lcm of the denominators; ParamError
    unless both are > -1."""
    q, a, b = _over_lcm(alpha, beta)
    if a <= -q or b <= -q:
        raise ParamError("classical Jacobi needs alpha, beta > -1, got "
                         f"({_text(*_parts(alpha))}, {_text(*_parts(beta))})")
    return q, a, b


def _beta_param(beta) -> tuple:
    """beta as a reduced pair (p, q); ParamError unless beta > -1."""
    p, q = _parts(beta)
    if p <= -q:
        raise ParamError(f"needs beta > -1, got {_text(p, q)}")
    return p, q


def jacobi_monic(n: int, alpha, beta, lead: ExactScalar = ONE) -> Poly:
    """Monic degree-n eigenpolynomial of the Jacobi operator at parameters
    (alpha, beta), both >= -1, times lead, a nonzero ExactScalar.

    The terminating resolvent (D-n)^{-1}(D+n+alpha+beta+1)^{-1}(d^2 +
    (beta-alpha) d) acting on coefficients gives, from c_n = 1 down,
        c_k (k-n)(k+n+alpha+beta+1) = (k+2)(k+1) c_{k+2} + (beta-alpha)(k+1) c_{k+1}.
    At beta = alpha only c_{k+2} enters, so c_{n-1}, c_{n-3}, ... are zero
    and only every other step is taken; the one zero factor, at n = 1,
    (-1, -1), k = 0, is then never met.

    The steps run on integers: times q = lcm(den alpha, den beta) the
    factor f_k and the right-hand side have integer coefficients, read by
    opcalc._jacobi_weights, and every c_k is an integer numerator over P,
    the product of the factors of the steps taken, the k-th one the
    right-hand side's numerator divided exactly by f_k.  The Poly is those
    numerators over P, brought to lowest terms once, then scaled by lead,
    so lead's numerator and denominator meet only the gcds of that
    scaling.
    """
    q, ba, sh = _jacobi_weights(alpha, beta, check=True)
    if n < 0:
        raise ParamError("degree must be >= 0")
    ks = range(n - 1, -1, -1) if ba else range(n - 2, -1, -2)
    f = {k: (k - n) * ((k + n) * q + sh) for k in ks}
    P = prod(f.values())
    nums = {(n,): P}
    if ba:
        u, v = P, 0  # the numerators of c_(k+1) and c_(k+2) over P
        for k in ks:
            u, v = (q * (k + 2) * (k + 1) * v + ba * (k + 1) * u) // f[k], u
            nums[(k,)] = u
    else:
        u = P  # the numerator of c_(k+2) over P
        for k in ks:
            u = q * (k + 2) * (k + 1) * u // f[k]
            nums[(k,)] = u
    monic = Poly._over(("x",), 0, P, nums)
    return monic if lead is ONE else monic * lead


def _binomial_basis_sum(n: int, nums, den: int) -> Poly:
    """sum_{k<=n} nums[k] (x-1)^(n-k) (x+1)^k / den over x, on integers.

    The integer numerators nums[k] are summed by Horner's rule T_k =
    (x-1) T_(k-1) + nums[k] (x+1)^k, the binomial row of (x+1)^k built
    from the one before, and the Poly is the sums over the nonzero den,
    brought to lowest terms once.
    """
    row, acc = [1], [nums[0]]
    for m in nums[1 : n + 1]:
        row = [lo + hi for lo, hi in zip([0, *row], [*row, 0])]
        acc = [lo - hi for lo, hi in zip([0, *acc], [*acc, 0])]
        if m:
            acc = [a + m * r for a, r in zip(acc, row)]
    return Poly._over(("x",), 0, den, {(j,): a for j, a in enumerate(acc)})


def jacobi_classical(n: int, alpha, beta) -> Poly:
    """Classical Jacobi polynomial of degree n, parameters > -1, from its
    closed form 2^-n sum_k binom(n+alpha, k) binom(n+beta, n-k)
    (x-1)^(n-k) (x+1)^k; cross-check for jacobi_family.  Over q^n n! 2^n,
    q the parameters' common denominator, the k-th coefficient has the
    integer numerator A_k B_(n-k) C(n, k), A and B the _falling products
    of n + alpha and n + beta."""
    q, a, b = _classical_params(alpha, beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    A, B = _falling(n * q + a, q, n), _falling(n * q + b, q, n)
    nums = [A[k] * B[n - k] * comb(n, k) for k in range(n + 1)]
    return _binomial_basis_sum(n, nums, q**n * factorial(n) << n)


def sj_closed_mm(n: int, gamma=0) -> Poly:
    """Kwon-Littlejohn closed form at parameters (-1, -1); degree one keeps
    the free constant gamma.  Cross-check for sj_family."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    if n < 2:  # 1, and x + gamma
        return Poly(("x",), {(n,): 1}) + _pair(*_parts(gamma), 0) * n
    # the k = 0 and k = n coefficients are binom(n-1, n) = 0
    return _binomial_basis_sum(
        n, [comb(n - 1, k) * comb(n - 1, n - k) for k in range(n + 1)],
        comb(2 * n - 2, n),
    )


def sj_closed_beta(n: int, beta) -> Poly:
    """Closed form at parameters (-1, beta) for beta > -1; coincides with
    the monic classical Jacobi polynomial of the same parameters.
    Cross-check for sj_beta_family.  It is sum_k C(n-1, k) binom(n+beta,
    n-k) (x-1)^(n-k) (x+1)^k / binom(2n+beta-1, n); with beta = p/q the
    common q^n n! cancels, leaving the integer numerators C(n-1, k)
    B_(n-k) q^k n!/(n-k)! over S, B and S the _falling products of
    n + beta and 2n + beta - 1."""
    p, q = _beta_param(beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    B = _falling(n * q + p, q, n)
    nums = [  # binom(n - 1, k) is 1 at n = k = 0
        comb(max(n - 1, 0), k) * B[n - k] * q**k * (factorial(n) // factorial(n - k))
        for k in range(n + 1)
    ]
    return _binomial_basis_sum(n, nums, _falling((2 * n - 1) * q + p, q, n)[n])


def _matching_numbers(n: int):
    """n!/((n-2m)! m!) for m = 0 .. n//2, each from the one before by the
    integer ratio (n-2m)(n-2m-1)/(m+1)."""
    c = 1
    for m in range(n // 2 + 1):
        yield c
        c = c * (n - 2 * m) * (n - 2 * m - 1) // (m + 1)


def _hermite_over(n: int, den: int) -> Poly:
    """The sum over m of the matching numbers x^(n-2m) z^m over den: H_n
    at den = 1, and its EGF coefficient H_n / n! at den = n!."""
    return Poly._over(_HERMITE_VARS, 0, den, {
        (n - 2 * m, m): c for m, c in enumerate(_matching_numbers(n))
    })


def hermite_closed(n: int) -> Poly:
    """Two-variable Hermite polynomial, the closed form sum_m c_m x^(n-2m) z^m."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    return _hermite_over(n, 1)


def sj_umbral(n: int) -> Poly:
    """Degree-n (-1,-1) polynomial as the transform of
    (uv)^(n-1/2) H_n(x, -1/(4u))."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    terms = []
    v_exps = {"v": HalfInt(2 * n - 1)}  # n - 1/2
    for m, c in enumerate(_matching_numbers(n)):
        # the one term (-1)^m c_m / 4^m x^(n-2m), c_m the matching number
        coeff = Poly._term_over(("x",), 0, (n - 2 * m,), -c if m % 2 else c, 4**m)
        u_exps = {"u": HalfInt(2 * n - 1 - 2 * m)}  # n - 1/2 - m
        terms.append(GenMonomial(coeff, u_exps=u_exps, v_exps=v_exps))
    return itransform_scalar(GenSeries(terms, lambda_order=0))


def _image_ratios(N: int, M: int) -> list:
    """W_M / W_m for m = 0 .. M, W_m the signed integer 1 / ((-1/4)^m
    Gamma(N-m-1/2)/Gamma(N-1/2)), the inverse weight of x^(N-2m) z^m; the
    first entry is W_M, as W_0 = 1.  W_m = -2 (2N-2m-1) W_(m-1), so the
    list is one running product from its end."""
    r = [1]
    for k in range(2 * N - 2 * M - 1, 2 * N - 2, 2):  # k = 2N-2m-1, m = M .. 1
        r.append(r[-1] * -2 * k)
    r.reverse()
    return r


def _image_grade(vars: tuple, den: int, nums: dict) -> tuple:
    """The (-1,-1) image of the terms nums[e] / den x^e over vars at one
    sqrt(pi) grade, as (vars without z, den', nums'): x^a z^m goes to
    (-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2) x^a, the transform of
    (uv)^(a+2m-1/2) x^a (-1/(4u))^m, and other variables (such as mu) are
    carried through.  That factor is 1 / W_m on the chain N = a + 2m, so
    the image is the numerators times w / W_m over den times w, w the lcm
    of each chain's W_M (M its largest m), which every W_m of it divides;
    the terms that land on one key are summed there.  nums is only read,
    and zeros in it are allowed.  The image column of connect's family
    table for the (-1,-1) row."""
    if HERMITE_SECOND_VAR not in vars:
        return vars, den, dict(nums)  # x^a alone has weight 1
    ia = vars.index("x") if "x" in vars else None
    im = vars.index(HERMITE_SECOND_VAR)
    top, terms = {}, []  # top[N]: the largest m on the chain N
    for exps, n in nums.items():
        m = exps[im]
        N = (0 if ia is None else exps[ia]) + 2 * m
        if top.get(N, -1) < m:
            top[N] = m
        terms.append((exps[:im] + exps[im + 1 :], n, N, m))
    ratios = {N: _image_ratios(N, M) for N, M in top.items()}
    w = lcm(*[r[0] for r in ratios.values()])
    scale = {N: w // r[0] for N, r in ratios.items()}  # w / W_m = scale[N] r[m]
    image = {}
    for key, n, N, m in terms:
        image[key] = image.get(key, 0) + n * scale[N] * ratios[N][m]
    return vars[:im] + vars[im + 1 :], den * w, image


def _sj_over(N: int, den: int) -> Poly:
    """The image of H_N over den, p_N at den 1 and p_N / N! at den N!: the
    terms c_m x^(N-2m) z^m of H_N, c_m the matching numbers, lie on the one
    chain N of _image_ratios, so it is the c_m W_M / W_m over den W_M."""
    M = N // 2
    r, c = _image_ratios(N, M), list(_matching_numbers(N))
    nums = {(N - 2 * m,): c[m] * r[m] for m in range(M, -1, -1)}
    return Poly._over(("x",), 0, den * r[0], nums)


def sj_egf_coeff(N: int) -> Poly:
    """Coefficient of the N-th power of the series parameter in the
    (-1,-1) EGF at y = 1: the image of H_N / N!, which equals
    sj_umbral(N)/N!."""
    if N < 0:
        raise ParamError("order must be >= 0")
    return _sj_over(N, factorial(N))


# Canonical per-degree sources, the source column of connect's family table.

@lru_cache(maxsize=None)
def sj_family(n: int) -> Poly:
    """(-1,-1) family with the degree-one constant fixed to zero."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    return _sj_over(n, 1)


def sj_beta_family(n: int, beta) -> Poly:
    """(-1, beta) family for beta > -1."""
    _beta_param(beta)
    return jacobi_monic(n, -1, beta)


def jacobi_family(n: int, alpha, beta) -> Poly:
    """Classical Jacobi polynomial, parameters > -1: the monic one scaled
    by its leading coefficient binomial(2n+alpha+beta, n) / 2^n, which
    jacobi_monic takes as its lead."""
    q, a, b = _classical_params(alpha, beta)
    if n < 0:
        raise ParamError("degree must be >= 0")
    num, den = _binom_parts(2 * n * q + a + b, q, n)
    return jacobi_monic(n, alpha, beta, _ratio(num, den << n, 0))


@lru_cache(maxsize=None)
def hermite_family(n: int) -> Poly:
    return hermite_closed(n)


def hermite_egf(order: int) -> CoeffSeries:
    """EGF truncation: coefficient of the n-th power is H_n / n!."""
    return CoeffSeries.build(lambda n: _hermite_over(n, factorial(n)), order)


def sj_egf(order: int) -> CoeffSeries:
    """EGF truncation of the (-1,-1) family."""
    return CoeffSeries.build(sj_egf_coeff, order)


def _half_int_beta(beta) -> int:
    """Twice beta; ParamError unless beta is a half-integer > -1."""
    p, q = _beta_param(beta)
    if q not in (1, 2):
        raise ParamError(
            f"exact evaluation needs half-integer beta, got {_text(p, q)}")
    return p * (2 // q)


def egf_beta_shifted(order: int, beta) -> CoeffSeries:
    """The 1-shifted EGF of the rescaled (-1, beta) family: the coefficient
    of lambda^n is sj_beta_rescaled(n+1, beta) / n!, built as
    jacobi_monic(n+1, -1, beta) binom(2n+beta+1, n+1) / (n! Gamma(n+beta+2)).
    beta must be a half-integer > -1.  With beta = t/2 the binomial over
    n! is one integer pair, and the scale one product of it with the
    reciprocal Gamma value."""
    t = _half_int_beta(beta)

    def coeff(n):
        num, den = _binom_parts(4 * n + 2 + t, 2, n + 1)
        scale = _ratio(num, den * factorial(n), 0) * recip_gamma(
            HalfInt(t + 2 * (n + 2)))
        return jacobi_monic(n + 1, -1, beta, scale)

    return CoeffSeries.build(coeff, order)

