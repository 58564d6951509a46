"""Lacunary exponential generating functions.

The ground truth is the multisection oracle: direct index selection
p_{K n + L} from a per-degree family source (_selected, one source call
per power of lambda and the one guard on K, L and order).  Against it are
checked the closed hypergeometric forms for the Hermite family, the closed
forms for the (-1,-1) family obtained from the Hermite ones by Pochhammer
proliferation, and the mu^L slices of the shifted generators for both,
each built here as integers (vars, den, nums): numerators over one
denominator, keyed by the power of lambda and then the exponents over
vars.  verify compares them, cross-multiplied, with the stored integers
of each p_{K k + L} times k! (Poly._first_unequal); the tests build
their CoeffSeries (tests/reference.py).

The Hermite closed form is one kernel, _closed_nums, one pass over the
cells of one generator (_hermite_cells, s outer and beta inner, each cell
a plain tuple whose start pair is a running matching-number product over
a running s!): each cell's hypergeometric series, read as reduced integer
pairs from hyper._pair_terms and started at the cell's start pair, is
written term by term into one dict, and its numerators are brought over
the lcm of the distinct denominators.  The shifted
Hermite generator is exp(mu (x + 2z d/dx)) applied to the closed form,
so L! times its mu^L slice, which the CLI and verify check, is the
closed form raised L times by the Hermite raising operator (_raise_nums);
the whole generator is built only by the tests.  The (-1,-1) slice is
the Hermite one mapped once by the image column of connect's family
table (families._image_grade): the paper's transform after
lambda -> lambda (uv)^K, mu -> mu uv, z -> -1/(4u): at lambda^j mu^a
each x^b z^m has b + 2m = Kj + a, so it gains (uv)^(b+2m-1/2) (-1/(4u))^m.

The (-1,-1) closed forms, a cross-check, are *constructed* by applying
the proliferation transform to the Hermite cells, their integer
parameters put into a HyperSpec (hyper._spec), rather than transcribed
from their final printed shape; the tests evaluate the printed parameter
lists from the same cells, as the cell list of tests/reference.py builds
them (the construction that _hermite_cells replaced, kept as its
cross-check), so the two conventions can be compared.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .errors import ParamError
from .families import _HERMITE_VARS
from .hyper import _pair_terms, _spec, pfq_terms, pochhammer_proliferate
from .poly import CoeffSeries
from .scalar import HalfInt, _pair, _ratio

_LAMBDA_VARS = ("lambda", *_HERMITE_VARS)  # of _closed_nums' integers


def _selected(source, K: int, L: int, order: int) -> list:
    """p_{K n + L} for n = 0 .. order: one source call per power of lambda."""
    if K < 1 or L < 0 or order < 0:
        raise ParamError(f"bad lacunary parameters K={K}, L={L}, order={order}")
    return [source(K * n + L) for n in range(order + 1)]


def multisection_oracle(source, K: int, L: int, order: int) -> CoeffSeries:
    """sum_n lambda^n / n! p_{K n + L}, by direct index selection; each
    p_{K n + L} is scaled by 1/n! on its stored integers, keeping its
    sqrt(pi) grades and its variables."""
    return CoeffSeries([p * _pair(1, factorial(n), 0)
                        for n, p in enumerate(_selected(source, K, L, order))], order)


def _steps(K: int):
    """(lam_step, y_step, arg) at K: index m of a Hermite cell's hypergeometric
    series, at the argument arg, an integer pair, carries
    lambda^(lam_step m) y^(y_step m)."""
    if K % 2 == 0:
        return 1, K // 2, ((2 * K) ** (K // 2), 1)
    return 2, K, ((4 * K) ** K // 4, 1)  # (4K)^K / 4 = 4^(K-1) K^K


def _hermite_cells(K: int, order: int):
    """The (beta, s) cells of the closed Hermite lacunary series, s outer and
    beta inner, each the plain tuple (beta, s, start, upper, lower): start
    times the hypergeometric series in upper, lower, at
    x^(K s - 2 beta) y^beta lambda^s; its argument and the powers of lambda
    and y per series index depend on K alone (_steps).  By the parity of K
    (K = 1 rides the odd branch), beta < K/2 or beta < K, and the upper
    parameters are s + (j + 1)/K or s/2 + (j + 1)/(2K); they are made once
    per s and the lower ones once per beta, as hyper._pair_terms takes
    them: (numerators, denominators), den > 0, not reduced.  start is
    (K s)! / ((K s - 2 beta)! beta! s!) in lowest terms, for 2 beta <= K s:
    the matching number of K s at beta, a running product by the ratio
    (K s - 2 beta)(K s - 2 beta - 1) / (beta + 1), over a running s!,
    reduced by one gcd."""
    betas, top = (K // 2, K) if K % 2 == 0 else (K, 2 * K)
    lowers = [(tuple(beta + ell + 1 for ell in range(betas) if ell != betas - 1 - beta),
               (betas,) * (betas - 1)) for beta in range(betas)]
    dens = (top,) * (top - 1 - K % 2)  # K - 1 upper parameters, or 2K - 2
    f = 1  # s!
    for s in range(order + 1):
        f *= s or 1
        Ks = K * s
        upper = (*range(Ks + 1, Ks + K), *range(Ks + K + 1, Ks + top)), dens
        c = 1  # the matching number of K s at beta
        for beta in range(min(betas, Ks // 2 + 1)):
            g = gcd(c, f)
            yield beta, s, (c // g, f // g), upper, lowers[beta]
            c = c * (Ks - 2 * beta) * (Ks - 2 * beta - 1) // (beta + 1)


def _over_lcm(terms: dict) -> tuple:
    """(den, nums): the lcm of the distinct denominators of terms, a map
    from keys to integer pairs (num, den), and each numerator over it."""
    den = lcm(*{d for _, d in terms.values()})
    return den, {key: n * (den // d) for key, (n, d) in terms.items()}


def _closed_nums(K: int, order: int) -> tuple:
    """The closed Hermite lacunary form up to lambda^order over _LAMBDA_VARS,
    as (den, nums): sum series[m] x^(K s - 2 beta) y^(beta + y_step m)
    lambda^(s + lam_step m) over the cells and m, series the cell's terms
    from hyper._pair_terms started at its start pair, each written under
    the key (k, x exponent, y exponent), k the power of lambda, and brought
    over one denominator (_over_lcm).  No two terms share a key: the
    exponent of x fixes s and beta (beta < K), and then k fixes m."""
    lam_step, y_step, arg = _steps(K)
    terms = {}
    for beta, s, start, upper, lower in _hermite_cells(K, order):
        x_pow = K * s - 2 * beta
        y = beta
        for k, t in zip(range(s, order + 1, lam_step),
                        _pair_terms(upper, lower, arg, start)):
            terms[k, x_pow, y] = t
            y += y_step
    return _over_lcm(terms)


def _raise_nums(nums: dict, L: int) -> dict:
    """(x + 2z d/dx)^L, the raising operator of H_{n+1} = (x + 2z d/dx) H_n,
    on numerators nums keyed (j, e, m) over one denominator: a step sends
    lambda^j x^e z^m to lambda^j (x^(e+1) z^m + 2e x^(e-1) z^(m+1)).  nums
    is only read (and given back for L = 0); cancelled numerators stay 0."""
    for _ in range(L):
        step = {(j, e + 1, m): n for (j, e, m), n in nums.items()}
        get = step.get
        for (j, e, m), n in nums.items():
            if e:
                k = j, e - 1, m + 1
                step[k] = get(k, 0) + 2 * e * n
        nums = step
    return nums


def _sj_closed_nums(K: int, order: int) -> tuple:
    """The closed K-tuple (-1,-1) lacunary form up to lambda^order, built
    from the Hermite cells via Pochhammer proliferation (K >= 2; K = 1 is
    the EGF), as integers (vars, den, nums) keyed (k, x exponent), over
    one denominator as _closed_nums brings its terms: the exponent of y
    that _closed_nums keys too is fixed by k and the exponent of x, so
    leaving it out merges no two terms.  After lambda -> lambda (u v)^K and
    y -> -1/(4u), a cell carries u^alpha v^beta' and, before the
    transform's Gamma(alpha)/Gamma(beta'), the scale (-1/4)^beta times its
    start; Gamma(alpha)/Gamma(beta') is rational, alpha - beta' = -beta
    being an integer, so the terms are integer pairs at sqrt(pi) grade 0."""
    if K < 2:
        raise ParamError("closed lacunary form needs K >= 2")
    if K % 2 == 0:
        r, arg = K // 2, _ratio((-K) ** (K // 2), 2 ** (K // 2), 0)
    else:
        r, arg = K, _ratio((-K) ** K, 4, 0)
    lam_step = _steps(K)[0]
    terms = {}
    for beta, s, (num, den), upper, lower in _hermite_cells(K, order):
        alpha = HalfInt(2 * (K * s - beta) - 1)  # K s - beta - 1/2
        beta_p = HalfInt(2 * K * s - 1)  # K s - 1/2
        scale = _ratio((-1) ** beta * num, 4**beta * den, 0)
        spec = _spec(zip(*upper), zip(*lower), arg)
        pref, new = pochhammer_proliferate(alpha, beta_p, r, 2 * r, spec)
        x_pow = K * s - 2 * beta
        for k, t in zip(range(s, order + 1, lam_step), pfq_terms(new, pref * scale)):
            terms[k, x_pow] = t.num, t.den
    return ("lambda", "x"), *_over_lcm(terms)
