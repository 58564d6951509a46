"""Lacunary exponential generating functions.

The ground truth is the multisection oracle: direct index selection
p_{K n + L} from a per-degree family source.  Against it are checked the
closed hypergeometric forms for the Hermite family, the closed forms for
the (-1,-1) family obtained from the Hermite ones by Pochhammer
proliferation, and the shifted generators for both.
The shifted Hermite generator is exp(mu (x + 2z d/dx)) applied to the
closed form, so its mu^L slice, which the CLI checks against the oracle,
is the closed form raised L times by the Hermite raising operator.  The
(-1,-1) slice and shifted generator are the Hermite ones mapped termwise
by the image column of connect's family table (families._image_grade),
the paper's transform after lambda -> lambda (uv)^K, mu -> mu uv,
z -> -1/(4u): at lambda^j mu^a each x^b z^m has b + 2m = Kj + a, so it
gains (uv)^(b+2m-1/2) (-1/(4u))^m.  sj_lacunary_closed, the full
generators and mu_slice stay as cross-checks for tests and verify.

The check (verify.lacunary_slices) is one integer pass per request, with
no ExactScalar, HyperSpec or Poly per term.  The closed form comes from
one kernel, _closed_nums: each cell's hypergeometric series, read as
reduced integer pairs from hyper._pair_terms and started at the cell's
scale, lands on its coefficients, all of them numerators over the lcm of
their denominators, keyed by the power of lambda and then the exponents
(_gather).  Those numerators are raised L times on the same integer form
(_raise_nums, which the shift generator also runs), mapped once by the
table's image with lambda carried as a variable, and compared,
cross-multiplied, with the stored integers of each p_{K k + L} times k!,
the oracle's own terms (_selected).  hermite_lacunary_closed and the
(-1,-1) closed forms split the same gathered integers by power
(_series).  The (-1,-1) closed forms, cross-checks, put a cell's integer
parameters into a HyperSpec (hyper._spec), with no Fraction, for the
proliferation to extend.

The (-1,-1) closed forms are *constructed* here by applying the
proliferation transform to the Hermite cells rather than transcribed from
their final printed shape; the tests evaluate the printed parameter lists
from the same cells (_sj_cells) so the two conventions can be compared.
"""

from __future__ import annotations

from itertools import islice
from math import factorial, gcd, lcm
from typing import NamedTuple

from .errors import ParamError
from .families import _HERMITE_VARS, _matching_numbers
from .hyper import _pair_terms, _spec, pfq_terms, pochhammer_proliferate
from .poly import CoeffSeries, Poly
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


class _Cell(NamedTuple):
    """One (beta, s) cell of the closed Hermite lacunary series: scale
    times the hypergeometric series in upper, lower, at
    x^(K s - 2 beta) y^beta lambda^s; its argument and the powers of lambda
    and y per series index depend on K alone (_steps).  scale is an integer
    pair in lowest terms, and upper and lower give the parameters as
    hyper._pair_terms takes them: (numerators, denominators), den > 0,
    not reduced."""

    beta: int
    s: int
    scale: tuple
    upper: tuple
    lower: tuple


def _steps(K: int):
    """(lam_step, y_step, arg) at K: index m of a Hermite cell's hypergeometric
    series, at the argument arg, an integer pair, carries
    lambda^(lam_step m) y^(y_step m)."""
    if K % 2 == 0:
        return 1, K // 2, ((2 * K) ** (K // 2), 1)
    return 2, K, ((4 * K) ** K // 4, 1)  # (4K)^K / 4 = 4^(K-1) K^K


def _hermite_cells(K: int, order: int):
    """The (beta, s) cells of the closed Hermite lacunary series, split by
    the parity of K (K = 2T or K = 2T + 1; K = 1 rides the odd branch).
    The upper parameters depend on s alone and the lower on beta alone,
    so each is made once and shared by the cells.  Cell (beta, s) has scale
    (K s)! / ((K s - 2 beta)! beta! s!), if 2 beta <= K s: per s, the first
    matching numbers of K s (families._matching_numbers), s! carried."""
    T = K // 2
    if K % 2 == 0:  # upper s + (j + 1)/K
        betas = range(T)
        uppers = [(tuple(range(K * s + 1, K * s + K)), (K,) * (K - 1))
                  for s in range(order + 1)]
        lowers = [(tuple(beta + ell + 1 for ell in range(T) if ell != T - 1 - beta),
                   (T,) * (T - 1)) for beta in betas]
    else:  # upper s/2 + (j + 1)/(2K)
        betas = range(K)
        uppers = [((*range(K * s + 1, K * s + K), *range(K * s + K + 1, K * s + 2 * K)),
                   (2 * K,) * (2 * K - 2)) for s in range(order + 1)]
        lowers = [(tuple(beta + ell + 1 for ell in range(K) if ell != K - 1 - beta),
                   (K,) * (K - 1)) for beta in betas]
    scales, f = [], 1  # per s: the matching numbers of K s at beta in betas, s!
    for s in range(order + 1):
        f *= s or 1
        scales.append((list(islice(_matching_numbers(K * s), len(betas))), f))
    cells = []
    for beta in betas:
        for s, (h, f) in enumerate(scales):
            if beta < len(h):
                g = gcd(h[beta], f)
                scale = h[beta] // g, f // g
                cells.append(_Cell(beta, s, scale, uppers[s], lowers[beta]))
    return cells


def _gather(terms, K: int, order: int) -> tuple:
    """Sum series[m] x^(K s - 2 beta) y^(beta + y_step m)
    lambda^(s + lam_step m) over the (cell, series) terms and over m, up to
    lambda^order, series being the cell's hypergeometric terms as the
    reduced integer pairs of hyper._pair_terms, started at its scale, as
    (den, nums): the lcm of all the terms' denominators and each numerator
    over it, keyed (k, x exponent, y exponent), k the power of lambda.  No
    two terms share a key: the exponent of x fixes s and beta (beta < K),
    and then k fixes m."""
    lam_step, y_step, _ = _steps(K)
    rows = []
    for cell, series in terms:
        x_pow, y = K * cell.s - 2 * cell.beta, cell.beta
        for k, (num, den) in zip(range(cell.s, order + 1, lam_step), series):
            rows.append(((k, x_pow, y), num, den))
            y += y_step
    den = lcm(*[d for _, _, d in rows])
    return den, {key: num * (den // d) for key, num, d in rows}


def _closed_nums(K: int, order: int) -> tuple:
    """The closed Hermite lacunary form up to lambda^order over _LAMBDA_VARS,
    each cell's terms read from hyper._pair_terms and _gather'ed."""
    arg = _steps(K)[2]
    return _gather(
        ((cell, _pair_terms(cell.upper, cell.lower, arg, cell.scale))
         for cell in _hermite_cells(K, order)),
        K, order,
    )


def _series(gathered: tuple, vars: tuple, order: int) -> CoeffSeries:
    """The CoeffSeries of integers (den, nums) at grade 0, each key a power
    of the series parameter and then exponents, the first len(vars) of them
    kept: over (x,), _gather's exponent of y is dropped."""
    den, nums = gathered
    rows = [{} for _ in range(order + 1)]
    width = len(vars) + 1
    for key, n in nums.items():
        rows[key[0]][key[1:width]] = n
    return CoeffSeries([Poly._over(vars, 0, den, row) for row in rows], order)


def hermite_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed hypergeometric form of the K-tuple Hermite lacunary series."""
    if K < 1:
        raise ParamError("K must be >= 1")
    return _series(_closed_nums(K, order), _HERMITE_VARS, order)


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


def hermite_lacunary_shift(K: int, mu_order: int, order: int) -> CoeffSeries:
    """Generating function of the L-shifted Hermite lacunary series,
    exp(mu x + mu^2 z) H_{K,0}(lambda; x + 2 mu z, z) truncated in mu.

    Since [x, 2z d/dx] = -2z is central, it equals exp(mu (x + 2z d/dx))
    H_{K,0}(lambda; x, z): L! times its coefficient of mu^L is the closed
    form raised L times (_raise_nums), the (K, L) lacunary series: over
    the closed form's denominator times mu_order!, its numerators raised one
    step per power of mu and times mu_order! / L!.
    """
    den, nums = _closed_nums(K, order)
    shifted, f = {}, factorial(mu_order)  # f = mu_order! / L!
    for L in range(mu_order + 1):
        shifted.update({(k, L, e, m): n * f for (k, e, m), n in nums.items()})
        nums, f = _raise_nums(nums, 1), f // (L + 1)
    return _series((den * factorial(mu_order), shifted), ("mu", *_HERMITE_VARS), order)


def _sj_cells(K: int, order: int):
    """Each Hermite cell after the substitutions lambda -> lambda (u v)^K
    and y -> -1/(4u), as (cell, alpha, beta', scale): the cell carries
    u^alpha v^beta' and, before the transform's Gamma(alpha)/Gamma(beta'),
    the scale (-1/4)^beta times its scale.  Gamma(alpha)/Gamma(beta') is
    rational, alpha - beta' = -beta being an integer, so the (-1,-1)
    closed forms read their terms as integer pairs at sqrt(pi) grade 0."""
    for c in _hermite_cells(K, order):
        alpha = HalfInt(2 * (K * c.s - c.beta) - 1)  # K s - beta - 1/2
        beta_p = HalfInt(2 * K * c.s - 1)  # K s - 1/2
        num, den = c.scale
        yield c, alpha, beta_p, _ratio((-1) ** c.beta * num, 4**c.beta * den, 0)


def sj_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed form of the K-tuple (-1,-1) lacunary series, built from the
    Hermite cells via Pochhammer proliferation (K >= 2; K = 1 is the EGF)."""
    if K < 2:
        raise ParamError("closed lacunary form needs K >= 2")
    if K % 2 == 0:
        r, arg = K // 2, _ratio((-K) ** (K // 2), 2 ** (K // 2), 0)
    else:
        r, arg = K, _ratio((-K) ** K, 4, 0)
    terms = []
    for cell, alpha, beta_p, scale in _sj_cells(K, order):
        spec = _spec(zip(*cell.upper), zip(*cell.lower), arg)
        pref, new = pochhammer_proliferate(alpha, beta_p, r, 2 * r, spec)
        terms.append((cell, ((t.num, t.den) for t in pfq_terms(new, pref * scale))))
    return _series(_gather(terms, K, order), ("x",), order)


def mu_slice(series: CoeffSeries, L: int) -> CoeffSeries:
    """L! times the coefficient of mu^L, coefficient-wise."""
    scale = factorial(L)
    return CoeffSeries(
        [c.coeff_of("mu", L) * scale for c in series.coeffs], series.order
    )

