"""Lacunary exponential generating functions.

The ground truth is the multisection oracle: direct index selection
p_{K n + L} from a per-degree family source.  Against it are checked the
lacunary dilatation operator (index selection plus the factorial rescale
Gamma(n+1)/Gamma(n/K+1)), the closed hypergeometric forms for the Hermite
family, the closed forms for the (-1,-1) family obtained from the Hermite
ones by Pochhammer proliferation, and the shifted generators for both.
The shifted Hermite generator is exp(mu (x + 2z d/dx)) applied to the
closed form, so its mu^L slice, which the CLI checks against the oracle,
is the closed form raised L times by the Hermite raising operator.  The
(-1,-1) slice and shifted generator are the Hermite ones mapped termwise
by the image column of connect's family table (families._image_grade),
the paper's transform after lambda -> lambda (uv)^K, mu -> mu uv,
z -> -1/(4u): at lambda^j mu^a each x^b z^m has b + 2m = Kj + a, so it
gains (uv)^(b+2m-1/2) (-1/(4u))^m.  sj_lacunary_closed, the full
generators and mu_slice stay as cross-checks for tests and verify.

The check (verify.lacunary_slices) is one integer pass per power of
lambda, with no ExactScalar, HyperSpec or Poly per term.  The closed form
comes from one kernel, _closed_nums: each cell's hypergeometric series,
read as reduced integer pairs from hyper._pair_terms and started at the
cell's scale, lands on its coefficients, and each coefficient is its
terms' numerators over the lcm of their denominators (_gather).  Those
numerators are raised L times on the same integer form (_raise_nums),
mapped by the table's image and compared, cross-multiplied, with the
oracle's stored integers; the oracle scales each source by 1/n!.
hermite_lacunary_closed builds its Polys from the same kernel, and
_hermite_raise is _raise_nums on a Poly's stored integers.  The (-1,-1)
closed forms go through _gather too; a HyperSpec is built from a cell's
integer parameters only for them, and they are cross-checks.

The (-1,-1) closed forms are *constructed* here by applying the
proliferation transform to the Hermite cells rather than transcribed from
their final printed shape; sj_lacunary_closed_printed evaluates the
printed parameter lists so the two conventions can be compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .errors import ParamError
from .families import (
    _HERMITE_VARS,
    hermite_family,
    hermite_image,
    matching_coeff,
    sj_family,
)
from .hyper import HyperSpec, _pair_terms, _spec_pairs, pochhammer_proliferate
from .poly import CoeffSeries, Poly
from .scalar import ExactScalar, HalfInt, _pair, _ratio, gamma_ratio


def multisection_oracle(source, K: int, L: int, order: int) -> CoeffSeries:
    """sum_n lambda^n / n! p_{K n + L}, by direct index selection; each
    p_{K n + L} is scaled by 1/n! on its stored integers, keeping its
    sqrt(pi) grades and its variables."""
    if K < 1 or L < 0 or order < 0:
        raise ParamError(f"bad lacunary parameters K={K}, L={L}, order={order}")
    return CoeffSeries.build(
        lambda n: source(K * n + L) * _pair(1, factorial(n), 0), order)


def lacunary_dilate(egf: CoeffSeries, K: int) -> CoeffSeries:
    """Extract every K-th coefficient with the Gamma(n+1)/Gamma(n/K+1)
    rescale; on an EGF this produces the L = 0 lacunary series."""
    if K < 1:
        raise ParamError("K must be >= 1")
    out_order = egf.order // K
    return CoeffSeries.build(
        lambda r: egf.coeffs[r * K] * (factorial(r * K) // factorial(r)),
        out_order,
    )


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

    def spec(self, arg) -> HyperSpec:
        """The cell's series as a HyperSpec at argument arg."""
        return HyperSpec([Fraction(*a) for a in zip(*self.upper)],
                         [Fraction(*b) for b in zip(*self.lower)], arg)


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
    so each is made once and shared by the cells."""
    T = K // 2
    if K % 2 == 0:  # upper s + (j + 1)/K
        betas = range(T)
        uppers = [(tuple(K * s + j + 1 for j in range(K - 1)), (K,) * (K - 1))
                  for s in range(order + 1)]
        lowers = [(tuple(beta + ell + 1 for ell in range(T) if ell != T - 1 - beta),
                   (T,) * (T - 1)) for beta in betas]
    else:  # upper s/2 + (j + 1)/(2K)
        betas = range(K)
        uppers = [(tuple(K * s + j + 1 for j in range(2 * K - 1) if j != K - 1),
                   (2 * K,) * (2 * K - 2)) for s in range(order + 1)]
        lowers = [(tuple(beta + ell + 1 for ell in range(K) if ell != K - 1 - beta),
                   (K,) * (K - 1)) for beta in betas]
    cells = []
    for beta in betas:
        for s in range(order + 1):
            h = matching_coeff(K * s, beta)
            if h == 0:
                continue
            f = factorial(s)
            g = gcd(h, f)
            cells.append(_Cell(beta, s, (h // g, f // g), uppers[s], lowers[beta]))
    return cells


def _gather(terms, K: int, order: int) -> list:
    """Sum series[m] x^(K s - 2 beta) y^(beta + y_step m)
    lambda^(s + lam_step m) over the (cell, series) terms and over m, up to
    lambda^order, series being the cell's hypergeometric terms as the
    reduced integer pairs of hyper._pair_terms, started at its scale.  Per
    power of lambda it gives (den, nums): the lcm of the terms'
    denominators and each term's numerator over it, keyed by the exponents
    of x and y.  No two terms of one power share a key: the exponent of x
    fixes s and beta (beta < K), and then the power fixes m."""
    lam_step, y_step, _ = _steps(K)
    rows = [[] for _ in range(order + 1)]
    for cell, series in terms:
        x_pow, y = K * cell.s - 2 * cell.beta, cell.beta
        for k, (num, den) in zip(range(cell.s, order + 1, lam_step), series):
            rows[k].append(((x_pow, y), num, den))
            y += y_step
    out = []
    for row in rows:
        den = lcm(*[d for _, _, d in row])
        out.append((den, {key: num * (den // d) for key, num, d in row}))
    return out


def _closed_nums(K: int, order: int) -> list:
    """The closed Hermite lacunary form as integers: per power of lambda up
    to order, (den, nums) over (x, z), each cell's terms read as integer
    pairs from hyper._pair_terms (_gather).  A new dict per power."""
    arg = _steps(K)[2]
    return _gather(
        ((cell, _pair_terms(cell.upper, cell.lower, arg, cell.scale))
         for cell in _hermite_cells(K, order)),
        K, order,
    )


def _series(rows: list, vars: tuple, order: int) -> CoeffSeries:
    """The CoeffSeries of the (den, nums) rows of _gather, at grade 0, over
    (x, y) or, the exponent of y dropped, over (x,)."""
    if len(vars) == 1:
        rows = [(den, {e[:1]: n for e, n in nums.items()}) for den, nums in rows]
    return CoeffSeries([Poly._over(vars, 0, den, nums) for den, nums in rows], order)


def hermite_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed hypergeometric form of the K-tuple Hermite lacunary series."""
    if K < 1:
        raise ParamError("K must be >= 1")
    return _series(_closed_nums(K, order), _HERMITE_VARS, order)


def _raise_nums(nums: dict, L: int) -> dict:
    """(x + 2z d/dx)^L on the numerators nums of a Poly in x and z over one
    denominator, the raising operator of H_{n+1} = (x + 2z d/dx) H_n applied
    L times: a step sends x^e z^m to x^(e+1) z^m + 2e x^(e-1) z^(m+1).
    nums is only read (and given back for L = 0); numerators that cancel
    are left as zeros."""
    for _ in range(L):
        step = {(e + 1, m): n for (e, m), n in nums.items()}
        for (e, m), n in nums.items():
            if e:
                k = e - 1, m + 1
                step[k] = step.get(k, 0) + 2 * e * n
        nums = step
    return nums


def _hermite_raise(c: Poly, L: int) -> Poly:
    """(x + 2z d/dx)^L c, c a Poly in x and z such as a coefficient of the
    Hermite closed form: _raise_nums on its stored integers, one sqrt(pi)
    grade at a time."""
    return Poly.sum([
        Poly._over(_HERMITE_VARS, g, d, _raise_nums(nums, L))
        for g, d, nums in c._by_grade(_HERMITE_VARS)
    ], _HERMITE_VARS)


def hermite_lacunary_shift(K: int, mu_order: int, order: int) -> CoeffSeries:
    """Generating function of the L-shifted Hermite lacunary series,
    exp(mu x + mu^2 z) H_{K,0}(lambda; x + 2 mu z, z) truncated in mu.

    Since [x, 2z d/dx] = -2z is central, it equals exp(mu (x + 2z d/dx))
    H_{K,0}(lambda; x, z): L! times its coefficient of mu^L is the closed
    form raised L times (_hermite_raise), the (K, L) lacunary series.
    """
    vars = ("mu", *_HERMITE_VARS)
    out = []
    for c in hermite_lacunary_closed(K, order).coeffs:
        slices = []
        for L in range(mu_order + 1):
            f = factorial(L)
            slices += [
                Poly._over(vars, g, d * f, {(L, *key): n for key, n in nums.items()})
                for g, d, nums in c._by_grade(_HERMITE_VARS)
            ]
            c = _hermite_raise(c, 1)
        out.append(Poly.sum(slices, vars))
    return CoeffSeries(out, order)


def _sj_cells(K: int, order: int):
    """Each Hermite cell after the substitutions lambda -> lambda (u v)^K
    and y -> -1/(4u), as (cell, alpha, beta', scale): the cell carries
    u^alpha v^beta' and, before the transform's Gamma(alpha)/Gamma(beta'),
    the scale (-1/4)^beta times its scale.  Gamma(alpha)/Gamma(beta') is
    rational, alpha - beta' = -beta being an integer, so the (-1,-1)
    closed forms read their terms as integer pairs (hyper._spec_pairs)
    at sqrt(pi) grade 0."""
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
        pref, new_spec = pochhammer_proliferate(alpha, beta_p, r, 2 * r, cell.spec(arg))
        terms.append((cell, _spec_pairs(new_spec, pref * scale)))
    return _series(_gather(terms, K, order), ("x",), order)


def sj_lacunary_closed_printed(
    K: int, order: int, *, even_beta_doubled: bool = False, odd_beta_start: int = 1
) -> CoeffSeries:
    """Literal evaluation of the printed closed-form parameter lists.

    For even K the printed second upper group is 2s + (2m - beta - 1)/K;
    passing even_beta_doubled=True evaluates 2s + (2m - 2 beta - 1)/K
    instead.  For odd K the printed outer sum starts at beta =
    odd_beta_start (the companion Hermite formula starts at 0).  Which
    convention reproduces the oracle is recorded by the test suite.
    """
    if K < 2:
        raise ParamError("closed lacunary form needs K >= 2")
    terms = []
    for cell, alpha, beta_p, scale in _sj_cells(K, order):
        if K % 2 == 1 and cell.beta < odd_beta_start:
            continue
        s, beta = cell.s, cell.beta
        base = cell.spec(1)
        if K % 2 == 0:
            T = K // 2
            mult = 2 if even_beta_doubled else 1
            upper = base.upper + tuple(
                2 * s + Fraction(2 * m - mult * beta - 1, K) for m in range(T)
            )
            lower = base.lower + tuple(
                s + Fraction(2 * t - 1, 2 * K) for t in range(K)
            )
            arg = Fraction(-1, 4) ** T
        else:
            upper = base.upper + tuple(
                s + Fraction(2 * m - 2 * beta - 1, 2 * K) for m in range(K)
            )
            lower = base.lower + tuple(
                Fraction(s, 2) + Fraction(2 * t - 1, 4 * K) for t in range(2 * K)
            )
            arg = Fraction(-1, 4 ** (K + 1))
        spec = HyperSpec(upper, lower, arg)
        terms.append((cell, _spec_pairs(spec, gamma_ratio(alpha, beta_p) * scale)))
    return _series(_gather(terms, K, order), ("x",), order)


def mu_slice(series: CoeffSeries, L: int) -> CoeffSeries:
    """L! times the coefficient of mu^L, coefficient-wise."""
    scale = factorial(L)
    return CoeffSeries(
        [c.coeff_of("mu", L) * scale for c in series.coeffs], series.order
    )


def coeff_bridge_check(K: int, L: int, r: int, m: int):
    """Both sides of the coefficient bridge between the Hermite and
    (-1,-1) lacunary series: the x^r coefficient of the degree
    K(r+m)+L member, directly and through the integral transform of the
    matching Hermite member."""
    N = K * (r + m) + L
    g = sj_family(N).scalar_coeff(x=r)
    return g, hermite_image(hermite_family(N)).scalar_coeff(x=r)
