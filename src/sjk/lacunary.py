"""Lacunary exponential generating functions.

The ground truth is the multisection oracle: direct index selection
p_{K n + L} from a per-degree family source.  Against it are checked the
lacunary dilatation operator (index selection plus the factorial rescale
Gamma(n+1)/Gamma(n/K+1)), the closed hypergeometric forms for the Hermite
family, the closed forms for the (-1,-1) family obtained from the Hermite
ones by Pochhammer proliferation, and the shifted generators for both.
The shifted Hermite generator is exp(mu (x + 2z d/dx)) applied to the
closed form, so its mu^L slice, which the CLI checks against the oracle,
is the closed form raised L times by the Hermite raising operator
(hermite_lacunary_slice).  The (-1,-1) slice and shifted generator are the
Hermite ones mapped termwise by families.hermite_image (the image column of
connect's family table), the paper's transform after lambda -> lambda (uv)^K,
mu -> mu uv, z -> -1/(4u): at lambda^j mu^a each x^b z^m has b + 2m = Kj + a,
so it gains (uv)^(b+2m-1/2) (-1/(4u))^m.  sj_lacunary_closed, the full
generators and mu_slice stay as cross-checks for tests and verify.

Every stage of that check runs on integers: the closed form starts each
cell's hypergeometric series at the cell's scale and sums each
coefficient's terms over the lcm of their denominators, the raising runs
on the stored integer numerators, the image multiplies them by integer
weights and the oracle scales each source by 1/n!.  A cell's parameters
are integer pairs, fed to hyper's pair-level term generator; a HyperSpec
is built from them only for the (-1,-1) closed forms, which are
cross-checks.

The (-1,-1) closed forms are *constructed* here by applying the
proliferation transform to the Hermite cells rather than transcribed from
their final printed shape; sj_lacunary_closed_printed evaluates the
printed parameter lists so the two conventions can be compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import ParamError
from .families import (
    HERMITE_SECOND_VAR,
    hermite_family,
    hermite_image,
    matching_coeff,
    sj_family,
)
from .hyper import HyperSpec, _pair_terms, pfq_terms, pochhammer_proliferate
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
    """One (beta, s) cell of the closed Hermite lacunary series: base_scale
    times the hypergeometric series in upper, lower, at
    x^(K s - 2 beta) y^beta lambda^s; its argument and the powers of lambda
    and y per series index depend on K alone (_steps).  The parameters are
    integer pairs (num, den), den > 0, not reduced."""

    beta: int
    s: int
    base_scale: ExactScalar
    upper: tuple
    lower: tuple

    def spec(self, arg) -> HyperSpec:
        """The cell's series as a HyperSpec at argument arg."""
        return HyperSpec([Fraction(*a) for a in self.upper],
                         [Fraction(*b) for b in self.lower], arg)


def _steps(K: int):
    """(lam_step, y_step, arg) at K: index m of a Hermite cell's hypergeometric
    series, at argument arg, carries lambda^(lam_step m) y^(y_step m)."""
    if K % 2 == 0:
        return 1, K // 2, _pair((2 * K) ** (K // 2), 1, 0)
    return 2, K, _ratio((4 * K) ** K, 4, 0)


def _hermite_cells(K: int, order: int):
    """The (beta, s) cells of the closed Hermite lacunary series, split by
    the parity of K (K = 2T or K = 2T + 1; K = 1 rides the odd branch)."""
    cells = []
    T = K // 2
    for beta in range(T if K % 2 == 0 else K):
        for s in range(order + 1):
            h = matching_coeff(K * s, beta)
            if h == 0:
                continue
            if K % 2 == 0:  # upper s + (j + 1)/K
                upper = tuple((K * s + j + 1, K) for j in range(K - 1))
                lower = tuple(
                    (beta + ell + 1, T) for ell in range(T) if ell != T - 1 - beta
                )
            else:  # upper s/2 + (j + 1)/(2K)
                upper = tuple(
                    (K * s + j + 1, 2 * K) for j in range(2 * K - 1) if j != K - 1
                )
                lower = tuple(
                    (beta + ell + 1, K) for ell in range(K) if ell != K - 1 - beta
                )
            cells.append(_Cell(beta, s, _ratio(h, factorial(s), 0), upper, lower))
    return cells


def _sum_cells(terms, K: int, order: int, vars) -> CoeffSeries:
    """Sum series[m] x^(K s - 2 beta) y^(beta + y_step m)
    lambda^(s + lam_step m) over the (cell, series) terms and over m, up to
    lambda^order, series being the cell's hypergeometric terms started at
    its scale; each coefficient is its terms over the lcm of their
    denominators, summed per key.  vars is ("x", y) for the Hermite forms
    and ("x",) for the (-1,-1) forms, whose y the transform has integrated
    out."""
    lam_step, y_step, _ = _steps(K)
    pairs = [[] for _ in range(order + 1)]
    for cell, series in terms:
        x_pow = K * cell.s - 2 * cell.beta
        ks = range(cell.s, order + 1, lam_step)
        for m, (k, c) in enumerate(zip(ks, series)):
            key = (x_pow, cell.beta + y_step * m)[: len(vars)]
            pairs[k].append((key, c))
    return CoeffSeries([Poly._from_terms(vars, p) for p in pairs], order)


def hermite_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed hypergeometric form of the K-tuple Hermite lacunary series."""
    if K < 1:
        raise ParamError("K must be >= 1")
    arg = _steps(K)[2]
    terms = (
        (cell, _pair_terms(cell.upper, cell.lower, arg, cell.base_scale))
        for cell in _hermite_cells(K, order)
    )
    return _sum_cells(terms, K, order, ("x", HERMITE_SECOND_VAR))


_RAISE_VARS = ("x", HERMITE_SECOND_VAR)


def _hermite_raise(c: Poly, L: int) -> Poly:
    """(x + 2z d/dx)^L c, the raising operator of H_{n+1} = (x + 2z d/dx) H_n
    applied L times: a step sends x^e z^m to x^(e+1) z^m + 2e x^(e-1) z^(m+1).
    c is a Poly in x and z, such as a coefficient of the Hermite closed
    form; the steps run on its stored integer numerators, over its
    denominator, one sqrt(pi) grade at a time."""
    raised = []
    for g, d, nums in c._by_grade(_RAISE_VARS):
        for _ in range(L):
            step = {(e + 1, m): n for (e, m), n in nums.items()}
            for (e, m), n in nums.items():
                if e:
                    k = e - 1, m + 1
                    step[k] = step.get(k, 0) + 2 * e * n
            nums = step
        raised.append(Poly._over(_RAISE_VARS, g, d, nums))
    return Poly.sum(raised, _RAISE_VARS)


def hermite_lacunary_slice(K: int, L: int, order: int) -> CoeffSeries:
    """The (K, L) Hermite lacunary series: L! times the mu^L coefficient of
    hermite_lacunary_shift, which is exp(mu (x + 2z d/dx)) applied to the
    closed form, so the closed form raised L times (_hermite_raise)."""
    closed = hermite_lacunary_closed(K, order)
    if not L:
        return closed
    return CoeffSeries([_hermite_raise(c, L) for c in closed.coeffs], order)


def hermite_lacunary_shift(K: int, mu_order: int, order: int) -> CoeffSeries:
    """Generating function of the L-shifted Hermite lacunary series,
    exp(mu x + mu^2 z) H_{K,0}(lambda; x + 2 mu z, z) truncated in mu.

    Since [x, 2z d/dx] = -2z is central, it equals exp(mu (x + 2z d/dx))
    H_{K,0}(lambda; x, z): L! times its coefficient of mu^L is the closed
    form raised L times (_hermite_raise), the (K, L) lacunary series.
    """
    vars = ("mu", "x", HERMITE_SECOND_VAR)
    out = []
    for c in hermite_lacunary_closed(K, order).coeffs:
        slices = []
        for L in range(mu_order + 1):
            f = factorial(L)
            slices += [
                Poly._over(vars, g, d * f, {(L, *key): n for key, n in nums.items()})
                for g, d, nums in c._by_grade(_RAISE_VARS)
            ]
            c = _hermite_raise(c, 1)
        out.append(Poly.sum(slices, vars))
    return CoeffSeries(out, order)


def _sj_cells(K: int, order: int):
    """Each Hermite cell after the substitutions lambda -> lambda (u v)^K
    and y -> -1/(4u), as (cell, alpha, beta', scale): the cell carries
    u^alpha v^beta' and, before the transform's Gamma(alpha)/Gamma(beta'),
    the scale (-1/4)^beta base_scale."""
    for c in _hermite_cells(K, order):
        alpha = HalfInt(2 * (K * c.s - c.beta) - 1)  # K s - beta - 1/2
        beta_p = HalfInt(2 * K * c.s - 1)  # K s - 1/2
        yield c, alpha, beta_p, c.base_scale * _pair((-1) ** c.beta, 4**c.beta, 0)


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
        terms.append((cell, pfq_terms(new_spec, pref * scale)))
    return _sum_cells(terms, K, order, ("x",))


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
        terms.append((cell, pfq_terms(spec, gamma_ratio(alpha, beta_p) * scale)))
    return _sum_cells(terms, K, order, ("x",))


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
