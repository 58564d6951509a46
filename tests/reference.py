"""The paper's cross-check constructions and identities that only the
tests run, one section per sjk module they check.  They read a Poly
through Poly.terms and build one through the validating Poly(vars,
terms) or Poly's arithmetic, never through its stored integers.  Poly
adds and scales; the products, powers, coefficients of a variable and
substitutions of a Poly that the tests need are the schoolbook loops of
the poly section.
"""

import re
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm, prod
from operator import index
from typing import NamedTuple

from sjk import connect, families, lacunary
from sjk.errors import ParamError, PoleError
from sjk.hyper import HyperSpec, _pair_terms, _spec, pfq_terms
from sjk.hyper import pochhammer_proliferate
from sjk.opcalc import DiagonalOp, _inverse_factor
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ZERO, ExactScalar, HalfInt, _pair, _parts, _ratio, _text
from sjk.scalar import gamma_ratio, half, pochhammer, recip_gamma
from sjk.umbral import GenMonomial, GenSeries


# -- poly ---------------------------------------------------------------------
def monomial(coeff, **exps) -> Poly:
    """coeff prod name^e over exps, over the names of nonzero exponents."""
    names = sorted([n for n, e in exps.items() if index(e)])
    return Poly(names, {tuple([exps[n] for n in names]): coeff})


def derivative(p: Poly, var: str) -> Poly:
    """d/dvar of p, over p.vars."""
    if var not in p.vars:
        return Poly(p.vars)
    i = p.vars.index(var)
    return Poly(p.vars, {
        e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.terms.items() if e[i]
    })


def product(p: Poly, q: Poly) -> Poly:
    """p q by the schoolbook loop: one ExactScalar product and running sum
    per pair of terms, over p's variables when q has the same, else over
    the sorted union of both."""
    vars = p.vars if p.vars == q.vars else tuple(sorted({*p.vars, *q.vars}))
    a, b = Poly.sum([p], vars).terms, Poly.sum([q], vars).terms
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, ZERO) + c1 * c2
    return Poly(vars, out)


def power(p: Poly, k: int) -> Poly:
    """p^k, k >= 0, as k products from the constant 1."""
    out = Poly.const(1)
    for _ in range(k):
        out = product(out, p)
    return out


def coeff_of(p: Poly, var: str, k: int) -> Poly:
    """The coefficient of var^k in p, a Poly over p's other variables."""
    if var not in p.vars:
        return p if k == 0 else Poly(p.vars)
    i = p.vars.index(var)
    return Poly(p.vars[:i] + p.vars[i + 1 :],
                {e[:i] + e[i + 1 :]: c for e, c in p.terms.items() if e[i] == k})


def substitute(p: Poly, var: str, value: Poly) -> Poly:
    """p with var -> value, a Poly: the sum over the powers e of var of
    its coefficient in p times value^e."""
    if var not in p.vars:
        return p
    i = p.vars.index(var)
    return Poly.sum([product(coeff_of(p, var, e), power(value, e))
                     for e in sorted({e[i] for e in p.terms})],
                    p.vars[:i] + p.vars[i + 1 :])


def series_product(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """The Cauchy product of two series, to the smaller of their orders."""
    order = min(a.order, b.order)
    return CoeffSeries([
        Poly.sum(product(a.coeffs[i], b.coeffs[k - i]) for i in range(k + 1))
        for k in range(order + 1)
    ], order)


def shift(p: Poly, var: str, c) -> Poly:
    """Taylor shift: var -> var + c, c a scalar or a Poly free of var."""
    return substitute(p, var, Poly.var(var) + c)


def lambda_derivative(s: CoeffSeries, L: int = 1) -> CoeffSeries:
    """d^L/dlambda^L of s, 0 <= L <= s.order; the order drops by L."""
    order = s.order - L
    return CoeffSeries([
        s.coeffs[k + L] * (factorial(k + L) // factorial(k)) for k in range(order + 1)
    ], order)


# -- opcalc -------------------------------------------------------------------
def scale_by_degree(p: Poly, vars, factor) -> Poly:
    """Each term c m of p times factor(d) = (num, den), d m's degree in vars."""
    idx = [i for i, v in enumerate(p.vars) if vars is None or v in vars]
    return Poly(p.vars, {
        e: c * Fraction(*factor(sum([e[i] for i in idx])))
        for e, c in p.terms.items()
    })


def apply_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Scale each monomial by op.eval(its degree in vars)."""
    return scale_by_degree(p, vars, op.eval)


def apply_inverse_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Divide each monomial by op.eval(degree), the identity on op.kernel."""
    return scale_by_degree(p, vars, _inverse_factor(op))


def shifted(op: DiagonalOp, p: int, q: int) -> DiagonalOp:
    """d -> op.eval(d + p - q), p, q >= 0: the normal-ordering shift
    f(D) x^p d^q = x^p d^q f(D + p - q)."""
    s = p - q
    return DiagonalOp(lambda d: op.rule(d + s), {k - s for k in op.kernel})


def hermite_exp(n: int) -> Poly:
    """The operational Hermite exp(z dx^2) x^n = sum_m z^m / m! dx^(2m) x^n."""
    total, t = Poly(("x", "z")), Poly.var("x", n)
    for m in range(n // 2 + 1):
        total += product(t, Poly.var("z", m)) * Fraction(1, factorial(m))
        t = derivative(derivative(t, "x"), "x")
    return total


# -- hyper --------------------------------------------------------------------
def pfq_derivative(spec: HyperSpec, n: int):
    """The n-th formal derivative, n >= 1: the prefactor, scale^n from the
    chain rule included, and the spec with its parameters + n."""
    upper, lower = ([Fraction(*a) for a in zip(*ps)] for ps in (spec.upper, spec.lower))
    pref = Fraction(1)
    for a in upper:
        pref *= pochhammer(a, n)
    for b in lower:
        pref /= pochhammer(b, n)
    new = HyperSpec([a + n for a in upper], [b + n for b in lower], spec.arg_scale)
    return spec.arg_scale**n * ExactScalar(pref), new


def tricomi_coeff(alpha, r: int) -> ExactScalar:
    """The r-th series coefficient 1/(r! Gamma(r + alpha + 1)) of the
    Tricomi-Bessel function at a parameter alpha not in Z_<0."""
    ha = half(alpha)
    if ha.is_integer and ha.twice < 0:
        raise PoleError(f"Tricomi parameter {ha} lies in Z_<0")
    return recip_gamma(ha + (r + 1)) * _pair(1, factorial(r), 0)


# -- families -----------------------------------------------------------------
def matching_coeff(n: int, k: int) -> int:
    """n! / ((n-2k)! k!) when 0 <= 2k <= n, else 0."""
    if k < 0 or 2 * k > n:
        return 0
    return factorial(n) // (factorial(n - 2 * k) * factorial(k))


def binom_general(a, k: int) -> Fraction:
    """binomial(a, k) for arbitrary rational a: (a-k+1)_k / k!."""
    return Fraction(*families._binom_parts(*_parts(a), k))


def image_weight(a: int, m: int) -> int:
    """The signed integer W = 1 / ((-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2))
    = (-1)^m 2^m prod_{j<m} (2a+2m-1+2j), one product per term."""
    w = prod(range(2 * a + 2 * m - 1, 2 * a + 4 * m - 1, 2)) << m
    return -w if m % 2 else w


def image_grade(vars: tuple, den: int, nums: dict) -> tuple:
    """families._image_grade written term by term: each term's own
    image_weight W, the numerators times w / W over den times w, w the lcm
    of all the terms' W, the terms that land on one key summed there."""
    ia = vars.index("x") if "x" in vars else None
    im = vars.index("z") if "z" in vars else None
    out_vars = vars if im is None else vars[:im] + vars[im + 1 :]
    terms = []
    for exps, n in nums.items():
        a = 0 if ia is None else exps[ia]
        if im is None:
            terms.append((exps, n, image_weight(a, 0)))
        else:
            key = exps[:im] + exps[im + 1 :]
            terms.append((key, n, image_weight(a, exps[im])))
    w = lcm(*[t[2] for t in terms])
    image = {}
    for key, n, W in terms:
        image[key] = image.get(key, 0) + n * (w // W)
    return out_vars, den * w, image


def sj_egf_coeff_nums(N: int) -> tuple:
    """The integers of the (-1,-1) EGF coefficient p_N / N!, one
    image_weight per term: with M = N // 2 and c_m the matching numbers,
    (N! W_M, {(N-2m,): c_m W_M / W_m}), not brought to lowest terms."""
    M = N // 2
    top = image_weight(N - 2 * M, M)
    return factorial(N) * top, {
        (N - 2 * m,): matching_coeff(N, m) * (top // image_weight(N - 2 * m, m))
        for m in range(M + 1)
    }


def sj_beta_rescaled(n: int, beta) -> Poly:
    """The rescaled variant binom(2n+beta-1, n) / Gamma(n+beta+1) times the
    closed form; beta must be a half-integer so the gamma value is exact."""
    p, q = _parts(beta)
    if q not in (1, 2):
        raise ParamError(f"rescaling needs half-integer beta, got {_text(p, q)}")
    if n == 0:
        return Poly.const(1)
    twice = p * (2 // q)
    binom = _ratio(*families._binom_parts((2 * n - 1) * q + p, q, n), 0)
    scale = binom * recip_gamma(HalfInt(twice + 2 * (n + 1)))
    return families.sj_closed_beta(n, beta) * scale


def tricomi_series(alpha, zpoly: Poly, order: int) -> CoeffSeries:
    """Series sum_r z^r / (r! Gamma(r+alpha+1)) with z = lambda * zpoly."""
    return CoeffSeries.build(lambda r: power(zpoly, r) * tricomi_coeff(alpha, r), order)


def egf_beta_shifted_tricomi(order: int, beta) -> CoeffSeries:
    """(x-1) C_1(-lambda(x-1)) C_beta(-lambda(x+1)), the Tricomi-Bessel
    product form of families.egf_beta_shifted."""
    t = families._half_int_beta(beta)
    x = Poly.var("x")
    c1 = tricomi_series(1, x - 1, order)
    cb = tricomi_series(HalfInt(t), x + 1, order)
    return CoeffSeries([product(c, x - 1) for c in series_product(c1, cb).coeffs],
                       order)


# -- umbral -------------------------------------------------------------------
def _min_order(a, b):
    """The smaller of two truncation orders, None being no truncation."""
    return min([o for o in (a, b) if o is not None], default=None)


def gen_mul(a: GenMonomial, b: GenMonomial) -> GenMonomial:
    """The product of two generalized monomials: the coefficients
    multiplied, each letter's exponents and the gradings added."""
    u, v = dict(a.u_exps), dict(a.v_exps)
    for exps, more in ((u, b.u_exps), (v, b.v_exps)):
        for n, e in more:
            exps[n] = exps.get(n, HalfInt(0)) + e
    return GenMonomial(product(a.coeff, b.coeff), u, v, a.lambda_pow + b.lambda_pow,
                       a.mu_pow + b.mu_pow)


def gen_product(s1: GenSeries, s2: GenSeries) -> GenSeries:
    """Truncated product; multiplicative under the transform when the
    factors' u/v alphabets are disjoint."""
    lo = _min_order(s1.lambda_order, s2.lambda_order)
    mo = _min_order(s1.mu_order, s2.mu_order)
    return GenSeries([
        gen_mul(a, b) for a in s1.terms for b in s2.terms
        if (lo is None or a.lambda_pow + b.lambda_pow <= lo)
        and (mo is None or a.mu_pow + b.mu_pow <= mo)
    ], lo, mo)


def expand_exponential(base: GenMonomial, order: int) -> GenSeries:
    """exp(base) truncated to sum_{k<=order} base^k / k!; ValueError unless
    the base carries a lambda or mu grading to truncate in."""
    if base.lambda_pow + base.mu_pow < 1:
        raise ValueError("exponential base carries no lambda/mu grading")
    terms, term = [], GenMonomial(1)  # term = base^k
    for k in range(order + 1):
        terms.append(gen_mul(GenMonomial(Fraction(1, factorial(k))), term))
        term = gen_mul(term, base)
    lam = (order + 1) * base.lambda_pow - 1 if base.lambda_pow else None
    mu = (order + 1) * base.mu_pow - 1 if base.mu_pow else None
    return GenSeries(terms, lam, mu)


# -- lacunary -----------------------------------------------------------------
def lacunary_dilate(egf: CoeffSeries, K: int) -> CoeffSeries:
    """Every K-th coefficient, K >= 1, with the Gamma(n+1)/Gamma(n/K+1)
    rescale; on an EGF this produces the L = 0 lacunary series."""
    return CoeffSeries.build(
        lambda r: egf.coeffs[r * K] * (factorial(r * K) // factorial(r)),
        egf.order // K,
    )


def terms_over_lcm(p: Poly) -> tuple:
    """(grade, den, nums): p's terms, read from Poly.terms, as integer
    numerators over their lcm at p's one sqrt(pi) grade."""
    terms = p.terms
    grade = next(iter(terms.values())).sqrt_pi_pow if terms else 0
    den = lcm(1, *[t.den for t in terms.values()])
    return grade, den, {e: t.num * (den // t.den) for e, t in terms.items()}


def hermite_raise(c: Poly, L: int) -> Poly:
    """(x + 2z d/dx)^L c, c a Poly in x and z: lacunary._raise_nums, keyed
    (0, x, z), on the numerators of c's terms over their lcm."""
    grade, den, nums = terms_over_lcm(c)
    nums = {(0, *e): n for e, n in nums.items()}
    return Poly(("x", "z"), {
        e[1:]: ExactScalar(Fraction(n, den), grade)
        for e, n in lacunary._raise_nums(nums, L).items()
    })


# The cell construction that lacunary's one pass replaced, a cross-check
# of it (tests/test_lacunary.py): a list of cell objects, the scales read
# from families._matching_numbers, and the terms gathered into rows before
# the lcm of all their denominators.
class _Cell(NamedTuple):
    """One (beta, s) cell of the closed Hermite lacunary series: scale
    times the hypergeometric series in upper, lower, at
    x^(K s - 2 beta) y^beta lambda^s."""

    beta: int
    s: int
    scale: tuple
    upper: tuple
    lower: tuple


def _hermite_cells(K: int, order: int) -> list:
    """The cells, beta outer and s inner, split by the parity of K; cell
    (beta, s) has scale (K s)! / ((K s - 2 beta)! beta! s!), if
    2 beta <= K s: per s, the first matching numbers of K s, s! carried."""
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
        scales.append((list(islice(families._matching_numbers(K * s), len(betas))), f))
    cells = []
    for beta in betas:
        for s, (h, f) in enumerate(scales):
            if beta < len(h):
                g = gcd(h[beta], f)
                cells.append(_Cell(beta, s, (h[beta] // g, f // g), uppers[s],
                                   lowers[beta]))
    return cells


def _gather(terms, K: int, order: int) -> tuple:
    """Sum series[m] x^(K s - 2 beta) y^(beta + y_step m)
    lambda^(s + lam_step m) over the (cell, series) terms and over m, up to
    lambda^order, as (den, nums): the lcm of all the terms' denominators
    and each numerator over it, keyed (k, x exponent, y exponent)."""
    lam_step, y_step, _ = lacunary._steps(K)
    rows = []
    for cell, series in terms:
        x_pow, y = K * cell.s - 2 * cell.beta, cell.beta
        for k, (num, den) in zip(range(cell.s, order + 1, lam_step), series):
            rows.append(((k, x_pow, y), num, den))
            y += y_step
    den = lcm(*[d for _, _, d in rows])
    return den, {key: num * (den // d) for key, num, d in rows}


def cells_closed_nums(K: int, order: int) -> tuple:
    """lacunary._closed_nums(K, order) from the cell list and _gather."""
    arg = lacunary._steps(K)[2]
    return _gather(
        ((cell, _pair_terms(cell.upper, cell.lower, arg, cell.scale))
         for cell in _hermite_cells(K, order)),
        K, order,
    )


def _sj_cells(K: int, order: int):
    """Each cell as (cell, alpha, beta', scale): its u^alpha v^beta' and
    (-1/4)^beta times its start, as lacunary._sj_closed_nums reads them."""
    for c in _hermite_cells(K, order):
        alpha = HalfInt(2 * (K * c.s - c.beta) - 1)  # K s - beta - 1/2
        beta_p = HalfInt(2 * K * c.s - 1)  # K s - 1/2
        num, den = c.scale
        yield c, alpha, beta_p, _ratio((-1) ** c.beta * num, 4**c.beta * den, 0)


def cells_sj_gathered(K: int, order: int) -> tuple:
    """The proliferated cells' terms _gather'ed, keyed (k, x exponent,
    y exponent), K >= 2."""
    if K % 2 == 0:
        r, arg = K // 2, _ratio((-K) ** (K // 2), 2 ** (K // 2), 0)
    else:
        r, arg = K, _ratio((-K) ** K, 4, 0)
    terms = []
    for cell, alpha, beta_p, scale in _sj_cells(K, order):
        spec = _spec(zip(*cell.upper), zip(*cell.lower), arg)
        pref, new = pochhammer_proliferate(alpha, beta_p, r, 2 * r, spec)
        terms.append((cell, ((t.num, t.den) for t in pfq_terms(new, pref * scale))))
    return _gather(terms, K, order)


def cells_sj_closed_nums(K: int, order: int) -> tuple:
    """lacunary._sj_closed_nums(K, order) from cells_sj_gathered, the
    exponent of y dropped from each key."""
    den, nums = cells_sj_gathered(K, order)
    return ("lambda", "x"), den, {key[:2]: n for key, n in nums.items()}


def sj_lacunary_closed_printed(K: int, order: int, *, even_beta_doubled=False,
                               odd_beta_start=1) -> CoeffSeries:
    """The printed (-1,-1) closed-form parameter lists, K >= 2, evaluated
    literally.  For even K the printed second upper group is 2s + (2m -
    beta - 1)/K, or with even_beta_doubled 2s + (2m - 2 beta - 1)/K; for
    odd K the printed outer sum starts at beta = odd_beta_start (the
    Hermite formula starts at 0)."""
    terms = []
    for cell, alpha, beta_p, scale in _sj_cells(K, order):
        if K % 2 == 1 and cell.beta < odd_beta_start:
            continue
        s, beta = cell.s, cell.beta
        upper = [Fraction(*a) for a in zip(*cell.upper)]
        lower = [Fraction(*b) for b in zip(*cell.lower)]
        if K % 2 == 0:
            mult = 2 if even_beta_doubled else 1
            upper += [2 * s + Fraction(2 * m - mult * beta - 1, K)
                      for m in range(K // 2)]
            lower += [s + Fraction(2 * t - 1, 2 * K) for t in range(K)]
            arg = Fraction(-1, 4) ** (K // 2)
        else:
            upper += [s + Fraction(2 * m - 2 * beta - 1, 2 * K) for m in range(K)]
            lower += [Fraction(s, 2) + Fraction(2 * t - 1, 4 * K) for t in range(2 * K)]
            arg = Fraction(-1, 4 ** (K + 1))
        start = gamma_ratio(alpha, beta_p) * scale
        series = pfq_terms(HyperSpec(upper, lower, arg), start)
        terms.append((cell, ((c.num, c.den) for c in series)))
    den, nums = _gather(terms, K, order)
    return lacunary_series(("lambda", "x"), den, {k[:2]: n for k, n in nums.items()},
                           order)


def coeff_bridge_check(K: int, L: int, r: int, m: int):
    """The x^r coefficient of the (-1,-1) member of degree K(r+m)+L, directly
    and as the image of the Hermite member: the coefficient bridge."""
    N = K * (r + m) + L
    image = image_poly(families._image_grade, families.hermite_family(N))
    return families.sj_family(N).scalar_coeff(x=r), image.scalar_coeff(x=r)


# The Poly forms of the integers that sjk's lacunary checks compare, and
# the Poly compositions those checks replaced: each check's verdict and
# text must equal its composition's (tests/test_lacunary.py).
def lacunary_series(vars: tuple, den: int, nums: dict, order: int) -> CoeffSeries:
    """The CoeffSeries of the integers nums / den at sqrt(pi) grade 0, each
    key (k, *exps) over vars, the series parameter first: the series'
    coefficient of its k-th power holds those terms, up to order."""
    rows = [{} for _ in range(order + 1)]
    for key, n in nums.items():
        rows[key[0]][key[1:]] = Fraction(n, den)
    return CoeffSeries([Poly(vars[1:], row) for row in rows], order)


def hermite_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed hypergeometric form of the K-tuple Hermite lacunary series."""
    return lacunary_series(lacunary._LAMBDA_VARS, *lacunary._closed_nums(K, order),
                           order)


def sj_lacunary_closed(K: int, order: int) -> CoeffSeries:
    """Closed form of the K-tuple (-1,-1) lacunary series (K >= 2), built
    from the Hermite cells via Pochhammer proliferation."""
    return lacunary_series(*lacunary._sj_closed_nums(K, order), order)


def shift_nums(K: int, mu_order: int, order: int) -> tuple:
    """The shifted Hermite generator exp(mu x + mu^2 z) H_{K,0}(lambda;
    x + 2 mu z, z) to mu^mu_order and lambda^order, as integers (vars, den,
    nums) keyed (k, l, e, m) for lambda^k mu^l x^e z^m.  As [x, 2z d/dx] =
    -2z is central, it is exp(mu (x + 2z d/dx)) H_{K,0}(lambda; x, z): L!
    times its mu^L coefficient is the closed form raised L times, so over
    the closed form's denominator times mu_order!, its numerators are
    raised one step per power of mu and times mu_order! / L!.
    verify.lacunary_shifts builds the mu^L slice alone."""
    vars = "lambda", "mu", *families._HERMITE_VARS
    den, nums = lacunary._closed_nums(K, order)
    shifted, f = {}, factorial(mu_order)  # f = mu_order! / L!
    for L in range(mu_order + 1):
        if L:
            nums, f = lacunary._raise_nums(nums, 1), f // L
        shifted.update({(k, L, e, m): n * f for (k, e, m), n in nums.items()})
    return vars, den * factorial(mu_order), shifted


def hermite_lacunary_shift(K: int, mu_order: int, order: int) -> CoeffSeries:
    """The shifted Hermite generator exp(mu x + mu^2 z) H_{K,0}(lambda;
    x + 2 mu z, z) over (mu, x, z), truncated at mu^mu_order."""
    return lacunary_series(*shift_nums(K, mu_order, order), order)


def mu_slice(series: CoeffSeries, L: int) -> CoeffSeries:
    """L! times the coefficient of mu^L, coefficient-wise."""
    return CoeffSeries(
        [coeff_of(c, "mu", L) * factorial(L) for c in series.coeffs], series.order)


def image_poly(image, p: Poly) -> Poly:
    """The Poly that image, a map on one sqrt(pi) grade's integers (vars,
    den, nums) -> (vars', den', nums') such as families._image_grade,
    makes of p: p's terms as numerators over their lcm, mapped, at p's
    grade."""
    grade, den, nums = terms_over_lcm(p)
    vars, den, nums = image(p.vars, den, nums)
    return Poly(vars, {e: ExactScalar(Fraction(n, den), grade)
                       for e, n in nums.items()})


def image_of(row, series: CoeffSeries) -> CoeffSeries:
    """The image of a Hermite series by a family table row's image map,
    coefficient by coefficient."""
    return CoeffSeries([image_poly(row.image, c) for c in series.coeffs],
                       series.order)


def lacunary_oracle(family: str, K: int, L: int, order: int) -> CoeffSeries:
    """sum_n lambda^n/n! p_{Kn+L} for a family of connect.FAMILIES."""
    return lacunary.multisection_oracle(connect.lookup(family).source, K, L, order)


def reference_closed(family, K, order):
    """verify.lacunary_closed at one (family, K, order): the row's closed
    form as a CoeffSeries, == against the oracle series."""
    closed = lacunary_series(*connect.lookup(family).lacunary_closed(K, order), order)
    if closed != lacunary_oracle(family, K, 0, order):
        return f"{family} closed form != oracle at K={K}, order={order}"


def reference_slices(family, K, L, order):
    """verify.lacunary_slices at one (family, K, L, order): the Hermite
    closed form, each coefficient raised L times, the family's image, and
    == against the oracle."""
    oracle = lacunary_oracle(family, K, L, order).coeffs
    closed = hermite_lacunary_closed(K, order)
    got = image_of(connect.lookup(family), CoeffSeries(
        [hermite_raise(c, L) for c in closed.coeffs], order))
    for k, c in enumerate(got.coeffs):
        if c != oracle[k]:
            return (f"first mismatch at lambda^{k}: closed={c.text()} "
                    f"oracle={oracle[k].text()}")


def reference_shifts(family, K, mu_order, order, L):
    """verify.lacunary_shifts at one (family, K, mu_order, order, L): the
    generator's image coefficient by coefficient, its mu^L slice, and ==
    against the oracle."""
    gen = image_of(connect.lookup(family), hermite_lacunary_shift(K, mu_order, order))
    if mu_slice(gen, L) != lacunary_oracle(family, K, L, order):
        return f"{family} shifted generator != oracle at K={K}, L={L}"


# -- connect ------------------------------------------------------------------
def connection_gf_coeff(M: int, order: int) -> list:
    """The mu^M slice of the connection GF by powers of lambda, M >= 0, from
    its hypergeometric form lambda^M / M! 0F1(M + 1/2; lambda^2 / 4)."""
    spec = HyperSpec((), (Fraction(2 * M + 1, 2),), _pair(1, 4, 0))
    out = [ExactScalar(0)] * (order + 1)
    terms = pfq_terms(spec, _pair(1, factorial(M), 0))
    for j, c in zip(range(M, order + 1, 2), terms):
        out[j] = c
    return out


def connection_gf_coeff_direct(M: int, order: int) -> list:
    """The same slice assembled from the closed-form weights."""
    out = [ExactScalar(0)] * (order + 1)
    for j in range(M, order + 1, 2):
        num, den = connect._sj_weight(j, M)
        out[j] = _ratio(num, den * factorial(j), 0)
    return out


# -- jsonio -----------------------------------------------------------------
# The object form that jsonio.dumps writes a Poly as, the terms in
# graded-lexicographic descending order:
#     {"variables": ["x", ...],
#      "terms": [{"exps": [..], "num": "..", "den": "..", "sqrt_pi_pow": 0}, ..]}
def poly_to_obj(p: Poly) -> dict:
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {"variables": list(p.vars), "terms": [
        {"exps": list(e), "num": str(c.num), "den": str(c.den),
         "sqrt_pi_pow": c.sqrt_pi_pow} for e, c in terms]}


def series_to_obj(s: CoeffSeries, parameter: str = "lambda") -> dict:
    return {
        "parameter": parameter,
        "order": s.order,
        "coefficients": [poly_to_obj(c) for c in s.coeffs],
    }


# what poly_to_obj writes; int() would also take " 1_0 ", "+1" or "\uff11"
_NUM, _DEN = re.compile("-?[0-9]+"), re.compile("[0-9]+")


def _decimal(t: dict, key: str, form) -> int:
    """t[key], a decimal string in the given form, as an int."""
    s = t[key]
    if not isinstance(s, str):
        raise TypeError(f"{key} must be a decimal string, got {s!r}")
    if not form.fullmatch(s):
        raise ValueError(f"{key} is not a decimal integer: {s!r}")
    return int(s)


def poly_from_obj(obj: dict) -> Poly:
    """The Poly of a poly_to_obj dict, such as `sjk --format json` prints;
    what the writer would not write is refused, so the read is exact."""
    names = obj["variables"]
    if not isinstance(names, list):
        raise TypeError(f"variables must be a list, got {names!r}")
    vars = tuple(names)
    if not all(isinstance(v, str) for v in vars):
        raise TypeError(f"variable names must be strings, got {names}")
    terms = {}
    for t in obj["terms"]:
        exps = tuple(t["exps"])
        if exps in terms:
            raise ValueError(f"repeated exponent vector {list(exps)}")
        grade = t.get("sqrt_pi_pow", 0)
        # a JSON true or false would pass as the integer 1 or 0
        if bool in map(type, (*exps, grade)):
            raise TypeError(f"boolean exponent or grade at exponents {list(exps)}")
        den = _decimal(t, "den", _DEN)
        if not den:
            raise ValueError(f"zero denominator at exponents {list(exps)}")
        terms[exps] = ExactScalar(Fraction(_decimal(t, "num", _NUM), den), grade)
    return Poly(vars, terms)
