"""The paper's cross-check constructions and identities that only the
tests run, one section per sjk module they check.  They read a Poly
through Poly.terms and build one through the validating Poly(vars,
terms) or Poly's arithmetic, never through its stored integers.
"""

import re
from fractions import Fraction
from math import factorial, lcm, prod
from operator import index

from sjk import connect, families, lacunary
from sjk.errors import ParamError, PoleError
from sjk.hyper import HyperSpec, pfq_terms
from sjk.opcalc import DiagonalOp, _inverse_factor
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar, HalfInt, _pair, _parts, _ratio, _text
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


def shift(p: Poly, var: str, c) -> Poly:
    """Taylor shift: var -> var + c, c a scalar or a Poly free of var."""
    return p.substitute(var, Poly.var(var) + c)


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
        total += t * Poly.var("z", m) * Fraction(1, factorial(m))
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
    return CoeffSeries.build(lambda r: zpoly**r * tricomi_coeff(alpha, r), order)


def egf_beta_shifted_tricomi(order: int, beta) -> CoeffSeries:
    """(x-1) C_1(-lambda(x-1)) C_beta(-lambda(x+1)), the Tricomi-Bessel
    product form of families.egf_beta_shifted."""
    t = families._half_int_beta(beta)
    x = Poly.var("x")
    c1 = tricomi_series(1, x - 1, order)
    cb = tricomi_series(HalfInt(t), x + 1, order)
    return (c1 * cb) * (x - 1)


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
    return GenMonomial(a.coeff * b.coeff, u, v, a.lambda_pow + b.lambda_pow,
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
    terms, power = [], GenMonomial(1)  # power = base^k
    for k in range(order + 1):
        terms.append(gen_mul(GenMonomial(Fraction(1, factorial(k))), power))
        power = gen_mul(power, base)
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


def hermite_raise(c: Poly, L: int) -> Poly:
    """(x + 2z d/dx)^L c, c a Poly in x and z: lacunary._raise_nums, keyed
    (0, x, z), on the numerators of c's terms over their lcm, one sqrt(pi)
    grade at a time."""
    out, terms = Poly(("x", "z")), c.terms
    for g in {t.sqrt_pi_pow for t in terms.values()}:
        grade = {e: t for e, t in terms.items() if t.sqrt_pi_pow == g}
        den = lcm(*[t.den for t in grade.values()])
        nums = {(0, *e): t.num * (den // t.den) for e, t in grade.items()}
        out += Poly(("x", "z"), {
            e[1:]: ExactScalar(Fraction(n, den), g)
            for e, n in lacunary._raise_nums(nums, L).items()
        })
    return out


def sj_lacunary_closed_printed(K: int, order: int, *, even_beta_doubled=False,
                               odd_beta_start=1) -> CoeffSeries:
    """The printed (-1,-1) closed-form parameter lists, K >= 2, evaluated
    literally.  For even K the printed second upper group is 2s + (2m -
    beta - 1)/K, or with even_beta_doubled 2s + (2m - 2 beta - 1)/K; for
    odd K the printed outer sum starts at beta = odd_beta_start (the
    Hermite formula starts at 0)."""
    terms = []
    for cell, alpha, beta_p, scale in lacunary._sj_cells(K, order):
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
    return lacunary._series(lacunary._gather(terms, K, order), ("x",), order)


def coeff_bridge_check(K: int, L: int, r: int, m: int):
    """The x^r coefficient of the (-1,-1) member of degree K(r+m)+L, directly
    and as the image of the Hermite member: the coefficient bridge."""
    N = K * (r + m) + L
    image = families.image_by_grade(families._image_grade, families.hermite_family(N))
    return families.sj_family(N).scalar_coeff(x=r), image.scalar_coeff(x=r)


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
