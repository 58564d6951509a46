"""Connection coefficients, formal Gaussian pairing, and the decay demo.

The connection coefficients expand x^M over a polynomial family; the
defining identity x^M = sum_n A_{M,n} p_n(x) is the arbiter for every
formula here.  The complex-Gaussian moment integral is never integrated:
the pairing rule w^r wbar^s -> r! delta_{r,s} is taken as the definition.
The sums over n visit only the n whose weight is not zero by parity (and,
for the contraction, the n >= L whose p_n has an x^L term); a negative
index names no polynomial and is refused with ParamError.

The checks run on stored integers: a weight is read from the row's
public connection(M, n) as the integers of its stored terms, a member's
terms through Poly._by_grade, and each result is one integer pass,
Poly._sum_over, with no Poly product or Poly.sum per member or term.  The
contraction reads each weight and each p_n once for a whole family and
size, and takes [x^L] p_n by grouping p_n's stored terms by their
exponent of x; the Gaussian pairing groups each side's stored terms the
same way (_by_exponent), by their exponent of w and of wbar.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add
from typing import Callable, NamedTuple

from . import lacunary
from .errors import ParamError
from .families import HERMITE_SECOND_VAR, _image_grade, hermite_egf, hermite_family
from .families import image_by_grade, sj_egf, sj_family
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
    in z), the closed lacunary form (a cross-check) and the image map
    H_n -> p_n on one sqrt(pi) grade's integers, (vars, den, nums) ->
    (vars', den', nums') (families._image_grade, or the identity)."""

    source: Callable
    egf: Callable
    connection: Callable
    lacunary_closed: Callable
    image: Callable

    def image_of(self, series: CoeffSeries) -> CoeffSeries:
        """The image of a Hermite series, such as a lacunary shift
        generator, coefficient by coefficient."""
        return CoeffSeries(
            [image_by_grade(self.image, c) for c in series.coeffs], series.order)


# Each row is built on each lookup from the module globals, so a builder
# rebound in its module (a patch, a wrapper) is used; only the row asked
# for is built.

def _sj_row() -> Family:
    return Family(sj_family, sj_egf, sj_connection,
                  lacunary.sj_lacunary_closed, _image_grade)


def _hermite_row() -> Family:
    return Family(hermite_family, hermite_egf, hermite_connection,
                  lacunary.hermite_lacunary_closed, lambda *grade: grade)


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


def _weight_terms(w, vars: tuple) -> list:
    """A weight A_{M,n} as a row's connection gives it, an ExactScalar or
    a Poly, as the integers (key over vars, num, den, grade) of each of
    its stored terms: none when it is zero, and one for the weights the
    rows build."""
    if not isinstance(w, Poly):
        return [((0,) * len(vars), w.num, w.den, w.sqrt_pi_pow)] if w.num else []
    return [(e, num, d, g)
            for g, d, nums in w._by_grade(vars) for e, num in nums.items()]


def _vars_of(*names, polys=()) -> tuple:
    """The sorted union of names and the variables of the Polys among
    polys."""
    used = [p.vars for p in polys if isinstance(p, Poly)]
    return tuple(sorted(set(names).union(*used)))


def _shifted(nums: dict, key: tuple) -> dict:
    """nums with key added to every exponent tuple: the terms times the
    monomial of exponents key."""
    if not any(key):
        return nums
    return {tuple(map(add, e, key)): n for e, n in nums.items()}


def reconstruct_monomial(M: int, family: str) -> Poly:
    """sum_n A_{M,n} p_n(x) over the n of M's parity (the other weights
    are zero); must equal x^M exactly.  One integer pass: each weight's
    integers times each member's numerators, summed over the lcm
    (Poly._sum_over)."""
    _check_index("M", M)
    row = lookup(family)
    members = [(row.source(n), row.connection(M, n)) for n in range(M % 2, M + 1, 2)]
    vars = _vars_of("x", polys=[q for pair in members for q in pair])
    pieces = []
    for p, w in members:
        for key, num, den, wg in _weight_terms(w, vars):
            for g, d, nums in p._by_grade(vars):
                pieces.append((g + wg, d * den, _shifted(nums, key), num))
    return Poly._sum_over(vars, pieces)


def _by_exponent(p: Poly, var: str, vars: tuple) -> list:
    """p's stored terms grouped by their exponent of var, the other
    exponents re-keyed onto vars (which holds the others of p.vars): per
    sqrt(pi) grade, (grade, den, {exponent of var: {key: numerator}})."""
    src = [p.vars.index(v) if v in p.vars else -1 for v in vars]
    i = p.vars.index(var) if var in p.vars else -1
    out = []
    for g, d, nums in p._by_grade():
        by = {}
        for e, n in nums.items():
            read = (e + (0,)).__getitem__  # position -1 reads an absent variable's 0
            by.setdefault(read(i), {})[tuple(map(read, src))] = n
        out.append((g, d, by))
    return out


def biorthogonality_check(top: int, family: str) -> list:
    """Contraction of backward (connection) against forward (expansion)
    coefficients less the delta it must equal: the rows M < top of
    sum_n A_{M,n} [x^L] p_n - delta_{M,L} for L < top, as Polys in the
    variables other than x, each zero when the dual pair holds (the
    Hermite family's z powers cancel).  Each A_{M,n} and each p_n is read
    once, and each [x^L] p_n is taken from its stored terms.  Only the n
    of M's parity with L <= n <= M can contribute: the other weights are
    zero, and p_n has no x^L term below degree L."""
    _check_index("top", top)
    row = lookup(family)
    sources = [row.source(n) for n in range(top)]
    weights = [[row.connection(M, n) for n in range(M % 2, M + 1, 2)]
               for M in range(top)]
    # the contraction's variables: x is summed out
    vars = _vars_of(polys=[*sources, *(w for ws in weights for w in ws)])
    vars = tuple(v for v in vars if v != "x")
    cols = [  # cols[n]: (L, grade, den, the terms of [x^L] p_n)
        [(L, g, d, terms) for g, d, by in _by_exponent(p, "x", vars)
         for L, terms in by.items()]
        for p in sources
    ]
    out = []
    zero = Poly.zero(vars)
    delta = (0, 1, {(0,) * len(vars): 1}, -1)  # the piece -delta_{M,M}
    for M in range(top):
        pieces = [[] for _ in range(top)]  # per L, the pieces of Poly._sum_over
        pieces[M].append(delta)
        for n, w in zip(range(M % 2, M + 1, 2), weights[M]):
            for key, num, den, wg in _weight_terms(w, vars):
                for L, g, d, terms in cols[n]:
                    pieces[L].append((g + wg, d * den, _shifted(terms, key), num))
        out.append([Poly._sum_over(vars, ps) if ps else zero for ps in pieces])
    return out


def gaussian_pair(F: Poly, G: Poly) -> Poly:
    """Formal Gaussian pairing: replace w^r wbar^s by r! delta_{r,s}, over
    the sorted union of the other variables.  Each side's stored terms are
    grouped by their exponent of w and of wbar, and each r gives r! times
    the integer products of its two groups."""
    if not (F and G):
        return Poly.zero()
    vars = tuple(sorted((set(F.vars) - {"w"}) | (set(G.vars) - {"wbar"})))
    pieces = []
    for gf, df, fs in _by_exponent(F, "w", vars):
        for gg, dg, gs in _by_exponent(G, "wbar", vars):
            nums = {}
            get = nums.get
            for r, f_terms in fs.items():
                g_terms = gs.get(r)
                if g_terms:
                    k = factorial(r)
                    for e1, n1 in f_terms.items():
                        for e2, n2 in g_terms.items():
                            key = tuple(map(add, e1, e2))
                            nums[key] = get(key, 0) + k * n1 * n2
            pieces.append((gf + gg, df * dg, nums, 1))
    return Poly._sum_over(vars, pieces)


def pair_factors(order: int, family: str):
    """Truncations of the two connection generating functions whose
    Gaussian pairing reproduces exp(alpha*beta):

    A(alpha, w) = sum A_{M,n} alpha^M w^n / M!
    B(wbar, beta) = sum wbar^n / n! p_n(beta)

    For the Hermite family both carry z, which cancels in the pairing.
    Each is one integer pass (Poly._sum_over): A over the weights'
    integers, B over the stored integers of each p_n with x renamed beta.
    """
    _check_index("order", order)
    row = lookup(family)
    weights = [(M, n, row.connection(M, n))
               for M in range(order + 1) for n in range(M % 2, M + 1, 2)]
    vars = _vars_of("alpha", "w", polys=[w for _, _, w in weights])
    ia, iw = vars.index("alpha"), vars.index("w")
    pieces = []
    for M, n, w in weights:
        for key, num, den, g in _weight_terms(w, vars):
            key = list(key)
            key[ia], key[iw] = M, n
            pieces.append((g, den * factorial(M), {tuple(key): num}, 1))
    A = Poly._sum_over(vars, pieces)
    sources = [
        p._renamed(tuple("beta" if v == "x" else v for v in p.vars))
        for p in map(row.source, range(order + 1))
    ]
    vars = _vars_of("beta", "wbar", polys=sources)
    pieces = []
    for n, p in enumerate(sources):
        key = tuple(n if v == "wbar" else 0 for v in vars)
        pieces += [(g, d * factorial(n), _shifted(nums, key), 1)
                   for g, d, nums in p._by_grade(vars)]
    return A, Poly._sum_over(vars, pieces)


def exp_product_truncation(order: int) -> Poly:
    """sum_{k<=order} (alpha beta)^k / k!, the pairing's expected value."""
    _check_index("order", order)
    top = factorial(order)
    return Poly._over(("alpha", "beta"), 0, top, {
        (k, k): top // factorial(k) for k in range(order + 1)
    })


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
    (-n(n-1))^j / j! p_n.  The modes' stored integers are brought over
    one common denominator once, and each mode adds its numerators times
    its weight and eigenvalue powers into every c_j in one pass.  A
    cross-check for verify.reaction."""
    if N0 < 0 or t_order < 0:
        raise ParamError("need N0 >= 0 and t_order >= 0")
    modes = []  # (den, {(k,): numerator}, A_{N0,n}'s numerator, -n(n-1))
    for n in range(N0 % 2, N0 + 1, 2):
        (_, d, nums), = sj_family(n)._by_grade(("x",))  # monic, so one part
        num, den = _sj_weight(N0, n)
        modes.append((d * den, nums, num, -n * (n - 1)))
    top = lcm(*[m[0] for m in modes])
    totals = [{} for _ in range(t_order + 1)]  # j! top c_j, per x exponent
    for d, nums, num, lam in modes:
        m = num * (top // d)  # A_{N0,n} (-n(n-1))^j, p_n's numerators over top
        for total in totals:
            if not m:
                break
            get = total.get
            for e, x in nums.items():
                total[e] = get(e, 0) + x * m
            m *= lam
    coeffs = [Poly._over(("x",), 0, top * factorial(j), total)
              for j, total in enumerate(totals)]
    return CoeffSeries(coeffs, t_order)


def reaction_residual(series: CoeffSeries):
    """The first t-order j at which the series breaks its evolution
    equation, (j+1) c_(j+1) against G c_j with G = (1 - x^2) d^2/dx^2
    applied by opcalc.jacobi_operator_apply, an implementation of G
    independent of reaction_solve's; None when every order holds."""
    c = series.coeffs
    for j in range(series.order):
        if jacobi_operator_apply(c[j], -1, -1) != c[j + 1] * (j + 1):
            return j
    return None
