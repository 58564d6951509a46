"""Euler-operator calculus.

Diagonal operators are rational functions of the total-degree operator:
they act on a monomial by a rational number determined by its degree.  A
DiagonalOp holds that as an integer rule, d -> (num, den), and checks its
declared kernel against the rule's zeros on that pair.  An inverse is
completed by the identity on the operator's kernel: a term of a kernel
degree passes through.

On top of these sit the terminating resolvent construction for the
Jacobi-type eigenproblem and the exponential-operator forms of the
Sobolev-Jacobi polynomials: gp_series, exp_resolvent_sj and
exp_B_bivariate are one loop, _series.  Its term t_m = s_m
op^{-1}((d^2 + (beta - alpha) d) t_(m-1)) is carried as integers, a
denominator and {x exponent: numerator}, and each step, _step, maps
those numerators and takes op's value at each degree it reaches as the
rule's integer pair, so no Poly and no scalar is made until the sum, one
integer pass over the lcm of the terms' denominators and one reduction.
The Jacobi operator itself is applied in one pass on the stored integers
too.  The parameters are read once, by _jacobi_weights, as the integer
weights q (beta - alpha) and q (alpha + beta + 1) over their common
denominator q; families' coefficient recurrence reads them there too.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from operator import itemgetter

from .errors import InternalError, ParamError
from .poly import Poly
from .scalar import _over_lcm, _parts, _text


class DiagonalOp:
    """An integer rule d -> (num, den), den nonzero, with an explicit
    kernel set: the operator scales a term of degree d by num / den.  Its
    inverse is completed by the identity on the kernel: a term of a kernel
    degree passes through unchanged."""

    __slots__ = ("rule", "kernel")

    def __init__(self, rule, kernel=()):
        self.rule = rule
        self.kernel = frozenset(kernel)

    def eval(self, d: int) -> tuple:
        """The rule's (num, den) at d; InternalError where a zero value and
        the declared kernel disagree."""
        num, den = v = self.rule(d)
        if (not num) != (d in self.kernel):
            raise InternalError(
                f"declared kernel {set(self.kernel)} disagrees with eval({d}) = "
                f"{num}/{den}"
            )
        return v


def _gather(den: int, terms: list) -> tuple:
    """(den', nums) in lowest terms: the terms (key, numerator, den_t),
    each numerator over den den_t, brought over den times the lcm of the
    den_t and reduced by one gcd."""
    if len(terms) == 1:  # no lcm to take: the series steps at (-1, -1)
        (e, x, fd), = terms
        d = den * fd
        g = gcd(d, x)
        return d // g, {e: x // g}
    m = lcm(*[t[2] for t in terms])
    d = den * m
    nums = {e: x * (m // fd) for e, x, fd in terms}
    g = gcd(d, *nums.values())
    if g == 1:
        return d, nums
    return d // g, {e: n // g for e, n in nums.items()}


def _inverse_factor(op: DiagonalOp):
    """d -> 1 / op.eval(d) as an integer pair (num, den), and 1 at a kernel
    degree, where op is not evaluated: the identity completion."""
    def factor(d):
        if d in op.kernel:
            return 1, 1
        num, den = op.eval(d)
        return den, num
    return factor


def _jacobi_weights(alpha, beta, check: bool = False) -> tuple:
    """(q, q (beta - alpha), q (alpha + beta + 1)) as ints, q the lcm of
    the denominators of the rationals alpha and beta: the weights of the
    Jacobi operator's d and of its eigenvalue factor over q.  With check,
    ParamError unless both parameters are >= -1."""
    q, a, b = _over_lcm(alpha, beta)
    if check and (a < -q or b < -q):
        raise ParamError(f"parameters must be >= -1, got "
                         f"({_text(*_parts(alpha))}, {_text(*_parts(beta))})")
    return q, b - a, a + b + q


def _step(nums: dict, r: int, w2: int, w1: int, made: dict, factor) -> list:
    """w2 t'' + w1 t' for t the sum of nums[e] x^e, each term then times
    factor(e + r), as [(e, numerator, factor's den)]: the one step of the
    resolvent and exponential series, on the numerators of the x-part of
    terms whose other exponents are fixed and of degree r.  factor(d) is
    an integer pair (num, den), asked once per degree and kept in made; a
    zero numerator (a sum that cancels) or factor drops the term."""
    out = {}
    for e, n in nums.items():
        if e > 1:
            out[e - 2] = n * e * (e - 1) * w2
    if w1:
        get = out.get
        for e, n in nums.items():
            if e:
                out[e - 1] = get(e - 1, 0) + n * e * w1
    terms = []
    for e, n in out.items():
        if n:
            d = e + r
            f = made.get(d)
            if f is None:
                f = made[d] = factor(d)
            if f[0]:
                terms.append((e, n * f[0], f[1]))
    return terms


def _series(op: DiagonalOp, vars: tuple, start: tuple, ba: tuple, scales,
            what: str) -> Poly:
    """The terminating sum t_0 + t_1 + ... over vars, on integers: t_0 =
    x^start, x the first of vars, and t_m = s_m op^{-1}((d^2 + ba d)
    t_(m-1)), d = d/dx, op acting on the total degree and completed by the
    identity on its kernel (_step), ba = (num, den) and s_m the m-th pair
    of scales, integer pairs with den > 0.  Each term is kept as (den,
    {x exponent: numerator}) in lowest terms (_gather), at grade 0.
    The sum brings every term over the lcm of the dens, adds per key and
    reduces once.  InternalError ("<what> failed to terminate") unless a
    zero term comes within the steps that scales gives."""
    bn, bd = ba
    r = sum(start[1:])
    made, factor = {}, _inverse_factor(op)
    den, nums = 1, {start[0]: 1}
    terms = [(den, nums)]
    for sn, sd in scales:
        step = _step(nums, r, bd * sn, bn * sn, made, factor)
        if not step:
            break
        den, nums = _gather(den * bd * sd, step)
        terms.append((den, nums))
    else:
        raise InternalError(f"{what} failed to terminate for n={start[0]}")
    top = lcm(*map(itemgetter(0), terms))
    total = {}
    get = total.get
    tail = start[1:]
    for d, nums in terms:
        k = top // d
        for e, n in nums.items():
            key = (e,) + tail
            total[key] = get(key, 0) + n * k
    return Poly._over(vars, 0, top, total)


def _resolvent_factor(n: int, alpha, beta) -> DiagonalOp:
    """(d - n)(d + n + alpha + beta + 1), with its kernel read off the
    factors; with q (alpha + beta + 1) = sh, its value at d is
    (d - n)((d + n) q + sh) / q."""
    q, _, sh = _jacobi_weights(alpha, beta)
    kernel = {n}
    other = -(n * q + sh)  # q times the second factor's root
    if other >= 0 and other % q == 0:
        kernel.add(other // q)
    return DiagonalOp(lambda d: ((d - n) * ((d + n) * q + sh), q), kernel)


def gp_series(n: int, alpha, beta) -> Poly:
    """Terminating resolvent sum for the monic degree-n eigenpolynomial of
    the Jacobi-type operator at parameters (alpha, beta), both >= -1:
    x^n + t_1 + t_2 + ..., t_m = op^{-1}((d^2 + (beta - alpha) d) t_(m-1))
    with op the _resolvent_factor."""
    q, ba, _ = _jacobi_weights(alpha, beta, check=True)
    if n < 0:
        raise ParamError("degree must be >= 0")
    op = _resolvent_factor(n, alpha, beta)
    return _series(op, ("x",), (n,), (ba, q), repeat((1, 1), n + 2), "resolvent sum")


def _exp_series(op: DiagonalOp, vars: tuple, start: tuple, n: int, what: str) -> Poly:
    """exp(-(1/2) op^{-1} dx^2) x^start, op acting on the total degree: its
    m-th term is -(1/(2m)) op^{-1} dx^2 of the one before, and the series
    of a degree-n term ends within n // 2 + 2 steps."""
    scales = zip(repeat(-1), range(2, n + 5, 2))  # -1/(2m) for m <= n // 2 + 2
    return _series(op, vars, start, (0, 1), scales, what)


def exp_resolvent_sj(n: int) -> Poly:
    """exp(-(1/2) (D+n-1)^{-1} d^2) x^n, the exponential form at (-1, -1)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    op = DiagonalOp(lambda d: (d + n - 1, 1), {1 - n} if 1 - n >= 0 else ())
    return _exp_series(op, ("x",), (n,), n, "exponential series")


def exp_B_bivariate(n: int) -> Poly:
    """exp(B) (x y)^n with B = -(1/2) (Dx + Dy - 1)^{-1} dx^2; the diagonal
    acts on total degree in {x, y}.  Specializing y -> 1 recovers
    exp_resolvent_sj(n)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    op = DiagonalOp(lambda d: (d - 1, 1), {1})
    return _exp_series(op, ("x", "y"), (n, n), n, "bivariate exponential")


def jacobi_operator_apply(p: Poly, alpha, beta) -> Poly:
    """(1 - x^2) p'' + (beta - alpha - (alpha + beta + 2) x) p', over the
    sorted union of ("x",) and p.vars, in one pass over the terms: c x^e
    gives c e(e-1) x^(e-2) + c (beta - alpha) e x^(e-1) - c e(e + alpha +
    beta + 1) x^e.  Times q = lcm(den alpha, den beta) the three weights
    are integers (_jacobi_weights), so the stored numerators times the
    weights, summed per key, go over the denominator times q, at the
    input's sqrt(pi) grade."""
    q, ba, sh = _jacobi_weights(alpha, beta)
    vars = tuple(sorted({"x", *p.vars}))
    i = vars.index("x")
    g, den, nums = p._integers(vars)
    out = {}
    get = out.get
    for exps, n in nums.items():
        e = exps[i]
        weights = (e - 2, q * e * (e - 1)), (e - 1, ba * e), (e, -e * (e * q + sh))
        for k, w in weights:
            if w:
                key = exps[:i] + (k,) + exps[i + 1 :]
                out[key] = get(key, 0) + n * w
    return Poly._over(vars, g, den * q, out)
