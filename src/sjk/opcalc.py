"""Euler-operator calculus.

Diagonal operators are rational functions of the total-degree operator:
they act on a monomial by a scalar determined by its degree.  This module
holds the one degree map, _scale_by_degree, that applies them; the Euler
operator D itself is apply_diagonal of the rule d -> d with kernel {0}.
Inverses are defined after completing the kernel, either by the identity
map or by raising.  On top of these sit the terminating resolvent
construction for the Jacobi-type eigenproblem and the exponential-operator
forms of the Sobolev-Jacobi and two-variable Hermite polynomials.  Each
step of the resolvent and of the exponential (-1,-1) forms is
op^{-1}(scale (d^2 + (beta - alpha) d)) on a Poly's stored integer
numerators: the derivatives, then one pass of the degree map, which puts
each grade's numerators times the factors' numerators over the
denominator times the lcm of the factors' denominators; the Jacobi
operator itself is applied in one such pass too.  The parameters
are read once, by _jacobi_weights, as the integer weights q (beta - alpha)
and q (alpha + beta + 1) over their common denominator q; families'
coefficient recurrence reads them there too.
"""

from __future__ import annotations

from math import lcm

from .errors import InternalError, KernelHit, ParamError
from .poly import Poly
from .scalar import ExactScalar, _over_lcm, _pair, _parts, _ratio, _text

IDENTITY_ON_KERNEL = "identity_on_kernel"
ERROR_ON_KERNEL = "error_on_kernel"


class DiagonalOp:
    """d -> scalar rule with an explicit kernel set and completion policy."""

    __slots__ = ("eval_fn", "kernel", "completion")

    def __init__(self, eval_fn, kernel=(), completion=IDENTITY_ON_KERNEL):
        if completion not in (IDENTITY_ON_KERNEL, ERROR_ON_KERNEL):
            raise ValueError(f"unknown completion policy {completion!r}")
        self.eval_fn = eval_fn
        self.kernel = frozenset(kernel)
        self.completion = completion

    def eval(self, d: int) -> ExactScalar:
        v = ExactScalar.coerce(self.eval_fn(d))
        if v.is_zero() != (d in self.kernel):
            raise InternalError(
                f"declared kernel {set(self.kernel)} disagrees with eval({d}) = {v}"
            )
        return v

    def shifted(self, p: int, q: int) -> "DiagonalOp":
        """The rule d -> eval(d + p - q), as produced by commuting past x^p d^q:
        the normal-ordering shift f(D) x^p d^q = x^p d^q f(D + p - q)."""
        if p < 0 or q < 0:
            raise ValueError("shift exponents must be non-negative")
        s = p - q
        fn = self.eval_fn
        return DiagonalOp(
            lambda d, _fn=fn, _s=s: _fn(d + _s),
            frozenset(k - s for k in self.kernel),
            self.completion,
        )


def _positions(p: Poly, vars):
    """Positions in p.vars of the variables in vars, or None for all of
    them (vars None or p.vars)."""
    if vars is None or vars == p.vars:
        return None
    chosen = set(vars)
    return [i for i, v in enumerate(p.vars) if v in chosen]


def _scale_by_degree(p: Poly, vars, factor) -> Poly:
    """Each term c m of p times factor(d), d the degree of m in vars
    (default: all); see _scale_part, which runs on each sqrt(pi) grade."""
    idx = _positions(p, vars)
    return Poly.sum([
        _scale_part(p.vars, g, d, nums, idx, factor) for g, d, nums in p._by_grade()
    ], p.vars)


def _scale_part(vars: tuple, g: int, den: int, nums: dict, idx, factor) -> Poly:
    """The terms nums[e] / den x^e at grade g, over vars, each times
    factor(d), d the sum of the exponents at positions idx (None: all of
    them): an integer triple (num, den, grade), den nonzero and the pair
    not necessarily reduced, asked once per degree in the order of nums,
    whose zero drops the term; (), for a kernel degree under
    ERROR_ON_KERNEL, raises KernelHit naming the term's coefficient.  A
    zero numerator is skipped.  Per grade of the result, the numerators
    times the factors' numerators go over den times the lcm of the
    factors' denominators."""
    made = {}
    terms = []  # (exps, numerator, factor's den, factor's grade)
    for exps, n in nums.items():
        if n:
            d = sum(exps) if idx is None else sum([exps[i] for i in idx])
            f = made.get(d)
            if f is None:
                f = made[d] = factor(d)
            if not f:
                c = _ratio(n, den, g)
                raise KernelHit(f"kernel degree {d} carries nonzero coefficient {c}")
            if f[0]:
                terms.append((exps, n * f[0], f[1], f[2]))
    if len(terms) < 2:  # no lcm to take: the resolvent steps at (-1, -1)
        if not terms:
            return Poly.zero(vars)
        (e, x, fd, h), = terms
        return Poly._term_over(vars, g + h, e, x, den * fd)
    grades = sorted({t[3] for t in terms})
    pieces = []
    for h in grades:
        group = terms if len(grades) == 1 else [t for t in terms if t[3] == h]
        m = lcm(*[t[2] for t in group])
        out = {e: x * (m // fd) for e, x, fd, _ in group}
        pieces.append(Poly._over(vars, g + h, den * m, out))
    return pieces[0] if len(pieces) == 1 else Poly.sum(pieces, vars)


def apply_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Scale each monomial by op.eval(total degree in vars)."""
    def factor(d):
        v = op.eval(d)
        return v.num, v.den, v.sqrt_pi_pow
    return _scale_by_degree(p, vars, factor)


def _inverse_factor(op: DiagonalOp, sn: int, sd: int):
    """d -> sn / sd over op.eval(d) as an integer triple for _scale_part,
    with op's completion at a kernel degree: sn / sd itself, or () for
    KernelHit."""
    def factor(d):
        if d not in op.kernel:
            v = op.eval(d)
            return sn * v.den, sd * v.num, -v.sqrt_pi_pow
        return () if op.completion == ERROR_ON_KERNEL else (sn, sd, 0)
    return factor


def apply_inverse_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Divide each monomial by op.eval(degree); kernel degrees follow the
    completion policy (pass through unchanged, or raise KernelHit)."""
    return _scale_by_degree(p, vars, _inverse_factor(op, 1, 1))


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


def _rational(x) -> tuple:
    """x, an integer pair (num, den) with den > 0 or a rational read by
    _parts, as such a pair."""
    return x if type(x) is tuple else _parts(x)


def _inverse_step(op: DiagonalOp, t: Poly, vars, ba, scale) -> Poly:
    """op^{-1}(scale (d^2 + ba d) t), d = d/dx and op acting on the total
    degree in vars: t'' + ba t' on the stored integers, then each term
    times scale over op.eval(degree) (_scale_part); a kernel degree
    follows op's completion policy, the term passing through scaled or
    raising KernelHit with its unscaled coefficient.  ba and scale are
    rationals or integer pairs (num, den), den > 0, not necessarily
    reduced.  At one sqrt(pi) grade the sum is one pass over the
    numerators, its keys in the order that t'' + ba t' gives them; over
    several grades it is that sum, so a clash of grades raises as the sum
    raises it."""
    bn, bd = _rational(ba)
    factor = _inverse_factor(op, *_rational(scale))
    parts = t._by_grade()
    if len(parts) != 1 or "x" not in t.vars:
        d1 = t.derivative("x")
        summed = d1.derivative("x") + d1 * _ratio(bn, bd, 0)
        return _scale_by_degree(summed, vars, factor)
    (g, den, nums), = parts
    i = t.vars.index("x")
    out = {}
    for exps, n in nums.items():
        e = exps[i]
        if e > 1:
            out[exps[:i] + (e - 2,) + exps[i + 1 :]] = n * e * (e - 1) * bd
    if bn:
        get = out.get
        for exps, n in nums.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                out[key] = get(key, 0) + n * e * bn
    idx = _positions(t, vars)
    return _scale_part(t.vars, g, den * bd, out, idx, factor)


def _resolvent_factor(n: int, alpha, beta,
                      completion=IDENTITY_ON_KERNEL) -> DiagonalOp:
    """(d - n)(d + n + alpha + beta + 1), with its kernel read off the
    factors; with q (alpha + beta + 1) = sh, its value at d is
    (d - n)((d + n) q + sh) / q."""
    q, _, sh = _jacobi_weights(alpha, beta)
    kernel = {n}
    other = -(n * q + sh)  # q times the second factor's root
    if other >= 0 and other % q == 0:
        kernel.add(other // q)
    return DiagonalOp(
        lambda d: _ratio((d - n) * ((d + n) * q + sh), q, 0), kernel, completion
    )


def _terminating_sum(term: Poly, step, steps: int, message: str) -> Poly:
    """term + step(term, 1) + step(step(term, 1), 2) + ..., up to the first
    zero term; InternalError(message) if none is zero within steps steps."""
    terms = [term]
    for m in range(1, steps + 1):
        term = step(term, m)
        if term.is_zero():
            return Poly.sum(terms)
        terms.append(term)
    raise InternalError(message)


def gp_series(n: int, alpha, beta, completion=IDENTITY_ON_KERNEL) -> Poly:
    """Terminating resolvent sum for the monic degree-n eigenpolynomial of
    the Jacobi-type operator at parameters (alpha, beta), both >= -1."""
    q, ba, _ = _jacobi_weights(alpha, beta, check=True)
    if n < 0:
        raise ParamError("degree must be >= 0")
    fop = _resolvent_factor(n, alpha, beta, completion)

    def step(cur, _):
        return _inverse_step(fop, cur, ("x",), (ba, q), 1)
    message = f"resolvent sum failed to terminate for n={n}"
    return _terminating_sum(Poly.var("x", n), step, n + 2, message)


def _exp_series(term: Poly, op: DiagonalOp, vars, n: int, what: str) -> Poly:
    """exp(-(1/2) op^{-1} dx^2) term, op acting on total degree in vars; the
    series of a degree-n term ends within n // 2 + 2 steps."""
    def step(t, m):
        return _inverse_step(op, t, vars, 0, (-1, 2 * m))
    message = f"{what} failed to terminate for n={n}"
    return _terminating_sum(term, step, n // 2 + 2, message)


def exp_resolvent_sj(n: int, completion=IDENTITY_ON_KERNEL) -> Poly:
    """exp(-(1/2) (D+n-1)^{-1} d^2) x^n, the exponential form at (-1, -1)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    kernel = {1 - n} if 1 - n >= 0 else set()
    op = DiagonalOp(lambda d: d + n - 1, kernel, completion)
    return _exp_series(Poly.var("x", n), op, ("x",), n, "exponential series")


def exp_B_bivariate(n: int, completion=IDENTITY_ON_KERNEL) -> Poly:
    """exp(B) (x y)^n with B = -(1/2) (Dx + Dy - 1)^{-1} dx^2; the diagonal
    acts on total degree in {x, y}.  Specializing y -> 1 recovers
    exp_resolvent_sj(n)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    op = DiagonalOp(lambda d: d - 1, {1}, completion)
    term = Poly.monomial(1, x=n, y=n) if n else Poly.const(1)
    return _exp_series(term, op, ("x", "y"), n, "bivariate exponential")


def hermite_exp(n: int) -> Poly:
    """exp(z dx^2) x^n, the operational two-variable Hermite polynomial."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    z = Poly.var("z")
    return _terminating_sum(
        Poly.var("x", n),
        lambda t, m: t.derivative("x").derivative("x") * z * _pair(1, m, 0),
        n // 2 + 1,
        f"operational Hermite series failed to terminate for n={n}",
    )


def jacobi_operator_apply(p: Poly, alpha, beta) -> Poly:
    """(1 - x^2) p'' + (beta - alpha - (alpha + beta + 2) x) p', over the
    sorted union of ("x",) and p.vars, in one pass over the terms: c x^e
    gives c e(e-1) x^(e-2) + c (beta - alpha) e x^(e-1) - c e(e + alpha +
    beta + 1) x^e.  Times q = lcm(den alpha, den beta) the three weights
    are integers (_jacobi_weights), so per sqrt(pi) grade the stored
    numerators times the weights, summed per key, go over the denominator
    times q; the grades are summed as Poly.sum sums them."""
    q, ba, sh = _jacobi_weights(alpha, beta)
    vars = tuple(sorted({"x", *p.vars}))
    i = vars.index("x")
    pieces = []
    for g, den, nums in p._by_grade(vars):
        out = {}
        get = out.get
        for exps, n in nums.items():
            e = exps[i]
            weights = (e - 2, q * e * (e - 1)), (e - 1, ba * e), (e, -e * (e * q + sh))
            for k, w in weights:
                if w:
                    key = exps[:i] + (k,) + exps[i + 1 :]
                    out[key] = get(key, 0) + n * w
        pieces.append(Poly._over(vars, g, den * q, out))
    return Poly.sum(pieces, vars)
