"""Euler-operator calculus.

Diagonal operators are rational functions of the total-degree operator:
they act on a monomial by a scalar determined by its degree.  This module
holds the one degree map, _scale_by_degree, that applies them; the Euler
operator D itself is apply_diagonal of the rule d -> d with kernel {0}.
Inverses are defined after completing the kernel, either by the identity
map or by raising.  On top of these sit the terminating resolvent
construction for the Jacobi-type eigenproblem and the exponential-operator
forms of the Sobolev-Jacobi and two-variable Hermite polynomials.  Each
step of the resolvent and of the exponential (-1,-1) forms is one pass
over the terms, op^{-1}(scale (d^2 + (beta - alpha) d)), making one
reduced integer pair per output term from the integer numerators and
denominators of the coefficient, the scale and the operator's value; the
Jacobi operator itself is applied in one such pass too.  The parameters
are read once, by _jacobi_weights, as the integer weights q (beta - alpha)
and q (alpha + beta + 1) over their common denominator q; families'
coefficient recurrence reads them there too.
"""

from __future__ import annotations

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
    """Positions in p.vars of the variables in vars (default: all)."""
    if vars is None:
        return range(len(p.vars))
    chosen = set(vars)
    return [i for i, v in enumerate(p.vars) if v in chosen]


def _scale_by_degree(p: Poly, vars, scale) -> Poly:
    """Each term c m of p replaced by scale(c, d) m, d the degree of m in
    vars (default: all); zero results are dropped."""
    idx = _positions(p, vars)
    out = {}
    for exps, c in p.terms.items():
        s = scale(c, sum(exps[i] for i in idx))
        if s:
            out[exps] = s
    return Poly._of(p.vars, out)


def apply_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Scale each monomial by op.eval(total degree in vars)."""
    return _scale_by_degree(p, vars, lambda c, d: c * op.eval(d))


def apply_inverse_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Divide each monomial by op.eval(degree); kernel degrees follow the
    completion policy (pass through unchanged, or raise KernelHit)."""
    def divide(c, d):
        if d not in op.kernel:
            return c / op.eval(d)
        if op.completion == ERROR_ON_KERNEL:
            raise KernelHit(f"kernel degree {d} carries nonzero coefficient {c}")
        return c
    return _scale_by_degree(p, vars, divide)


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
    degree in vars, in one pass over the terms of t: the contributions
    c e (e-1) and ba c e of each term c x^e are summed per key by
    Poly._collect (so a clash of sqrt(pi) grades raises), and each output
    term is one reduced integer pair, scale over op.eval(degree) times
    that sum; a kernel degree follows op's completion policy, the sum
    passing through unchanged (then scaled) or raising KernelHit.  ba and
    scale are rationals or integer pairs (num, den), den > 0, not
    necessarily reduced."""
    if "x" not in t.vars:
        return Poly.zero(t.vars)
    i = t.vars.index("x")
    bn, bd = _rational(ba)
    sn, sd = _rational(scale)
    seconds, firsts = [], []
    for exps, c in t.terms.items():
        e = exps[i]
        if e > 1:
            key = exps[:i] + (e - 2,) + exps[i + 1 :]
            seconds.append((key, _ratio(c.num * (e * (e - 1)), c.den, c.sqrt_pi_pow)))
        if e and bn:
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            firsts.append((key, _ratio(c.num * bn * e, c.den * bd, c.sqrt_pi_pow)))
    summed = Poly._collect(t.vars, seconds + firsts)
    idx = _positions(t, vars)
    out = {}
    for exps, c in summed.terms.items():
        d = sum(exps[j] for j in idx)
        vn, vd, g = 1, 1, c.sqrt_pi_pow
        if d not in op.kernel:
            v = op.eval(d)
            vn, vd, g = v.num, v.den, g - v.sqrt_pi_pow
        elif op.completion == ERROR_ON_KERNEL:
            raise KernelHit(f"kernel degree {d} carries nonzero coefficient {c}")
        out[exps] = _ratio(c.num * sn * vd, c.den * sd * vn, g)
    return Poly._of(t.vars, out)


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
    are integers (_jacobi_weights), each contribution is one reduced
    integer pair over q, and Poly._collect sums them per key."""
    q, ba, sh = _jacobi_weights(alpha, beta)
    vars = tuple(sorted({"x", *p.vars}))
    i = vars.index("x")
    pairs = []
    for exps, c in p._remap(vars).items():
        e = exps[i]
        for k, w in ((e - 2, q * e * (e - 1)), (e - 1, ba * e), (e, -e * (e * q + sh))):
            if w:
                key = exps[:i] + (k,) + exps[i + 1 :]
                pairs.append((key, _ratio(c.num * w, c.den * q, c.sqrt_pi_pow)))
    return Poly._collect(vars, pairs)
