"""Euler-operator calculus.

Diagonal operators are rational functions of the total-degree operator:
they act on a monomial by a scalar determined by its degree.  Inverses are
defined after completing the kernel, either by the identity map or by
raising.  On top of these sit the terminating resolvent construction for
the Jacobi-type eigenproblem and the exponential-operator forms of the
Sobolev-Jacobi and two-variable Hermite polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, KernelHit, ParamError
from .poly import Poly
from .scalar import ExactScalar

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


def apply_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Scale each monomial by op.eval(total degree in vars)."""
    if vars is None:
        vars = p.vars
    chosen = set(vars)
    idx = [i for i, v in enumerate(p.vars) if v in chosen]
    out = {}
    for exps, c in p.terms.items():
        d = sum(exps[i] for i in idx)
        s = c * op.eval(d)
        if not s.is_zero():
            out[exps] = s
    return Poly(p.vars, out)


def apply_inverse_diagonal(op: DiagonalOp, p: Poly, vars=None) -> Poly:
    """Divide each monomial by op.eval(degree); kernel degrees follow the
    completion policy (pass through unchanged, or raise KernelHit)."""
    if vars is None:
        vars = p.vars
    chosen = set(vars)
    idx = [i for i, v in enumerate(p.vars) if v in chosen]
    out = {}
    for exps, c in p.terms.items():
        d = sum(exps[i] for i in idx)
        if d in op.kernel:
            if op.completion == ERROR_ON_KERNEL:
                raise KernelHit(
                    f"kernel degree {d} carries nonzero coefficient {c}"
                )
            out[exps] = c
        else:
            out[exps] = c / op.eval(d)
    return Poly(p.vars, out)


def _resolvent_factor(n: int, alpha: Fraction, beta: Fraction,
                      completion=IDENTITY_ON_KERNEL) -> DiagonalOp:
    """(d - n)(d + n + alpha + beta + 1), with its kernel read off the factors."""
    shift = alpha + beta + 1
    kernel = {n}
    other = -(n + shift)
    if other.denominator == 1 and other >= 0:
        kernel.add(int(other))
    return DiagonalOp(
        lambda d: Fraction(d - n) * (d + n + shift), kernel, completion
    )


def gp_series(n: int, alpha, beta, completion=IDENTITY_ON_KERNEL) -> Poly:
    """Terminating resolvent sum for the monic degree-n eigenpolynomial of
    the Jacobi-type operator at parameters (alpha, beta), both >= -1."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < -1 or beta < -1:
        raise ParamError(f"parameters must be >= -1, got ({alpha}, {beta})")
    if n < 0:
        raise ParamError("degree must be >= 0")
    fop = _resolvent_factor(n, alpha, beta, completion)
    ba = beta - alpha
    cur = Poly.var("x", n)
    terms = [cur]
    for _ in range(n + 2):
        cur = cur.derivative("x").derivative("x") + cur.derivative("x") * ba
        if cur.is_zero():
            return Poly.sum(terms)
        cur = apply_inverse_diagonal(fop, cur, ("x",))
        terms.append(cur)
    raise InternalError(f"resolvent sum failed to terminate for n={n}")


def exp_resolvent_sj(n: int, completion=IDENTITY_ON_KERNEL) -> Poly:
    """exp(-(1/2) (D+n-1)^{-1} d^2) x^n, the exponential form at (-1, -1)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    kernel = {1 - n} if 1 - n >= 0 else set()
    op = DiagonalOp(lambda d: Fraction(d + n - 1), kernel, completion)
    term = Poly.var("x", n)
    terms = [term]
    for m in range(1, n // 2 + 3):
        term = term.derivative("x").derivative("x")
        if term.is_zero():
            return Poly.sum(terms)
        term = apply_inverse_diagonal(op, term, ("x",)) * Fraction(-1, 2 * m)
        terms.append(term)
    raise InternalError(f"exponential series failed to terminate for n={n}")


def exp_B_bivariate(n: int, completion=IDENTITY_ON_KERNEL) -> Poly:
    """exp(B) (x y)^n with B = -(1/2) (Dx + Dy - 1)^{-1} dx^2; the diagonal
    acts on total degree in {x, y}.  Specializing y -> 1 recovers
    exp_resolvent_sj(n)."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    op = DiagonalOp(lambda d: Fraction(d - 1), {1}, completion)
    term = Poly.monomial(1, x=n, y=n) if n else Poly.const(1)
    terms = [term]
    for m in range(1, n // 2 + 3):
        term = term.derivative("x").derivative("x")
        if term.is_zero():
            return Poly.sum(terms)
        term = apply_inverse_diagonal(op, term, ("x", "y")) * Fraction(-1, 2 * m)
        terms.append(term)
    raise InternalError(f"bivariate exponential failed to terminate for n={n}")


def hermite_exp(n: int) -> Poly:
    """exp(z dx^2) x^n, the operational two-variable Hermite polynomial."""
    if n < 0:
        raise ParamError("degree must be >= 0")
    z = Poly.var("z")
    term = Poly.var("x", n)
    terms = [term]
    m = 1
    while True:
        term = term.derivative("x").derivative("x") * z * Fraction(1, m)
        if term.is_zero():
            return Poly.sum(terms)
        terms.append(term)
        m += 1


def jacobi_operator_apply(p: Poly, alpha, beta) -> Poly:
    """(1 - x^2) p'' + (beta - alpha - (alpha + beta + 2) x) p'."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    x = Poly.var("x")
    d1 = p.derivative("x")
    d2 = d1.derivative("x")
    return (Poly.const(1) - x * x) * d2 + (
        Poly.const(beta - alpha) - x * (alpha + beta + 2)
    ) * d1
