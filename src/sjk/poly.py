"""Sparse multivariate polynomials over ExactScalar, plus truncated series.

A Poly keeps an explicit variable tuple and a map from exponent vectors to
nonzero ExactScalar coefficients.  Binary operations align variable sets by
union, so polynomials over different alphabets combine freely.  A
CoeffSeries is a list of Poly coefficients of one formal series parameter,
truncated at an explicit order; every operation records the order that
remains valid.  Scaling each term by a function of its degree, the Euler
operator among them, is opcalc's diagonal-operator map.

A product of two Polys runs over integers: each operand's coefficients are
brought over the lcm of their denominators, the integer numerators are
multiplied and summed per exponent vector, and each result coefficient is
made once, as in FLINT's fmpq_poly but inside the one product only.

Every output format reads one accessor, Poly._rows: the terms in
graded-lexicographic descending order as (exps, numerator, denominator,
sqrt_pi_pow).  The text and LaTeX renderers here and jsonio's writer
take each term's integers from it; a denominator of more than 600 digits
comes as its decimal string, converted over the gcd of the Poly's long
denominators (_decimal_dens).
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact
from math import factorial, gcd, inf, lcm
from operator import add, index
from typing import Callable, NamedTuple

from .scalar import ONE, ExactScalar, ZERO, _grade_clash, _ratio
from .scalar import _operand as _scalar_operand


def _operand(x):
    """x as a Poly for a binary operator, or NotImplemented when
    ExactScalar.coerce cannot interpret it: Python then tries the other
    operand's reflected method, and failing that == gives False and
    arithmetic raises its own TypeError."""
    if isinstance(x, Poly):
        return x
    c = _scalar_operand(x)
    return c if c is NotImplemented else Poly.const(c)


def _over_common_den(terms: dict):
    """(d, [(exps, numerator, sqrt_pi_pow)]): each coefficient as an integer
    numerator over d, the lcm of the coefficient denominators."""
    d = lcm(*[c.den for c in terms.values()])
    return d, [(e, c.num * (d // c.den), c.sqrt_pi_pow) for e, c in terms.items()]


_new = object.__new__


def _grlex(term):
    """Sort key of a (exps, coefficient) pair: total degree, then exponents."""
    return sum(term[0]), term[0]


# Poly._rows writes a denominator of more than 600 digits through
# _decimal_dens: below that plain str was as fast or faster on the
# sj-beta-shifted and Hermite EGF coefficients, above it the route won by
# up to 4x (2-core x86_64, CPython 3.11.7).
_DECIMAL_FLOOR = 10**600
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _decimal_dens(dens: list) -> list:
    """dens with each one of more than 600 digits replaced by its str(),
    made from one conversion of G, the gcd of those long ones.  CPython
    writes an int in decimal in quadratic time, and so does Decimal(int);
    the long denominators of one Poly share most of their digits in G, so
    each is written as the exact decimal product of G and its short
    cofactor.  One of more than sys.get_int_max_str_digits() digits is
    refused by str(d) itself, with the ValueError that str(d) raises."""
    g = gcd(*[d for d in dens if d >= _DECIMAL_FLOOR])
    g_dec = _EXACT.create_decimal(g)
    limit = sys.get_int_max_str_digits()
    out = []
    for d in dens:
        if d >= _DECIMAL_FLOOR:
            s = str(_EXACT.multiply(g_dec, _EXACT.create_decimal(d // g)))
            d = str(d) if limit and len(s) > limit else s  # str(d) raises
        out.append(d)
    return out


class Poly:
    """``Poly(vars, terms)`` checks the variables and every term; the
    results of arithmetic on Polys are built by ``Poly._of`` from terms
    that are canonical by construction and are not checked again."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"repeated variable in {self.vars}")
        pairs = []
        if terms:
            width = len(self.vars)
            for exps, c in terms.items():
                exps = tuple(map(index, exps))  # TypeError unless integers
                if len(exps) != width:
                    raise ValueError("exponent vector width mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in Poly")
                pairs.append((exps, ExactScalar.coerce(c)))
        self.terms = Poly._collect(self.vars, pairs).terms

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "Poly":
        """A Poly over terms that are already canonical: keys are tuples of
        width len(vars) with non-negative entries, values nonzero
        ExactScalars.  The dict is taken over, not copied."""
        p = _new(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def _collect(cls, vars: tuple, pairs, start=()) -> "Poly":
        """The Poly over vars whose terms are those of the dict start plus
        each (exps, coefficient) pair, summed per key with ExactScalar
        addition (so sqrt(pi) grades are checked) and a sum that cancels
        dropped at once.  Every sum of coefficients at one key is made
        here; start is copied, not taken over."""
        out = dict(start)
        for exps, c in pairs:
            s = out.get(exps)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = s
        return cls._of(vars, out)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars=()):
        return cls(vars, {})

    @classmethod
    def sum(cls, polys, vars=()) -> "Poly":
        """The sum of the Polys, equal to the left fold
        Poly.zero(vars) + p1 + p2 + ...: over vars when every summand is,
        else over the sorted union of all the variables; one dict is filled
        for the whole sum."""
        polys = list(polys)
        vars = tuple(vars)
        if any(p.vars != vars for p in polys):
            vars = tuple(sorted(set(vars).union(*[p.vars for p in polys])))
        return cls._collect(vars, (t for p in polys for t in p._remap(vars).items()))

    @classmethod
    def const(cls, c):
        c = ExactScalar.coerce(c)
        return cls._of((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str, power: int = 1, coeff=1):
        if index(power) == 0:
            return cls.const(coeff)
        return cls((name,), {(power,): ExactScalar.coerce(coeff)})

    @classmethod
    def monomial(cls, coeff, **exps):
        names = tuple(sorted(n for n, e in exps.items() if index(e)))
        key = tuple(exps[n] for n in names)
        return cls(names, {key: ExactScalar.coerce(coeff)})

    # -- alignment ---------------------------------------------------------

    def _remap(self, vars):
        """Terms re-keyed onto a superset variable tuple."""
        if vars == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(vars)}
        out = {}
        for exps, c in self.terms.items():
            key = [0] * len(vars)
            for v, e in zip(self.vars, exps):
                key[pos[v]] = e
            out[tuple(key)] = c
        return out

    def _aligned(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        return vars, self._remap(vars), other._remap(vars)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        vars, a, b = self._aligned(other)
        return Poly._collect(vars, b.items(), a)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _scalar_operand(other)
            if c is NotImplemented:
                return c
            if not c:
                return Poly._of(self.vars, {})
            return Poly._of(self.vars, {e: cc * c for e, cc in self.terms.items()})
        vars, a, b = self._aligned(other)
        da, a = _over_common_den(a)
        db, b = _over_common_den(b)
        d = da * db
        # Integer numerators summed per key; a key's sqrt(pi) grade is that
        # of its first product, or of the next one after its sum cancels.
        nums = {}
        grades = {}
        for e1, n1, g1 in a:
            for e2, n2, g2 in b:
                key = tuple(map(add, e1, e2))
                g = g1 + g2
                s = nums.get(key)
                if s and grades[key] != g:
                    raise _grade_clash(
                        _ratio(s, d, grades[key]), _ratio(n1 * n2, d, g)
                    )
                nums[key] = (s or 0) + n1 * n2
                if not s:
                    grades[key] = g
        return Poly._of(
            vars, {k: _ratio(n, d, grades[k]) for k, n in nums.items() if n}
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("Poly powers must be non-negative integers")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        # Equal Polys may differ in unused or reordered variables, and a
        # constant equals its scalar, so hash the canonical form.
        terms = {
            tuple(sorted((v, e) for v, e in zip(self.vars, exps) if e)): c
            for exps, c in self.terms.items()
        }
        if terms.keys() <= {()}:
            return hash(terms.get((), ZERO))
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ------------------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        if var not in self.vars:
            return Poly.zero(self.vars)
        i = self.vars.index(var)
        # exps -> exps with e_i - 1 is one-to-one, so no two terms meet
        return Poly._of(self.vars, {
            exps[:i] + (exps[i] - 1,) + exps[i + 1 :]:
            _ratio(c.num * exps[i], c.den, c.sqrt_pi_pow)
            for exps, c in self.terms.items()
            if exps[i]
        })

    def shift(self, var: str, c) -> "Poly":
        """Taylor shift: substitute var -> var + c (c free of var)."""
        c = c if isinstance(c, Poly) else Poly.const(c)
        if c.degree(var) > 0:
            raise ValueError(f"shift offset must not involve {var!r}")
        return self.substitute(var, Poly.var(var) + c)

    def substitute(self, var: str, value) -> "Poly":
        """Substitute var -> value (Poly or scalar), fully expanded; a
        scalar value scales each coefficient by its power."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        rest_vars = self.vars[:i] + self.vars[i + 1 :]
        if isinstance(value, Poly):
            return Poly.sum((
                Poly._of(rest_vars, {exps[:i] + exps[i + 1 :]: c}) * value ** exps[i]
                for exps, c in self.terms.items()
            ), rest_vars)
        value = ExactScalar.coerce(value)
        scale = {}  # exponent -> value ** exponent, or None where that is one
        for e in {exps[i] for exps in self.terms}:
            p = value**e
            scale[e] = None if p == ONE else p
        pairs = []
        for exps, c in self.terms.items():
            p = scale[exps[i]]
            pairs.append((exps[:i] + exps[i + 1 :], c if p is None else c * p))
        return Poly._collect(rest_vars, pairs)

    # -- structure ------------------------------------------------------------

    def degree(self, var: str):
        if not self.terms:
            return -inf
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coeff_of(self, var: str, k: int) -> "Poly":
        """Polynomial coefficient of var**k, as a Poly in the other variables."""
        if var not in self.vars:
            return self if k == 0 else Poly.zero(self.vars)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                out[exps[:i] + exps[i + 1 :]] = c
        return Poly._of(rest, out)

    def scalar_coeff(self, **exps) -> ExactScalar:
        """Coefficient of the stated monomial; unstated variables at power 0."""
        key = []
        for v in self.vars:
            key.append(exps.pop(v, 0))
        if any(exps.values()):
            return ZERO
        return self.terms.get(tuple(key), ZERO)

    def as_scalar(self) -> ExactScalar:
        """The value of a constant polynomial; raises if non-constant."""
        if any(any(e) for e in self.terms):
            raise ValueError(f"polynomial is not constant: {self}")
        return self.scalar_coeff()

    def _rows(self) -> list:
        """Each term once, in graded-lexicographic descending order, as
        (exps, numerator, denominator, sqrt_pi_pow): the one walk that the
        text, LaTeX and JSON writers read.  The denominator is a positive
        int, or its decimal string from _decimal_dens when it has more than
        600 digits; either formats the same under str, %s and f-strings."""
        rows = []
        top = 0
        for exps, c in sorted(self.terms.items(), key=_grlex, reverse=True):
            den = c.den
            rows.append((exps, c.num, den, c.sqrt_pi_pow))
            if den > top:
                top = den
        if top >= _DECIMAL_FLOOR:
            dens = _decimal_dens([r[2] for r in rows])
            rows = [(e, n, d, g) for (e, n, _, g), d in zip(rows, dens)]
        return rows

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        return self._render(_TEXT)

    def latex(self) -> str:
        return self._render(_LATEX)

    def _render(self, style) -> str:
        if not self.terms:
            return "0"
        names = [style.names.get(v, v) for v in self.vars]
        open_, close = style.power_open, style.power_close
        pi, frac = style.pi, style.frac
        # every term is written with a leading " + " or " - ", which the
        # first term trades for "" or "-" at the end
        out = []
        for exps, num, den, k in self._rows():
            body = " " + pi(k) if k else ""
            for name, e in zip(names, exps):
                if e == 1:
                    body += " " + name
                elif e:
                    body += f" {name}{open_}{e}{close}"
            if num < 0:
                sign = " - "
                num = -num
            else:
                sign = " + "
            if den != 1:
                out.append(f"{sign}{frac % (num, den)}{body}")
            elif num != 1 or not body:
                out.append(f"{sign}{num}{body}")
            else:
                out.append(sign + body[1:])
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"Poly({self.text()})"


def _pi_text(k):
    if k % 2:
        return "sqrt(pi)" if k == 1 else f"sqrt(pi)^{k}"
    return "pi" if k == 2 else f"pi^{k // 2}"


def _pi_latex(k):
    if k % 2:
        return r"\sqrt{\pi}" if k == 1 else r"\pi^{%d/2}" % k
    return r"\pi" if k == 2 else r"\pi^{%d}" % (k // 2)


class _Style(NamedTuple):
    """How one output format writes a term of a Poly."""

    names: dict  # variable name -> written name, where they differ
    power_open: str  # written between a name and its exponent
    power_close: str  # written after the exponent
    pi: Callable  # nonzero sqrt(pi) power -> written factor
    frac: str  # %-template of a numerator > 0 over a denominator other than 1


_TEXT = _Style({}, "^", "", _pi_text, "%d/%s")
_LATEX = _Style(
    {"mu": r"\mu", "lambda": r"\lambda"}, "^{", "}", _pi_latex, r"\frac{%d}{%s}"
)


class CoeffSeries:
    """Coefficients of a series truncated at an explicit order.

    ``coeffs[k]`` is the Poly coefficient of the k-th power of the series
    parameter; the list always has length order + 1.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        coeffs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [Poly.zero() for _ in range(order + 1 - len(coeffs))]
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def build(cls, fn, order: int) -> "CoeffSeries":
        return cls([fn(k) for k in range(order + 1)], order)

    def __add__(self, other):
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return CoeffSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order
        )

    def __sub__(self, other):
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, CoeffSeries):
            if not isinstance(other, Poly):
                other = _scalar_operand(other)
                if other is NotImplemented:
                    return other
            return CoeffSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return CoeffSeries([
            Poly.sum(a[i] * b[k - i] for i in range(k + 1) if a[i] and b[k - i])
            for k in range(order + 1)
        ], order)

    __rmul__ = __mul__

    def lambda_derivative(self, L: int = 1) -> "CoeffSeries":
        """L-fold derivative in the series parameter; order drops by L."""
        if L < 0:
            raise ValueError("derivative order must be >= 0")
        if L > self.order:
            raise ValueError("derivative exceeds truncation order")
        order = self.order - L
        out = []
        for k in range(order + 1):
            scale = factorial(k + L) // factorial(k)
            out.append(self.coeffs[k + L] * scale)
        return CoeffSeries(out, order)

    def __eq__(self, other):
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        inner = ", ".join(c.text() for c in self.coeffs)
        return f"CoeffSeries(order={self.order}, [{inner}])"
