"""Sparse multivariate polynomials with exact coefficients, plus truncated series.

A Poly keeps an explicit variable tuple and stores its coefficients as
FLINT's fmpq_poly stores one variable's: integers over one denominator.
For each sqrt(pi) grade present it holds one positive integer denominator
and a map from exponent vectors to nonzero integer numerators, with the
gcd of the denominator and all the numerators equal to one; no exponent
vector appears in two grades.  These parts are sorted by grade, so equal
Polys over one variable tuple store equal parts.

Binary operations align variable sets by union, so polynomials over
different alphabets combine freely.  Arithmetic runs on the stored
integers: a sum is one lcm and one integer sum per grade, a scaling one
product of the numerators, a product one integer convolution, and each
result is brought to lowest terms by one gcd of its denominator and
numerators.  Two grades meeting at one exponent vector raise the
ValueError that ExactScalar addition raises; a sum or product over
several grades meets them as the left fold of its summands and the
schoolbook loop over its pairs of terms do (Poly.sum, Poly.__mul__).

``Poly(vars, terms)`` checks its input, a map from exponent vectors to
exact scalars, and ``Poly.terms`` gives such a map back: a new dict of
ExactScalars, each term reduced as it is read, for readers outside the
integer kernels.  Only this module reads or writes the stored parts: the
integer kernels of the other modules read them through Poly._by_grade
and build their results through Poly._over, Poly._term_over and
Poly._sum_over (a sum of scaled pieces in one pass), which bring any
integers over any nonzero denominator to lowest terms; Poly._first_unequal
compares such integers at all powers of a series with Polys, building none.

A CoeffSeries is a list of Poly coefficients of one formal series
parameter, truncated at an explicit order; every operation records the
order that remains valid.

Every output format reads one accessor, Poly._rows: the terms in
graded-lexicographic descending order as (exps, numerator, denominator,
sqrt_pi_pow), each reduced as it is written.  The text and LaTeX renderers
here and jsonio's writer take each term's integers from it; a denominator
of more than 600 digits comes as its decimal string, converted over the
gcd of the Poly's long denominators (_decimal_dens).
"""

from __future__ import annotations

import sys
from math import gcd, inf, lcm
from operator import add, index, itemgetter
from typing import Callable, NamedTuple

from .scalar import ExactScalar, ZERO, _grade_clash, _ratio
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


def _reduced(grade: int, den: int, nums: dict) -> tuple:
    """The parts of the Poly sum nums[e] / den x^e at one sqrt(pi) grade:
    () when every numerator is zero, else the one part (grade, den, nums)
    with the zeros dropped, den > 0 and the gcd of den and the numerators
    divided out.  den is a nonzero int; nums may be kept as it is, so the
    caller hands it over."""
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if not nums:
        return ()
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    elif g == 1:
        return ((grade, den, nums),)
    return ((grade, den // g, {e: n // g for e, n in nums.items()}),)


def _grlex(row):
    """Sort key of a (exps, ...) row: total degree, then exponents."""
    return sum(row[0]), row[0]


def _term(exps: tuple, c: ExactScalar) -> tuple:
    """The parts of the one term c x^exps."""
    return ((c.sqrt_pi_pow, c.den, {exps: c.num}),) if c.num else ()


_den = itemgetter(1)  # the denominator of a part


def _sum_grade(parts: list) -> tuple:
    """The parts of the sum of the parts, two or more of one grade: each
    one's numerators brought over the lcm of the denominators and summed
    per key, the first one's dict copied and the others added into it.
    Where no two parts share a key the union needs no gcd: a prime's top
    power in the lcm is that of one part's denominator, and that part, in
    lowest terms, has a numerator the prime does not divide."""
    den = lcm(*map(_den, parts))
    grade, d, ns = parts[0]
    m = den // d
    nums = dict(ns) if m == 1 else {e: n * m for e, n in ns.items()}
    get = nums.get
    met = False
    for _, d, ns in parts[1:]:
        m = den // d
        for e, n in ns.items():
            s = get(e)
            if s is None:
                nums[e] = n * m
            else:
                nums[e] = s + n * m
                met = True
    return _reduced(grade, den, nums) if met else ((grade, den, nums),)


def _sum_parts(summands: list) -> tuple:
    """The parts of the sum of Polys over one variable tuple, given as
    their parts.  At one grade this is _sum_grade; over several, the left
    fold of the summands, where a key of the next summand that the sum so
    far holds at another grade raises the ValueError of ExactScalar
    addition for the two coefficients there, the first such key in the
    summand's order being the one named."""
    parts = []
    for t in summands:
        if t:
            if len(t) != 1 or parts and t[0][0] != parts[0][0]:
                return _fold(summands)
            parts.append(t[0])
    if len(parts) < 2:
        return tuple(parts)
    return _sum_grade(parts)


def _fold(summands: list) -> tuple:
    """_sum_parts over several grades."""
    out = ()
    for t in summands:
        held = {e: (g, d, n) for g, d, nums in out for e, n in nums.items()}
        for g, d, nums in t:
            for e, n in nums.items():
                h = held.get(e)
                if h is not None and h[0] != g:
                    raise _grade_clash(_ratio(h[2], h[1], h[0]), _ratio(n, d, g))
        by_grade = {g: [(g, d, nums)] for g, d, nums in out}
        for part in t:
            by_grade.setdefault(part[0], []).append(part)
        out = tuple(
            p
            for g in sorted(by_grade)
            for p in (by_grade[g] if len(by_grade[g]) == 1 else _sum_grade(by_grade[g]))
        )
    return out


def _scaled(parts: tuple, c: ExactScalar) -> tuple:
    """The parts of a Poly times the scalar c: per grade, c's numerator is
    cancelled against the denominator and c's denominator against the
    numerators, which leaves the product in lowest terms."""
    cn, cd, cg = c.num, c.den, c.sqrt_pi_pow
    if not cn:
        return ()
    out = []
    for g, d, nums in parts:
        g1 = gcd(cn, d)
        g2 = gcd(cd, *nums.values()) if cd != 1 else 1
        m = cn // g1
        if g2 != 1:
            nums = {e: n // g2 * m for e, n in nums.items()}
        elif m != 1:
            nums = {e: n * m for e, n in nums.items()}
        out.append((g + cg, d // g1 * (cd // g2), nums))
    return tuple(out)


def _product(a: tuple, b: tuple) -> tuple:
    """The parts of the product of two Polys over one variable tuple, given
    as their parts.  Each operand's numerators are brought over the lcm of
    its denominators and the products are summed per key in the
    schoolbook order, pairs of terms in the operands' order: a key takes
    the grade of its first product, or of the next one after its sum
    cancels, and a product of another grade at a key whose sum is not
    zero raises the ValueError of ExactScalar addition."""
    if not (a and b):
        return ()
    da, ta = _common(a)
    db, tb = _common(b)
    d = da * db
    nums, grades = {}, {}
    get = nums.get
    for e1, n1, g1 in ta:
        for e2, n2, g2 in tb:
            key = tuple(map(add, e1, e2))
            g = g1 + g2
            s = get(key)
            if s and grades[key] != g:
                raise _grade_clash(_ratio(s, d, grades[key]), _ratio(n1 * n2, d, g))
            nums[key] = (s or 0) + n1 * n2
            if not s:
                grades[key] = g
    by_grade = {}
    for key, n in nums.items():
        by_grade.setdefault(grades[key], {})[key] = n
    return tuple(p for g in sorted(by_grade) for p in _reduced(g, d, by_grade[g]))


def _common(parts: tuple) -> tuple:
    """(d, [(exps, numerator, grade)]): every term of the parts as an
    integer numerator over d, the lcm of their denominators."""
    d = lcm(*[den for _, den, _ in parts])
    return d, [
        (e, n * (d // den), g) for g, den, nums in parts for e, n in nums.items()
    ]


_new = object.__new__


# Poly._rows writes a denominator of more than 600 digits through
# _decimal_dens: below that plain str was as fast or faster on the
# sj-beta-shifted and Hermite EGF coefficients, above it the route won by
# up to 4x (2-core x86_64, CPython 3.11.7).
_DECIMAL_FLOOR = 10**600


def _decimal_dens(dens: list) -> list:
    """dens with each one of more than 600 digits replaced by its str(),
    made from one conversion of G, the gcd of those long ones.  CPython
    writes an int in decimal in quadratic time, and so does Decimal(int);
    the long denominators of one Poly share most of their digits in G, so
    each is written as the exact decimal product of G and its short
    cofactor.  One of more than sys.get_int_max_str_digits() digits is
    refused by str(d) itself, with the ValueError that str(d) raises.
    decimal is imported here, so that importing the package does not load it."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    g = gcd(*[d for d in dens if d >= _DECIMAL_FLOOR])
    g_dec = exact.create_decimal(g)
    limit = sys.get_int_max_str_digits()
    out = []
    for d in dens:
        if d >= _DECIMAL_FLOOR:
            s = str(exact.multiply(g_dec, exact.create_decimal(d // g)))
            d = str(d) if limit and len(s) > limit else s  # str(d) raises
        out.append(d)
    return out


class Poly:
    """``Poly(vars, terms)`` checks the variables and every term; the
    results of arithmetic on Polys are built by ``Poly._of`` from parts
    that are canonical by construction and are not checked again."""

    __slots__ = ("vars", "_parts")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"repeated variable in {self.vars}")
        self._parts = ()
        if terms:
            width = len(self.vars)
            summands = []
            for exps, c in terms.items():
                exps = tuple(map(index, exps))  # TypeError unless integers
                if len(exps) != width:
                    raise ValueError("exponent vector width mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in Poly")
                summands.append(_term(exps, ExactScalar.coerce(c)))
            self._parts = _sum_parts(summands)

    @staticmethod
    def _of(vars: tuple, parts: tuple) -> "Poly":
        """A Poly over parts that are already canonical: a tuple, sorted by
        grade, of (grade, den, nums) with den > 0 and nums a nonempty dict
        from exponent tuples of width len(vars) to nonzero ints, coprime
        to den as a whole, no key in two parts.  The dicts are shared, not
        copied: no Poly changes its parts."""
        p = _new(Poly)
        p.vars = vars
        p._parts = parts
        return p

    @staticmethod
    def _over(vars: tuple, grade: int, den: int, nums: dict) -> "Poly":
        """The Poly sum nums[e] / den x^e at one sqrt(pi) grade, from any
        integer numerators (zeros allowed) over a nonzero den; nums is
        taken over."""
        p = _new(Poly)
        p.vars = vars
        p._parts = _reduced(grade, den, nums)
        return p

    @staticmethod
    def _term_over(vars: tuple, grade: int, exps: tuple, num: int, den: int) -> "Poly":
        """The one-term Poly num / den x^exps at one sqrt(pi) grade, from
        any integer num over a nonzero den: _over without the dict scans,
        for the kernels that make one term at a time (the coefficients of
        families.sj_umbral, connect.hermite_connection)."""
        p = _new(Poly)
        p.vars = vars
        if num:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            p._parts = ((grade, den // g, {exps: num // g}),)
        else:
            p._parts = ()
        return p

    @staticmethod
    def _sum_over(vars: tuple, pieces: list) -> "Poly":
        """The sum over vars of the pieces (grade, den, nums, m), each the
        terms nums[e] m / den x^e at that sqrt(pi) grade, from integers
        over a nonzero den, a key free to recur in several pieces; the
        dicts are only read.  At one grade it is one pass: every numerator
        times its m brought over the lcm of the dens, summed per key and
        reduced once.  Over several it is the sum of the one-piece Polys
        in the pieces' order, so a clash of grades raises as Poly.sum
        raises it."""
        grade = pieces[0][0] if pieces else 0
        den = lcm(*[p[1] for p in pieces])
        total = {}
        get = total.get
        for g, d, nums, m in pieces:
            if g != grade:
                return Poly.sum([
                    Poly._over(vars, g, d, {e: n * m for e, n in nums.items()})
                    for g, d, nums, m in pieces
                ], vars)
            m *= den // d
            for e, n in nums.items():
                total[e] = get(e, 0) + n * m
        return Poly._over(vars, grade, den, total)

    def _by_grade(self, vars=None) -> tuple:
        """The stored integers, for the kernels that run on them: per
        sqrt(pi) grade, in increasing order, (grade, den, nums), nums a
        dict from exponent tuples to the nonzero numerators over den > 0,
        in lowest terms; re-keyed onto vars, a superset of self.vars, when
        it is given.  The dicts are shared and not to be changed: a kernel
        builds its result through Poly._over."""
        return self._parts if vars is None else self._remap(vars)

    @staticmethod
    def _first_unequal(polys: list, vars: tuple, den: int, nums: dict):
        """The first k at which polys[k] differs from k! times the Poly sum
        nums[(k, *e)] / den x^e over vars at grade 0, else None, from any
        integers (zeros allowed, only read) over a nonzero den: each nonzero
        numerator needs a stored one at its key, cross-multiplied with den
        and d k!, d the stored denominator, and polys[k] no other terms."""
        checks, f = [], 1  # per k: (stored.get, d k!, the number stored)
        for k, p in enumerate(polys):
            f *= k or 1
            extra = [i for i, v in enumerate(p.vars) if v not in vars]
            if extra and any(e[i] for _, _, ns in p._parts for e in ns for i in extra):
                break
            parts = p._remap(vars)
            if len(parts) > 1 or parts and parts[0][0]:
                break
            _, d, stored = parts[0] if parts else (0, 1, {})
            checks.append((stored.get, d * f, len(stored)))
        top = len(checks)  # the first k found unequal, or past the last
        counts = [0] * top
        for key, n in nums.items():
            k = key[0]
            if k < top:
                get, scale, _ = checks[k]
                if get(key[1:], 0) * den != n * scale:
                    top = k
                elif n:
                    counts[k] += 1
        for k in range(top):
            if counts[k] != checks[k][2]:
                return k
        return None if top == len(polys) else top

    def _renamed(self, vars: tuple) -> "Poly":
        """The same terms over vars, one new name for each of self.vars in
        its place; the stored integers are shared."""
        return Poly._of(tuple(vars), self._parts)

    @property
    def terms(self) -> dict:
        """A new dict from exponent tuples to nonzero ExactScalars, each
        coefficient reduced as it is read; the view for readers outside
        the integer kernels."""
        return {
            e: _ratio(n, d, g) for g, d, nums in self._parts for e, n in nums.items()
        }

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars=()):
        return cls(vars)

    @classmethod
    def sum(cls, polys, vars=()) -> "Poly":
        """The sum of the Polys, equal to the left fold
        Poly.zero(vars) + p1 + p2 + ...: over vars when every summand is,
        else over the sorted union of all the variables (see _sum_parts)."""
        polys = list(polys)
        vars = tuple(vars)
        for p in polys:
            if p.vars != vars:
                vars = tuple(sorted(set(vars).union(*[p.vars for p in polys])))
                break
        return cls._of(vars, _sum_parts([
            p._parts if p.vars == vars else p._remap(vars) for p in polys
        ]))

    @classmethod
    def const(cls, c):
        return cls._of((), _term((), ExactScalar.coerce(c)))

    @classmethod
    def var(cls, name: str, power: int = 1, coeff=1):
        power = index(power)
        if power < 0:
            raise ValueError("negative exponent in Poly")
        c = ExactScalar.coerce(coeff)
        if not power:
            return cls._of((), _term((), c))
        return cls._of((name,), _term((power,), c))

    # -- alignment ---------------------------------------------------------

    def _remap(self, vars) -> tuple:
        """The parts re-keyed onto a superset variable tuple."""
        if vars == self.vars:
            return self._parts
        # position of each new variable in an old key padded by one 0
        src = [self.vars.index(v) if v in self.vars else -1 for v in vars]
        return tuple(
            (g, d, {tuple(map((e + (0,)).__getitem__, src)): n
                    for e, n in nums.items()})
            for g, d, nums in self._parts
        )

    def _aligned(self, other):
        """(vars, parts of self, parts of other) over the sorted union of
        their variables, or over their one variable tuple."""
        if self.vars == other.vars:
            return self.vars, self._parts, other._parts
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        return vars, self._remap(vars), other._remap(vars)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        vars, a, b = self._aligned(other)
        return Poly._of(vars, _sum_parts([a, b]))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.vars, tuple(
            (g, d, {e: -n for e, n in nums.items()}) for g, d, nums in self._parts
        ))

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
            return Poly._of(self.vars, _scaled(self._parts, c))
        vars, a, b = self._aligned(other)
        return Poly._of(vars, _product(a, b))

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
        # constant equals its scalar, so hash the canonical form: the
        # stored integers are canonical within a grade.
        if not any(any(e) for _, _, nums in self._parts for e in nums):
            return hash(self.scalar_coeff())
        vars = self.vars
        return hash(frozenset(
            (tuple(sorted((v, e) for v, e in zip(vars, exps) if e)), g, d, n)
            for g, d, nums in self._parts
            for exps, n in nums.items()
        ))

    def __bool__(self):
        return bool(self._parts)

    def is_zero(self) -> bool:
        return not self._parts

    # -- substitution --------------------------------------------------------

    def substitute(self, var: str, value) -> "Poly":
        """Substitute var -> value (Poly or scalar), fully expanded.  A Poly
        value gives the sum over the powers e of var of the coefficient of
        var^e times value^e.  A scalar p/q scales each term's numerator by
        p^e q^(E-e) over its grade's denominator times q^E, E the grade's
        top power of var, and shifts its grade by e times the value's."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        if isinstance(value, Poly):
            powers = dict.fromkeys(e[i] for _, _, nums in self._parts for e in nums)
            return Poly.sum((self.coeff_of(var, e) * value**e for e in powers), rest)
        value = ExactScalar.coerce(value)
        vn, vd, vg = value.num, value.den, value.sqrt_pi_pow
        pieces = []
        for g, d, nums in self._parts:
            top = max([exps[i] for exps in nums])
            by_grade = {}
            for exps, n in nums.items():
                e = exps[i]
                out = by_grade.setdefault(g + vg * e, {})
                key = exps[:i] + exps[i + 1 :]
                out[key] = out.get(key, 0) + n * vn**e * vd ** (top - e)
            for h, out in by_grade.items():
                pieces.append(Poly._over(rest, h, d * vd**top, out))
        return pieces[0] if len(pieces) == 1 else Poly.sum(pieces, rest)

    # -- structure ------------------------------------------------------------

    def degree(self, var: str):
        if not self._parts:
            return -inf
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for _, _, nums in self._parts for e in nums)

    def coeff_of(self, var: str, k: int) -> "Poly":
        """Polynomial coefficient of var**k, as a Poly in the other variables."""
        if var not in self.vars:
            return self if k == 0 else Poly.zero(self.vars)
        i = self.vars.index(var)
        parts = []
        for g, d, nums in self._parts:
            parts += _reduced(g, d, {
                exps[:i] + exps[i + 1 :]: n for exps, n in nums.items() if exps[i] == k
            })
        return Poly._of(self.vars[:i] + self.vars[i + 1 :], tuple(parts))

    def scalar_coeff(self, **exps) -> ExactScalar:
        """Coefficient of the stated monomial; unstated variables at power 0."""
        key = []
        for v in self.vars:
            key.append(exps.pop(v, 0))
        if any(exps.values()):
            return ZERO
        key = tuple(key)
        for g, d, nums in self._parts:
            n = nums.get(key)
            if n is not None:
                return _ratio(n, d, g)
        return ZERO

    def _rows(self) -> list:
        """Each term once, in graded-lexicographic descending order, as
        (exps, numerator, denominator, sqrt_pi_pow) in lowest terms: the
        one walk that the text, LaTeX and JSON writers read.  The
        denominator is a positive int, or its decimal string from
        _decimal_dens when it has more than 600 digits; either formats the
        same under str, %s and f-strings.

        A term n / d of a part reduces by gcd(n, d); the one term of a
        one-term part is in lowest terms already."""
        rows = []
        top = 0
        for g, d, nums in self._parts:
            top = max(top, d)
            if d == 1 or len(nums) == 1:
                rows += [(e, n, d, g) for e, n in nums.items()]
                continue
            rows += [
                (e, n, d, g) if (r := gcd(n, d)) == 1 else (e, n // r, d // r, g)
                for e, n in nums.items()
            ]
        if len(self.vars) > 1:
            rows.sort(key=_grlex, reverse=True)
        else:  # one variable: its exponent alone orders the terms
            rows.sort(reverse=True)
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
        if not self._parts:
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

    def __eq__(self, other):
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        inner = ", ".join(c.text() for c in self.coeffs)
        return f"CoeffSeries(order={self.order}, [{inner}])"
