"""Exact scalar arithmetic: rationals, half-integers, and gamma values.

Everything in this package is a rational number times an integer power of
sqrt(pi).  Gamma functions are only ever evaluated at integer or
half-odd-integer arguments, where

    Gamma(n)     = (n-1)!                   integer n >= 1,
    Gamma(k+1/2) = (1/2)_k * sqrt(pi)       integer k >= 0,

and negative half-odd arguments follow by downward recursion from
Gamma(a) = Gamma(a+1)/a.  These values are one integer table,
_gamma_parts, giving a numerator, a denominator and a sqrt(pi) grade;
gamma_half, recip_gamma and the umbral transform's weights read it.
An ExactScalar stores its rational as one reduced integer pair, num over
den > 0, and does its arithmetic on those ints with math.gcd, by the
cross-gcd product and sum of the stdlib's Fraction; results are built
from integers through _ratio, which reduces, or _pair, for a pair coprime
by construction.  ExactScalar is the public coefficient type of a Poly,
which stores integer numerators over one denominator at one sqrt(pi) grade
and makes an ExactScalar only where one is read.  A rational parameter
(an int, a Fraction or a HalfInt) is read once, where it enters the
package, as a reduced integer pair by _parts, and all parameter
arithmetic is done on ints.  An int and a Fraction are read through the
numerator and denominator they share, so recognising one imports no
fractions module.  A Fraction is made, by _fraction, only to parse input
that is no rational, such as a decimal string (cli._rat parses each
rational option so), and for the public values that are one:
ExactScalar.rat and pochhammer.  A float is refused wherever a rational
is taken, since its binary value is not the decimal one written.
HalfInt and a rational ExactScalar hash as the equal Fraction does, by
CPython's rule for rationals computed from the integers (_rat_hash).
"""

from __future__ import annotations

import sys
from math import factorial, gcd, lcm, prod
from operator import index

from .errors import PoleError


class HalfInt:
    """An exact half-integer, stored as twice its value.

    Sums, equality and integer-ness are exact integer operations on
    ``twice``; there is no order or difference, so callers compare and
    subtract ``twice`` itself.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        self.twice = index(twice)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def is_nonpositive_integer(self) -> bool:
        return self.is_integer and self.twice <= 0

    def __add__(self, other):
        t = type(other)
        if t is int:
            twice = 2 * other
        elif t is HalfInt:
            twice = other.twice
        else:  # another rational, through half: a finer one raises ValueError
            try:
                twice = half(other).twice
            except TypeError:  # a type that half does not know
                return NotImplemented
        h = _new(HalfInt)
        h.twice = self.twice + twice
        return h

    __radd__ = __add__

    def __mul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return HalfInt(self.twice * k)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            return self.twice == half(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        t = self.twice
        return hash(t // 2) if t % 2 == 0 else _rat_hash(t, 2)

    def __repr__(self):
        if self.is_integer:
            return "HalfInt(%d)" % (self.twice // 2)
        return "HalfInt(%d/2)" % self.twice

    def __str__(self):
        return _text(*_parts(self))


def half(x) -> HalfInt:
    """Coerce an int, Fraction or HalfInt to HalfInt; reject anything finer."""
    if isinstance(x, HalfInt):
        return x
    den = getattr(x, "denominator", None)  # an int's or a Fraction's
    if den is None:
        raise TypeError(f"cannot interpret {x!r} as a half-integer")
    if den > 2:
        raise ValueError(f"{x} is not a half-integer")
    return HalfInt(x.numerator * (2 // den))


class ExactScalar:
    """A rational number num/den times pi^(sqrt_pi_pow/2).

    The pair is in lowest terms with den > 0, and zero is canonical: it is
    (0, 1) at sqrt_pi_pow == 0, so equality is a plain field-wise
    comparison.  Addition is only defined within one pi-grade (or with
    zero); a cross-grade sum is not representable and raises instead of
    silently degrading.

    The constructor checks its input: it refuses a float, which is not
    exact, and a sqrt(pi) power that is not an integer.  Arithmetic
    results are built by ``_pair`` from the integers they computed,
    without a second check.
    """

    __slots__ = ("num", "den", "sqrt_pi_pow")

    def __init__(self, rat, sqrt_pi_pow: int = 0):
        num, den = _parts(rat)
        sqrt_pi_pow = index(sqrt_pi_pow)
        self.num, self.den = num, den
        self.sqrt_pi_pow = sqrt_pi_pow if num else 0

    @property
    def rat(self):
        """The rational factor as a Fraction, built on each read."""
        return _fraction(self.num, self.den)

    @classmethod
    def coerce(cls, x) -> "ExactScalar":
        t = type(x)
        if t is ExactScalar:
            return x
        if t is int:
            return _pair(x, 1, 0)
        if isinstance(x, HalfInt):
            return _ratio(x.twice, 2, 0)
        if not hasattr(x, "denominator"):  # a float has none
            raise TypeError(f"cannot interpret {x!r} as an exact scalar")
        return _pair(x.numerator, x.denominator, 0)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = _operand(other)
            if other is NotImplemented:
                return other
        na, nb = self.num, other.num
        if not na:
            return other
        if not nb:
            return self
        grade = self.sqrt_pi_pow
        if grade != other.sqrt_pi_pow:
            raise _grade_clash(self, other)
        da, db = self.den, other.den
        # over lcm(da, db) = s db with g = gcd(da, db), s = da / g; the sum
        # is coprime to s and to db / g, so only g can divide it
        g = gcd(da, db)
        if g == 1:
            return _pair(na * db + da * nb, da * db, grade)
        s = da // g
        t = na * (db // g) + nb * s
        g = gcd(t, g)
        if g == 1:
            return _pair(t, s * db, grade)
        return _pair(t // g, s * (db // g), grade)

    __radd__ = __add__

    def __neg__(self):
        return _pair(-self.num, self.den, self.sqrt_pi_pow)

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
        if type(other) is not ExactScalar:
            other = _operand(other)
            if other is NotImplemented:
                return other
        na, nb = self.num, other.num
        if not (na and nb):
            return ZERO
        da, db = self.den, other.den
        # each numerator is coprime to its own denominator, so cancelling
        # it against the other one leaves the product in lowest terms
        g = gcd(na, db)
        if g != 1:
            na, db = na // g, db // g
        g = gcd(nb, da)
        if g != 1:
            nb, da = nb // g, da // g
        return _pair(na * nb, da * db, self.sqrt_pi_pow + other.sqrt_pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        nb = other.num
        if not nb:
            raise ZeroDivisionError("division by exact zero")
        na = self.num
        if not na:
            return ZERO
        da, db = self.den, other.den
        g = gcd(na, nb)
        if g != 1:
            na, nb = na // g, nb // g
        g = gcd(da, db)
        if g != 1:
            da, db = da // g, db // g
        if nb < 0:
            na, nb = -na, -nb
        return _pair(na * db, da * nb, self.sqrt_pi_pow - other.sqrt_pi_pow)

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ONE / self ** (-k)
        return _pair(self.num**k, self.den**k, self.sqrt_pi_pow * k)

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = ExactScalar.coerce(other)
            except TypeError:
                return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.sqrt_pi_pow == other.sqrt_pi_pow
        )

    def __hash__(self):
        # A rational value equals its Fraction, so it hashes as one.
        if self.sqrt_pi_pow == 0:
            return _rat_hash(self.num, self.den)
        return hash((self.num, self.den, self.sqrt_pi_pow))

    def _rat_text(self) -> str:
        return _text(self.num, self.den)

    def __repr__(self):
        if self.sqrt_pi_pow == 0:
            return f"ExactScalar({self._rat_text()})"
        return f"ExactScalar({self._rat_text()}, sqrt_pi_pow={self.sqrt_pi_pow})"

    def __str__(self):
        if self.sqrt_pi_pow == 0:
            return self._rat_text()
        return f"{self._rat_text()}*pi^({HalfInt(self.sqrt_pi_pow)})"


_new = object.__new__


def _operand(x):
    """x as an ExactScalar for an arithmetic operator, or NotImplemented
    when coerce cannot interpret it, so Python tries the other operand's
    reflected method (Poly knows how to combine with an ExactScalar)."""
    try:
        return ExactScalar.coerce(x)
    except TypeError:
        return NotImplemented


def _grade_clash(a: ExactScalar, b: ExactScalar) -> ValueError:
    """The error for a sum of two nonzero scalars of different sqrt(pi) powers."""
    return ValueError(
        f"cannot add scalars carrying different powers of sqrt(pi): {a} + {b}"
    )


def _pair(num: int, den: int, sqrt_pi_pow: int) -> ExactScalar:
    """num/den times sqrt(pi)^sqrt_pi_pow from a pair the caller knows to be
    in lowest terms with den > 0; zero gets grade 0."""
    s = _new(ExactScalar)
    s.num = num
    s.den = den
    s.sqrt_pi_pow = sqrt_pi_pow if num else 0
    return s


def _ratio(num: int, den: int, sqrt_pi_pow: int) -> ExactScalar:
    """num/den times sqrt(pi)^sqrt_pi_pow for any ints with den != 0,
    reduced by their gcd with the sign on num; zero is (0, 1) at grade 0."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    s = _new(ExactScalar)
    s.num = num // g
    s.den = den // g
    s.sqrt_pi_pow = sqrt_pi_pow if num else 0
    return s


ZERO = _pair(0, 1, 0)
ONE = _pair(1, 1, 0)

_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _rat_hash(num: int, den: int) -> int:
    """hash(Fraction(num, den)) for a reduced pair with den > 0, from the
    ints: CPython hashes a rational as num times the inverse of den modulo
    the prime sys.hash_info.modulus, with the sign of num, and an integer
    as itself."""
    if den == 1:
        return hash(num)
    try:
        h = hash(hash(abs(num)) * pow(den, -1, _MODULUS))
    except ValueError:  # den is a multiple of the modulus
        h = _HASH_INF
    if num < 0:
        h = -h
    return -2 if h == -1 else h


def _text(num: int, den: int) -> str:
    """A reduced pair written as str(Fraction(num, den)) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _parts(a) -> tuple:
    """a as (numerator, denominator) in lowest terms, denominator > 0: an
    int or a Fraction is read from the pair they share, a HalfInt from
    twice, and other input, such as a string, is parsed by Fraction; a
    float is refused, since its binary value is not the one meant."""
    if isinstance(a, HalfInt):
        t = a.twice
        return (t // 2, 1) if t % 2 == 0 else (t, 2)
    if isinstance(a, float):
        raise TypeError(f"cannot interpret {a!r} as an exact rational")
    if not hasattr(a, "denominator"):
        a = _fraction(a)
    return a.numerator, a.denominator


def _fraction(*args):
    """Fraction(*args), where a Fraction is made: the first call imports
    fractions and rebinds this name to Fraction itself, so importing the
    package does not load the module and no later call pays an import."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(*args)


def _over_lcm(a, b) -> tuple:
    """(q, q a, q b) as ints: the rationals a and b, read by _parts, over q,
    the lcm of their denominators."""
    an, ad = _parts(a)
    bn, bd = _parts(b)
    q = lcm(ad, bd)
    return q, an * (q // ad), bn * (q // bd)


def _pochhammer_parts(p: int, q: int, n: int) -> tuple:
    """(p/q)_n as an integer pair (num, den), den > 0 and not reduced:
    p/q + j = (p + j q) / q gives one integer product over q^n."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    num = 1
    for _ in range(n):
        num *= p
        p += q
    return num, q**n


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), a Fraction; empty
    product for n = 0."""
    return _fraction(*_pochhammer_parts(*_parts(a), n))


def _gamma_parts(h: HalfInt):
    """The one table of Gamma values: Gamma(h) = num / den * sqrt(pi)^grade
    as the integers (num, den, grade), den > 0 and gcd(num, den) = 1.  It
    is (m-1)! at an integer m >= 1, (2k-1)!! / 2^k at k + 1/2 for k >= 0,
    and (-2)^j / (2j-1)!! at -j + 1/2 for j >= 1, from Gamma(a) =
    Gamma(a+1) / a.  PoleError on the poles (non-positive integers)."""
    t = h.twice
    if t % 2 == 0:
        if t <= 0:
            raise PoleError(f"Gamma pole at {t // 2}")
        return factorial(t // 2 - 1), 1, 0
    if t > 0:
        k = (t - 1) // 2
        return prod(range(1, 2 * k, 2)), 1 << k, 1
    j = (1 - t) // 2
    return (-2) ** j, prod(range(1, 2 * j, 2)), 1


def gamma_half(a) -> ExactScalar:
    """Gamma at an integer or half-odd-integer argument.

    Raises PoleError on the poles (non-positive integers).
    """
    return _pair(*_gamma_parts(half(a)))


def recip_gamma(a) -> ExactScalar:
    """1/Gamma(a); total, with zeros at the non-positive integers."""
    h = half(a)
    if h.is_nonpositive_integer():
        return ZERO
    num, den, grade = _gamma_parts(h)
    return _ratio(den, num, -grade)


def gamma_ratio(a, b) -> ExactScalar:
    """Gamma(a)/Gamma(b), exact and purely rational when a - b is an integer."""
    ha, hb = half(a), half(b)
    if ha.is_nonpositive_integer():
        raise PoleError(f"Gamma pole at {ha}")
    d = ha.twice - hb.twice
    if d % 2 == 0:
        n = d // 2
        if n >= 0:
            return _ratio(*_pochhammer_parts(*_parts(hb), n), 0)
        # (a)_(-n) is not zero: a is not a non-positive integer
        num, den = _pochhammer_parts(*_parts(ha), -n)
        return _ratio(den, num, 0)
    return gamma_half(ha) * recip_gamma(hb)


def beta_fn(a, b) -> ExactScalar:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b), from three
    reads of the integer table _gamma_parts over one reduction."""
    ha, hb = half(a), half(b)
    hc = ha + hb
    for arg in (ha, hb, hc):
        if arg.is_nonpositive_integer():
            raise PoleError(f"beta function pole at argument {arg}")
    na, da, ga = _gamma_parts(ha)
    nb, db, gb = _gamma_parts(hb)
    nc, dc, gc = _gamma_parts(hc)
    return _ratio(na * nb * dc, da * db * nc, ga + gb - gc)
