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
Rationals are ``fractions.Fraction`` throughout: the stdlib type already
guarantees lowest terms and a positive denominator.  A float is refused
wherever a rational is taken, since its binary value is not the decimal
one written.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import index

from .errors import PoleError


class HalfInt:
    """An exact half-integer, stored as twice its value.

    Ordering, integer-ness and integer-difference tests are all exact
    integer comparisons on ``twice``.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        self.twice = index(twice)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def is_nonpositive_integer(self) -> bool:
        return self.is_integer and self.twice <= 0

    def __add__(self, other):
        other = _half_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other):
        other = _half_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice - other.twice)

    def __rsub__(self, other):
        other = _half_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return HalfInt(other.twice - self.twice)

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

    def __lt__(self, other):
        other = _half_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.twice < other.twice

    def __le__(self, other):
        other = _half_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.twice <= other.twice

    def __hash__(self):
        return hash(self.as_fraction)

    def __repr__(self):
        if self.is_integer:
            return "HalfInt(%d)" % (self.twice // 2)
        return "HalfInt(%d/2)" % self.twice

    def __str__(self):
        return str(self.as_fraction)


def half(x) -> HalfInt:
    """Coerce an int, Fraction or HalfInt to HalfInt; reject anything finer."""
    if isinstance(x, HalfInt):
        return x
    if isinstance(x, int):
        return HalfInt(2 * x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return HalfInt(2 * x.numerator)
        if x.denominator == 2:
            return HalfInt(x.numerator)
        raise ValueError(f"{x} is not a half-integer")
    raise TypeError(f"cannot interpret {x!r} as a half-integer")


def _half_operand(x):
    """x as a HalfInt for an operator, or NotImplemented for a type that half
    does not know; a finer rational still raises ValueError."""
    try:
        return half(x)
    except TypeError:
        return NotImplemented


class ExactScalar:
    """A rational number times pi^(sqrt_pi_pow/2).

    Zero is canonical: rat == 0 forces sqrt_pi_pow == 0, so equality is a
    plain field-wise comparison.  Addition is only defined within one
    pi-grade (or with zero); a cross-grade sum is not representable and
    raises instead of silently degrading.

    The constructor checks its input: it refuses a float, which is not
    exact, and a sqrt(pi) power that is not an integer.  Arithmetic
    results are built by ``_exact`` from the Fraction they computed,
    without a second check.
    """

    __slots__ = ("rat", "sqrt_pi_pow")

    def __init__(self, rat, sqrt_pi_pow: int = 0):
        if isinstance(rat, float):
            raise TypeError(f"cannot interpret {rat!r} as an exact scalar")
        rat = Fraction(rat)
        sqrt_pi_pow = index(sqrt_pi_pow)
        self.rat = rat
        self.sqrt_pi_pow = sqrt_pi_pow if rat else 0

    @classmethod
    def coerce(cls, x) -> "ExactScalar":
        t = type(x)
        if t is ExactScalar:
            return x
        if t is int:
            return _exact(Fraction(x), 0)
        if t is Fraction:
            return _exact(x, 0)
        if isinstance(x, (int, Fraction)):
            return cls(x)
        if isinstance(x, HalfInt):
            return cls(x.as_fraction)
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")

    def is_zero(self) -> bool:
        return not self.rat

    def __bool__(self):
        return bool(self.rat)

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = _operand(other)
            if other is NotImplemented:
                return other
        if not self.rat:
            return other
        if not other.rat:
            return self
        if self.sqrt_pi_pow != other.sqrt_pi_pow:
            raise _grade_clash(self, other)
        return _exact(self.rat + other.rat, self.sqrt_pi_pow)

    __radd__ = __add__

    def __neg__(self):
        return _exact(-self.rat, self.sqrt_pi_pow)

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
        return _exact(self.rat * other.rat, self.sqrt_pi_pow + other.sqrt_pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if not other.rat:
            raise ZeroDivisionError("division by exact zero")
        return _exact(self.rat / other.rat, self.sqrt_pi_pow - other.sqrt_pi_pow)

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
        return _exact(self.rat**k, self.sqrt_pi_pow * k)

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = ExactScalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.rat == other.rat and self.sqrt_pi_pow == other.sqrt_pi_pow

    def __hash__(self):
        # A rational value equals its Fraction, so it hashes as one.
        if self.sqrt_pi_pow == 0:
            return hash(self.rat)
        return hash((self.rat, self.sqrt_pi_pow))

    def __repr__(self):
        if self.sqrt_pi_pow == 0:
            return f"ExactScalar({self.rat})"
        return f"ExactScalar({self.rat}, sqrt_pi_pow={self.sqrt_pi_pow})"

    def __str__(self):
        if self.sqrt_pi_pow == 0:
            return str(self.rat)
        return f"{self.rat}*pi^({Fraction(self.sqrt_pi_pow, 2)})"


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


def _exact(rat: Fraction, sqrt_pi_pow: int) -> ExactScalar:
    """An ExactScalar from a Fraction the caller computed; zero gets grade 0."""
    s = _new(ExactScalar)
    s.rat = rat
    s.sqrt_pi_pow = sqrt_pi_pow if rat else 0
    return s


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def _as_fraction(a) -> Fraction:
    """a as a Fraction: a Fraction is returned as it is; a float is refused,
    as ExactScalar refuses it, since its binary value is not the one meant."""
    if type(a) is Fraction:
        return a
    if isinstance(a, HalfInt):
        return a.as_fraction
    if isinstance(a, float):
        raise TypeError(f"cannot interpret {a!r} as an exact rational")
    return Fraction(a)


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = _as_fraction(a)
    p, q = a.numerator, a.denominator
    # a + j = (p + j q) / q: one integer product, one Fraction at the end
    num = 1
    for _ in range(n):
        num *= p
        p += q
    return Fraction(num, q**n)


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
    num, den, grade = _gamma_parts(half(a))
    return _exact(Fraction(num, den), grade)


def recip_gamma(a) -> ExactScalar:
    """1/Gamma(a); total, with zeros at the non-positive integers."""
    h = half(a)
    if h.is_nonpositive_integer():
        return ZERO
    num, den, grade = _gamma_parts(h)
    return _exact(Fraction(den, num), -grade)


def gamma_ratio(a, b) -> ExactScalar:
    """Gamma(a)/Gamma(b), exact and purely rational when a - b is an integer."""
    ha, hb = half(a), half(b)
    if ha.is_nonpositive_integer():
        raise PoleError(f"Gamma pole at {ha}")
    d = ha.twice - hb.twice
    if d % 2 == 0:
        n = d // 2
        if n >= 0:
            return ExactScalar(pochhammer(hb.as_fraction, n))
        return ExactScalar(1 / pochhammer(ha.as_fraction, -n))
    return gamma_half(ha) * recip_gamma(hb)


def beta_fn(a, b) -> ExactScalar:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    ha, hb = half(a), half(b)
    for arg in (ha, hb, ha + hb):
        if arg.is_nonpositive_integer():
            raise PoleError(f"beta function pole at argument {arg}")
    return gamma_half(ha) * gamma_half(hb) * recip_gamma(ha + hb)
